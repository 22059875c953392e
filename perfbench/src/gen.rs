//! Seeded input generation. The same seed always gives the same inputs; the
//! program under test sees only the flows or bytes made here.

use std::net::Ipv4Addr;

use crate::adapter::{FlowRecord, FlowState, Payload, Proto, SimDuration, SimTime};

/// SplitMix64: small, fast and good enough to shape synthetic traffic.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// `flows` moved `by` later in time.
pub fn shift(flows: &[FlowRecord], by: SimDuration) -> Vec<FlowRecord> {
    flows
        .iter()
        .map(|f| FlowRecord {
            start: f.start + by,
            end: f.end + by,
            ..*f
        })
        .collect()
}

/// Arrival order with seeded disorder: each flow is delayed by up to half
/// of `lateness`, so no flow ever arrives later than the engine's lateness
/// bound allows.
pub fn disorder(flows: &[FlowRecord], lateness: SimDuration, seed: u64) -> Vec<FlowRecord> {
    let mut rng = Rng::new(seed);
    let half = (lateness.as_millis() / 2).max(1);
    let mut keyed: Vec<(u64, usize)> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| (f.start.as_millis() + rng.below(half), i))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| flows[i]).collect()
}

/// The `n`-th internal campus address, alternating between the two /16s.
fn internal_addr(n: u32) -> Ipv4Addr {
    let [_, _, c, d] = (n / 2 + 1).to_be_bytes();
    Ipv4Addr::new(10, 1 + (n % 2) as u8, c, d)
}

fn external_addr(n: u32) -> Ipv4Addr {
    let [_, b, c, d] = n.to_be_bytes();
    Ipv4Addr::new(60 + b % 100, c, d, 1 + d % 250)
}

/// Gap periods (seconds) of the machine-driven host families.
const PERIOD_FAMILIES: [f64; 4] = [90.0, 300.0, 600.0, 1_200.0];

/// Observation window of a population.
const HM_WINDOW: SimDuration = SimDuration::from_hours(6);

/// A θ_hm population of `hosts` internal hosts over six hours. Every fourth
/// host is machine-periodic: it polls two fixed peers at one of a few
/// period families with small jitter, fails a third of its connections and
/// uploads little. The rest are human-like: heavy-tailed gaps, new
/// destinations half the time and revisits otherwise, large uploads and a
/// varied share of failed connections.
pub fn hm_population(seed: u64, hosts: u32, flows_per_host: u32) -> Vec<FlowRecord> {
    let mut rng = Rng::new(seed);
    let window_ms = HM_WINDOW.as_millis() as f64;
    let mut flows = Vec::new();
    for h in 0..hosts {
        let src = internal_addr(h);
        let mut t = rng.unit() * window_ms / 4.0;
        if h % 4 == 0 {
            let family = (h / 4) as usize % PERIOD_FAMILIES.len();
            let period_ms = PERIOD_FAMILIES[family] * 1_000.0;
            let peers: Vec<Ipv4Addr> = (0..2)
                .map(|p| external_addr(10_000 * (family as u32 + 1) + p))
                .collect();
            for k in 0..flows_per_host {
                let failed = rng.below(3) == 0;
                let up = 120 + rng.below(200);
                flows.push(flow(src, peers[k as usize % peers.len()], t, up, failed));
                t += period_ms * (0.98 + 0.04 * rng.unit());
            }
        } else {
            let revisit: Vec<Ipv4Addr> = (0..2)
                .map(|_| external_addr(rng.below(1 << 20) as u32 + 100_000))
                .collect();
            let fail_share = rng.unit() * 0.6;
            for _ in 0..flows_per_host {
                let dst = if rng.unit() < 0.5 {
                    revisit[rng.below(revisit.len() as u64) as usize]
                } else {
                    external_addr(rng.below(1 << 22) as u32 + 200_000)
                };
                let failed = rng.unit() < fail_share;
                let up = 2_000 + rng.below(400_000);
                flows.push(flow(src, dst, t, up, failed));
                // Pareto(α = 1.3, x_m = 5 s) gaps, capped at an hour.
                let gap_s = (5.0 / (1.0 - rng.unit()).powf(1.0 / 1.3)).min(3_600.0);
                t += gap_s * 1_000.0;
            }
        }
    }
    flows.retain(|f| f.start.as_millis() < HM_WINDOW.as_millis());
    flows.sort_by_key(|f| (f.start, f.src, f.dst));
    flows
}

fn flow(src: Ipv4Addr, dst: Ipv4Addr, at_ms: f64, up: u64, failed: bool) -> FlowRecord {
    let start = SimTime::from_millis(at_ms as u64);
    FlowRecord {
        start,
        end: start + SimDuration::from_millis(if failed { 3_000 } else { 800 }),
        src,
        sport: 40_000 + (at_ms as u64 % 20_000) as u16,
        dst,
        dport: 8_080,
        proto: Proto::Tcp,
        src_pkts: if failed { 2 } else { 4 + up / 1_400 },
        src_bytes: if failed { 120 } else { up },
        dst_pkts: if failed { 0 } else { 3 },
        dst_bytes: if failed { 0 } else { 600 },
        state: if failed {
            FlowState::SynNoAnswer
        } else {
            FlowState::Established
        },
        payload: Payload::empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(5), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(5), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(6), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hm_population_is_a_pure_function_of_its_seed() {
        let a = hm_population(11, 64, 20);
        assert_eq!(a, hm_population(11, 64, 20));
        assert_ne!(a, hm_population(12, 64, 20));
        assert!(a.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(a.iter().all(|f| crate::adapter::is_internal(f.src)));
        assert!(a.iter().all(|f| !crate::adapter::is_internal(f.dst)));
    }

    #[test]
    fn disorder_stays_inside_half_the_lateness_bound() {
        let flows = hm_population(3, 32, 30);
        let lateness = SimDuration::from_mins(10);
        let fed = disorder(&flows, lateness, 9);
        assert_eq!(fed, disorder(&flows, lateness, 9));
        assert_eq!(fed.len(), flows.len());
        assert_ne!(fed, flows, "some flows arrive out of order");
        let mut watermark = 0;
        for f in &fed {
            watermark = watermark.max(f.start.as_millis());
            assert!(watermark - f.start.as_millis() <= lateness.as_millis() / 2);
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vector() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
