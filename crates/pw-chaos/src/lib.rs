//! Deterministic fault injection for flow streams.
//!
//! The streaming engine in `pw-detect` claims to survive the failure modes
//! of real border monitors: lost export batches, doubled-up collectors,
//! out-of-order delivery and corrupt rows. This crate manufactures those
//! failures *reproducibly*, so the claim is testable: [`inject`] takes a
//! clean flow stream and a seeded [`ChaosConfig`], and returns the faulted
//! flow sequence plus an exact [`ChaosSummary`] of every fault applied.
//! Same seed, same faults — a failing chaos test is re-runnable by copying
//! one integer.
//!
//! Faults are applied per flow in a fixed order (drop → corrupt →
//! duplicate), then a bounded reorder pass scrambles delivery order.
//! Randomness comes from an embedded
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//! generator ([`ChaosRng`]) rather than an external RNG crate, so pinned
//! test expectations never shift under a dependency upgrade.
//!
//! [`corrupt_csv`] applies the same idea to serialized flow files: it
//! mangles a seeded selection of data rows (field truncation, extra
//! fields, garbled numbers) to exercise lossy CSV readers.
//!
//! [`ConnPlan`] extends the model to *connection-level* faults for
//! streaming clients: a seeded set of positions at which an exporter's
//! TCP connection to the detection server is severed mid-stream, forcing
//! a reconnect-and-resume through the server's sequence handshake.
//!
//! [`proxy::ChaosProxy`] goes one layer lower still: an in-process TCP
//! proxy that injects *byte-level* faults — seeded bit flips, mid-frame
//! cuts, stalls, and partial writes — between a real client and a real
//! server, to prove the wire protocol's integrity checking and deadline
//! handling end to end.
//!
//! # Examples
//!
//! ```
//! use pw_chaos::{inject, ChaosConfig};
//!
//! let flows: Vec<pw_flow::FlowRecord> = Vec::new();
//! let out = inject(&flows, &ChaosConfig { seed: 7, drop: 0.1, ..Default::default() });
//! assert!(out.flows.is_empty());
//! assert_eq!(out.summary.input, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proxy;

pub use proxy::{ChaosProxy, ProxyFaults, ProxyStats};

use std::fmt;

use pw_flow::FlowRecord;
use pw_netsim::SimTime;

/// Deterministic [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
/// generator.
///
/// Deliberately self-contained: chaos tests pin exact fault sequences, and
/// an RNG inherited from a dependency would invalidate them on upgrade.
/// Not cryptographic — it only has to be fast, seedable, and stable.
#[derive(Debug, Clone)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// A generator whose whole future is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        // 53 high bits → uniform in [0, 1) with full double precision.
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Uniform index in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// A rejected chaos configuration: a probability outside `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfigError {
    /// Which knob was rejected.
    pub field: &'static str,
    /// The offending value.
    pub value: f64,
}

impl fmt::Display for ChaosConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos {} must be a probability in [0, 1], got {}",
            self.field, self.value
        )
    }
}

impl std::error::Error for ChaosConfigError {}

/// What faults to inject, and how often. All rates default to zero — the
/// default config is a faithful passthrough.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed determining the entire fault sequence.
    pub seed: u64,
    /// Probability a flow is silently lost (a dropped export batch).
    pub drop: f64,
    /// Probability a delivered flow is delivered twice (doubled-up
    /// collectors replaying a batch).
    pub duplicate: f64,
    /// Probability a delivered flow is corrupted into a record that fails
    /// [`FlowRecord::validate`] (end before start, or byte counts without
    /// packets) — the in-memory analogue of a garbled export row.
    pub corrupt: f64,
    /// Bounded reorder: each delivery may be swapped up to this many
    /// positions ahead. Zero keeps arrival order. (Chained swaps can
    /// occasionally displace a record slightly further; the bound is on
    /// each individual swap.)
    pub reorder_window: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder_window: 0,
        }
    }
}

/// Rejects anything that is not a well-formed probability: NaN and
/// negative values explicitly, not as a side effect of a range check.
fn probability_ok(field: &'static str, value: f64) -> Result<(), ChaosConfigError> {
    if value.is_nan() || !(0.0..=1.0).contains(&value) {
        return Err(ChaosConfigError { field, value });
    }
    Ok(())
}

impl ChaosConfig {
    /// Checks every probability knob. NaN and negative rates are rejected
    /// explicitly — a NaN would otherwise silently disable its fault
    /// (every `chance(NaN)` comparison is false), which is the worst
    /// failure mode for a fault injector: tests that pass because nothing
    /// was injected.
    pub fn validate(&self) -> Result<(), ChaosConfigError> {
        for (field, value) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("corrupt", self.corrupt),
        ] {
            probability_ok(field, value)?;
        }
        Ok(())
    }
}

/// Exact accounting of the faults [`inject`] applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosSummary {
    /// Flows in the clean input.
    pub input: usize,
    /// Flows delivered (input − dropped + duplicated).
    pub delivered: usize,
    /// Flows silently lost.
    pub dropped: usize,
    /// Extra copies delivered.
    pub duplicated: usize,
    /// Deliveries corrupted into invalid records.
    pub corrupted: usize,
    /// Deliveries that left their original position in the reorder pass.
    pub displaced: usize,
}

/// A faulted feed plus its accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// The faulted flows, in delivery order: possibly duplicated,
    /// corrupted and reordered.
    pub flows: Vec<FlowRecord>,
    /// What was done to produce it.
    pub summary: ChaosSummary,
}

/// Corrupts one record so it fails [`FlowRecord::validate`], in a way
/// chosen by `rng`.
fn corrupt_record(mut f: FlowRecord, rng: &mut ChaosRng) -> FlowRecord {
    if rng.below(2) == 0 && f.start > SimTime::ZERO {
        // Ends before it starts.
        f.end = SimTime::from_millis(f.start.as_millis() - 1);
    } else {
        // Bytes without packets.
        f.src_pkts = 0;
        f.src_bytes = f.src_bytes.max(1);
    }
    f
}

/// Runs `flows` through the configured fault model and returns the faulted
/// flow sequence plus exact accounting. Deterministic in
/// [`ChaosConfig::seed`].
///
/// # Errors
///
/// [`ChaosConfigError`] if a probability lies outside `[0, 1]`.
pub fn try_inject(
    flows: &[FlowRecord],
    cfg: &ChaosConfig,
) -> Result<ChaosOutcome, ChaosConfigError> {
    cfg.validate()?;
    let mut rng = ChaosRng::new(cfg.seed);
    let mut summary = ChaosSummary {
        input: flows.len(),
        ..Default::default()
    };

    // Per-flow faults, in fixed order: drop → corrupt → duplicate.
    let mut deliveries: Vec<FlowRecord> = Vec::with_capacity(flows.len());
    for &f in flows {
        if rng.chance(cfg.drop) {
            summary.dropped += 1;
            continue;
        }
        let f = if rng.chance(cfg.corrupt) {
            summary.corrupted += 1;
            corrupt_record(f, &mut rng)
        } else {
            f
        };
        deliveries.push(f);
        if rng.chance(cfg.duplicate) {
            summary.duplicated += 1;
            deliveries.push(f);
        }
    }

    // Bounded reorder pass.
    if cfg.reorder_window > 0 && deliveries.len() > 1 {
        let before = deliveries.clone();
        let n = deliveries.len();
        for i in 0..n {
            let span = cfg.reorder_window.min(n - 1 - i);
            if span == 0 {
                continue;
            }
            let j = i + rng.below(span + 1);
            deliveries.swap(i, j);
        }
        summary.displaced = deliveries
            .iter()
            .zip(&before)
            .filter(|(a, b)| a != b)
            .count();
    }

    summary.delivered = deliveries.len();
    Ok(ChaosOutcome {
        flows: deliveries,
        summary,
    })
}

/// [`try_inject`] for configs known valid.
///
/// # Panics
///
/// Panics on an invalid config; use [`try_inject`] to handle that as a
/// value.
pub fn inject(flows: &[FlowRecord], cfg: &ChaosConfig) -> ChaosOutcome {
    try_inject(flows, cfg).expect("invalid ChaosConfig")
}

/// Seeded plan of connection-level faults for a streaming exporter
/// client: after which deliveries to sever the connection and reconnect.
///
/// The plan is a set of distinct cut positions in `1..deliveries`
/// (never before the first delivery, never after the last), chosen by a
/// [`ChaosRng`] — same seed, same cuts. The client consults
/// [`cut_after`](ConnPlan::cut_after) while streaming; the server's
/// sequence-resume handshake turns each cut into a reconnect that must
/// not lose or double-apply a single flow.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnPlan {
    cuts: Vec<usize>,
}

impl ConnPlan {
    /// Plans `cuts` disconnects over a stream of `deliveries` flows.
    /// Requests beyond the number of interior positions are capped.
    pub fn new(seed: u64, deliveries: usize, cuts: usize) -> Self {
        let interior = deliveries.saturating_sub(1);
        let cuts = cuts.min(interior);
        let mut rng = ChaosRng::new(seed);
        let mut chosen = Vec::with_capacity(cuts);
        while chosen.len() < cuts {
            let p = 1 + rng.below(interior);
            if !chosen.contains(&p) {
                chosen.push(p);
            }
        }
        chosen.sort_unstable();
        ConnPlan { cuts: chosen }
    }

    /// A plan with no disconnects.
    pub fn none() -> Self {
        ConnPlan { cuts: Vec::new() }
    }

    /// Whether the connection should be severed after delivering the
    /// flow at position `k` (0-based).
    pub fn cut_after(&self, k: usize) -> bool {
        self.cuts.binary_search(&(k + 1)).is_ok()
    }

    /// The planned cut positions, ascending.
    pub fn cuts(&self) -> &[usize] {
        &self.cuts
    }
}

/// Mangles a seeded selection of data rows in a serialized flow file
/// (see [`pw_flow::csvio`]), leaving the header line alone. Returns the
/// mangled text and how many rows were corrupted. Three corruption shapes
/// rotate deterministically: a truncated row (too few fields), a row with
/// a junk field appended (too many), and a garbled leading timestamp.
///
/// # Errors
///
/// [`ChaosConfigError`] if `prob` is NaN, negative, or above 1.
pub fn try_corrupt_csv(
    text: &str,
    seed: u64,
    prob: f64,
) -> Result<(String, usize), ChaosConfigError> {
    probability_ok("corrupt_csv prob", prob)?;
    let mut rng = ChaosRng::new(seed);
    let mut corrupted = 0usize;
    let mut out = String::with_capacity(text.len());
    for (i, line) in text.lines().enumerate() {
        if i == 0 || line.is_empty() || !rng.chance(prob) {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        corrupted += 1;
        match rng.below(3) {
            0 => {
                // Too few fields: cut at the last comma.
                let cut = line.rfind(',').unwrap_or(0);
                out.push_str(&line[..cut]);
            }
            1 => {
                // Too many fields.
                out.push_str(line);
                out.push_str(",junk");
            }
            _ => {
                // Garbled leading timestamp.
                out.push('x');
                out.push_str(line);
            }
        }
        out.push('\n');
    }
    Ok((out, corrupted))
}

/// [`try_corrupt_csv`] for probabilities known valid.
///
/// # Panics
///
/// Panics if `prob` is NaN, negative, or above 1; use
/// [`try_corrupt_csv`] to handle that as a value.
pub fn corrupt_csv(text: &str, seed: u64, prob: f64) -> (String, usize) {
    try_corrupt_csv(text, seed, prob).expect("invalid corrupt_csv probability")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_flow::{FlowState, Payload, Proto};
    use std::net::Ipv4Addr;

    fn flow(k: u64) -> FlowRecord {
        FlowRecord {
            start: SimTime::from_secs(k),
            end: SimTime::from_secs(k + 1),
            src: Ipv4Addr::new(10, 0, 0, 1),
            sport: 40_000 + k as u16,
            dst: Ipv4Addr::new(60, 0, 0, 1),
            dport: 80,
            proto: Proto::Tcp,
            src_pkts: 2,
            src_bytes: 100,
            dst_pkts: 1,
            dst_bytes: 50,
            state: FlowState::Established,
            payload: Payload::empty(),
        }
    }

    fn feed(n: u64) -> Vec<FlowRecord> {
        (0..n).map(flow).collect()
    }

    #[test]
    fn default_config_is_a_passthrough() {
        let flows = feed(50);
        let out = inject(&flows, &ChaosConfig::default());
        assert_eq!(
            out.summary,
            ChaosSummary {
                input: 50,
                delivered: 50,
                ..Default::default()
            }
        );
        assert_eq!(out.flows, flows);
    }

    #[test]
    fn same_seed_same_faults_different_seed_different_faults() {
        let flows = feed(200);
        let cfg = ChaosConfig {
            seed: 42,
            drop: 0.1,
            duplicate: 0.1,
            corrupt: 0.05,
            reorder_window: 4,
        };
        let a = inject(&flows, &cfg);
        let b = inject(&flows, &cfg);
        assert_eq!(a, b, "identical seeds must replay identically");
        let c = inject(&flows, &ChaosConfig { seed: 43, ..cfg });
        assert_ne!(a.summary, c.summary);
    }

    #[test]
    fn summary_accounts_for_every_event() {
        let flows = feed(500);
        let cfg = ChaosConfig {
            seed: 7,
            drop: 0.2,
            duplicate: 0.15,
            corrupt: 0.1,
            reorder_window: 3,
        };
        let out = inject(&flows, &cfg);
        let s = out.summary;
        assert_eq!(s.input, 500);
        assert_eq!(s.delivered, s.input - s.dropped + s.duplicated);
        assert!(s.dropped > 0 && s.duplicated > 0 && s.corrupted > 0);
        assert!(s.displaced > 0);
        assert_eq!(out.flows.len(), s.delivered);
    }

    #[test]
    fn corrupted_records_fail_validation() {
        let flows = feed(100);
        let cfg = ChaosConfig {
            seed: 3,
            corrupt: 1.0,
            ..Default::default()
        };
        let out = inject(&flows, &cfg);
        assert_eq!(out.summary.corrupted, 100);
        for f in &out.flows {
            assert!(f.validate().is_err(), "{f:?} should be invalid");
        }
    }

    #[test]
    fn reorder_displacement_is_bounded_per_swap() {
        let flows = feed(300);
        let cfg = ChaosConfig {
            seed: 11,
            reorder_window: 5,
            ..Default::default()
        };
        let out = inject(&flows, &cfg);
        assert_eq!(out.summary.delivered, 300);
        // Every input flow is still present exactly once.
        let mut starts: Vec<u64> = out.flows.iter().map(|f| f.start.as_millis()).collect();
        starts.sort_unstable();
        let expected: Vec<u64> = (0..300).map(|k| k * 1000).collect();
        assert_eq!(starts, expected);
    }

    #[test]
    fn invalid_config_is_refused() {
        let bad = ChaosConfig {
            drop: 1.5,
            ..Default::default()
        };
        let err = try_inject(&[], &bad).unwrap_err();
        assert_eq!(err.field, "drop");
        assert!(err.to_string().contains("1.5"));
    }

    #[test]
    fn nan_probabilities_are_rejected_per_knob() {
        // A NaN rate silently disables its fault (`chance(NaN)` is always
        // false); each knob must refuse it as a typed error instead.
        let nan = f64::NAN;
        let cases = [
            (
                "drop",
                ChaosConfig {
                    drop: nan,
                    ..Default::default()
                },
            ),
            (
                "duplicate",
                ChaosConfig {
                    duplicate: nan,
                    ..Default::default()
                },
            ),
            (
                "corrupt",
                ChaosConfig {
                    corrupt: nan,
                    ..Default::default()
                },
            ),
        ];
        for (field, cfg) in cases {
            let err = cfg.validate().unwrap_err();
            assert_eq!(err.field, field);
            assert!(err.value.is_nan());
        }
    }

    #[test]
    fn negative_probabilities_are_rejected_per_knob() {
        let cases = [
            (
                "drop",
                ChaosConfig {
                    drop: -0.1,
                    ..Default::default()
                },
            ),
            (
                "duplicate",
                ChaosConfig {
                    duplicate: -1.0,
                    ..Default::default()
                },
            ),
            (
                "corrupt",
                ChaosConfig {
                    corrupt: -f64::EPSILON,
                    ..Default::default()
                },
            ),
        ];
        for (field, cfg) in cases {
            let err = cfg.validate().unwrap_err();
            assert_eq!(err.field, field, "negative {field} must be refused");
            assert!(err.value < 0.0);
        }
    }

    #[test]
    fn corrupt_csv_rejects_nan_and_negative_probabilities() {
        let err = try_corrupt_csv("h\na,b\n", 1, f64::NAN).unwrap_err();
        assert_eq!(err.field, "corrupt_csv prob");
        assert!(err.value.is_nan());
        let err = try_corrupt_csv("h\na,b\n", 1, -0.5).unwrap_err();
        assert_eq!(err.value, -0.5);
        let err = try_corrupt_csv("h\na,b\n", 1, 2.0).unwrap_err();
        assert_eq!(err.value, 2.0);
        assert!(try_corrupt_csv("h\na,b\n", 1, 0.0).is_ok());
        assert!(try_corrupt_csv("h\na,b\n", 1, 1.0).is_ok());
    }

    #[test]
    fn conn_plan_is_seeded_bounded_and_distinct() {
        let plan = ConnPlan::new(99, 200, 3);
        assert_eq!(plan, ConnPlan::new(99, 200, 3), "same seed, same cuts");
        assert_ne!(plan, ConnPlan::new(100, 200, 3));
        assert_eq!(plan.cuts().len(), 3);
        for w in plan.cuts().windows(2) {
            assert!(w[0] < w[1], "cuts must be distinct and sorted");
        }
        for &c in plan.cuts() {
            assert!((1..200).contains(&c), "cut {c} outside the stream");
        }
        let hits = (0..200).filter(|&k| plan.cut_after(k)).count();
        assert_eq!(hits, 3);

        // Degenerate streams cap the cut count instead of spinning.
        assert_eq!(ConnPlan::new(1, 1, 5).cuts().len(), 0);
        assert_eq!(ConnPlan::new(1, 3, 10).cuts().len(), 2);
        assert!(ConnPlan::none().cuts().is_empty());
    }

    #[test]
    fn corrupt_csv_mangles_only_data_rows() {
        let flows = feed(30);
        let mut buf = Vec::new();
        pw_flow::csvio::write_flows(&mut buf, &flows).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let (mangled, corrupted) = corrupt_csv(&text, 5, 0.3);
        assert!(corrupted > 0);
        let header = text.lines().next().unwrap();
        assert_eq!(mangled.lines().next().unwrap(), header, "header untouched");
        // Deterministic in the seed.
        assert_eq!(corrupt_csv(&text, 5, 0.3), (mangled.clone(), corrupted));
        // The lossy reader quarantines exactly the mangled rows.
        let (records, errors) = pw_flow::csvio::read_flows_lossy(mangled.as_bytes()).unwrap();
        assert_eq!(errors.len(), corrupted);
        assert_eq!(records.len(), 30 - corrupted);
    }
}
