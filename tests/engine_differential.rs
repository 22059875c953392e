//! The streaming engine against a copy-per-window reference.
//!
//! `DetectionEngine` stores each accepted flow once: a seq-keyed reorder
//! buffer, then one shared log that every open window reads a range of.
//! The reference below is the straightforward design it replaced — a
//! reorder buffer of per-key `Vec`s and a separate flow list per open
//! window, so a flow sits in as many lists as windows cover it. Both run
//! the same seeded, disordered campus days, with duplicates and flows
//! beyond the lateness bound (which both refuse), with and without dedupe,
//! with and without a `max_flows` cap that sheds, on one, two and four
//! threads, and at the sketched tier on one thread for the sliding
//! windows; the engine is serialized, parsed and restored at ⅓ and ⅔ of
//! the feed, and revives its open windows from the log.
//! Every push result (window reports included), `held_flows()` after every
//! push and the final `stats()` must agree. The reference builds a
//! `FlowTable` per window at its close, while each of the engine's open
//! windows profiles its flows as they arrive and keeps that state, the
//! sketched tier's per-host `LastSeen` caches included, from push to push,
//! rebuilding it from the log at each restore; the reference's answer does
//! not depend on the thread count, so it runs once per configuration and
//! tier, and every thread count is checked against that one recording.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use peerwatch::data::{build_day, CampusConfig};
use peerwatch::detect::checkpoint::EngineCheckpoint;
use peerwatch::detect::stream::{DetectionEngine, EngineConfig, EngineStats, WindowReport};
use peerwatch::detect::{
    extract_profiles_table_par_tier, try_find_plotters_from_table, Error, ProfileTier,
};
use peerwatch::flow::{FlowRecord, FlowTable};
use peerwatch::netsim::{SimDuration, SimTime};

/// The campus address space `build_day` generates internal hosts in.
fn internal(ip: Ipv4Addr) -> bool {
    ip.octets()[..2] == [10, 1] || ip.octets()[..2] == [10, 2]
}

type Key = (SimTime, Ipv4Addr, Ipv4Addr, u16, u16);

fn key(f: &FlowRecord) -> Key {
    (f.start, f.src, f.dst, f.sport, f.dport)
}

/// The copy-per-window engine: same rules, every window its own list.
/// No record validation.
struct Reference {
    cfg: EngineConfig,
    buffer: BTreeMap<Key, Vec<FlowRecord>>,
    open: BTreeMap<u64, Vec<FlowRecord>>,
    watermark: SimTime,
    applied_to: SimTime,
    stats: EngineStats,
    window_late: u64,
    window_dropped: u64,
    held: usize,
}

impl Reference {
    fn new(cfg: EngineConfig) -> Self {
        Self {
            cfg,
            buffer: BTreeMap::new(),
            open: BTreeMap::new(),
            watermark: SimTime::ZERO,
            applied_to: SimTime::ZERO,
            stats: EngineStats::default(),
            window_late: 0,
            window_dropped: 0,
            held: 0,
        }
    }

    fn push(&mut self, f: FlowRecord) -> Result<Vec<WindowReport>, Error> {
        self.stats.attempted += 1;
        if f.start < self.applied_to {
            self.stats.late += 1;
            self.window_late += 1;
            self.window_dropped += 1;
            return Err(Error::LateFlow {
                start: f.start,
                bound: self.applied_to,
            });
        }
        self.watermark = self.watermark.max(f.start);
        let cutoff = SimTime::from_millis(
            self.watermark
                .as_millis()
                .saturating_sub(self.cfg.lateness.as_millis()),
        );
        let reports = self.advance_to(cutoff);
        if self.cfg.max_flows.is_some_and(|cap| self.held >= cap) {
            self.stats.shed += 1;
            self.window_dropped += 1;
            return Ok(reports);
        }
        self.stats.accepted += 1;
        self.buffer.entry(key(&f)).or_default().push(f);
        self.held += 1;
        Ok(reports)
    }

    fn finish(&mut self) -> Vec<WindowReport> {
        self.applied_to = self.applied_to.max(self.watermark);
        for f in std::mem::take(&mut self.buffer).into_values().flatten() {
            self.held -= 1;
            self.assign(f);
        }
        let mut reports = Vec::new();
        for (k, flows) in std::mem::take(&mut self.open) {
            let end = SimTime::from_millis(k * self.cfg.slide.as_millis()) + self.cfg.window;
            self.applied_to = self.applied_to.max(end);
            reports.push(self.close(k, flows));
        }
        reports
    }

    fn advance_to(&mut self, cutoff: SimTime) -> Vec<WindowReport> {
        if cutoff <= self.applied_to {
            return Vec::new();
        }
        let bound = (cutoff, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, 0, 0);
        let rest = self.buffer.split_off(&bound);
        for f in std::mem::replace(&mut self.buffer, rest)
            .into_values()
            .flatten()
        {
            self.held -= 1;
            self.assign(f);
        }
        self.applied_to = cutoff;
        let (window_ms, slide_ms) = (self.cfg.window.as_millis(), self.cfg.slide.as_millis());
        let closable: Vec<u64> = self
            .open
            .keys()
            .copied()
            .take_while(|&k| k * slide_ms + window_ms <= cutoff.as_millis())
            .collect();
        closable
            .into_iter()
            .map(|k| {
                let flows = self.open.remove(&k).unwrap();
                self.close(k, flows)
            })
            .collect()
    }

    fn covering(&self, t: SimTime) -> std::ops::RangeInclusive<u64> {
        let (t, window_ms, slide_ms) = (
            t.as_millis(),
            self.cfg.window.as_millis(),
            self.cfg.slide.as_millis(),
        );
        let k_min = if t < window_ms {
            0
        } else {
            (t - window_ms) / slide_ms + 1
        };
        k_min..=t / slide_ms
    }

    fn assign(&mut self, f: FlowRecord) {
        for k in self.covering(f.start) {
            self.open.entry(k).or_default().push(f);
            self.held += 1;
        }
    }

    fn close(&mut self, index: u64, mut flows: Vec<FlowRecord>) -> WindowReport {
        self.held -= flows.len();
        let start = SimTime::from_millis(index * self.cfg.slide.as_millis());
        // A duplicate is a record equal to its predecessor in canonical
        // order, ties kept in arrival order: the whole-record rule the
        // engine's `dedupe` applies.
        flows.sort_by_key(key);
        let duplicates = flows.windows(2).filter(|pair| pair[0] == pair[1]).count() as u64;
        self.stats.duplicates += duplicates;
        if self.cfg.dedupe {
            flows.dedup();
        }
        let window_flows = flows.len();
        let table = FlowTable::from_records(&flows);
        let profiles =
            extract_profiles_table_par_tier(&table, internal, self.cfg.tier, self.cfg.threads);
        self.stats.profile_bytes = 0;
        self.stats.profiles_exact = 0;
        self.stats.profiles_sketched = 0;
        for p in profiles.profiles() {
            self.stats.profile_bytes += p.estimated_bytes() as u64;
            match p.tier() {
                ProfileTier::Exact => self.stats.profiles_exact += 1,
                ProfileTier::Sketched => self.stats.profiles_sketched += 1,
            }
        }
        WindowReport {
            index,
            start,
            end: start + self.cfg.window,
            flows: window_flows,
            hosts: profiles.len(),
            late: std::mem::take(&mut self.window_late),
            dropped: std::mem::take(&mut self.window_dropped),
            quarantined: 0,
            duplicates,
            outcome: try_find_plotters_from_table(&profiles, &self.cfg.detect, self.cfg.threads),
        }
    }
}

/// SplitMix64: a seeded stream for the feed's disorder.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const LATENESS: SimDuration = SimDuration::from_mins(5);

/// The first three monitored hours of a small campus day, in arrival
/// order. Most flows arrive up to 4 minutes out of place, inside the
/// lateness bound. Besides, with a seeded stream:
///
/// - one flow in 150 arrives 20–60 minutes late, beyond the bound;
/// - one in 80 arrives again within 90 s, an exact duplicate;
/// - one in 100 is followed at once by a near-duplicate (same key, one
///   more byte) and then by itself again, so equal keys must leave the
///   buffer in arrival order for the duplicate count to come out right;
/// - one in 100 has that near-duplicate and copy replayed 20–60 minutes
///   late, so the late pair must sort after the logged original;
/// - one in 25 is answered 1–30 minutes later by its destination, a flow
///   in the other direction, so monitored hosts also receive flows.
fn feed(seed: u64) -> Vec<FlowRecord> {
    let campus = CampusConfig {
        seed,
        ..CampusConfig::small()
    };
    let day = build_day(&campus, 0);
    let first = day.flows.iter().map(|f| f.start).min().unwrap();
    let until = first + SimDuration::from_hours(3);
    let mut rng = Mix(seed ^ 0xD1FF);
    let late = |rng: &mut Mix| SimDuration::from_mins(20 + rng.below(40)).as_millis();
    // (arrival ms, order within the arrival ms, flow)
    let mut arrivals: Vec<(u64, u64, FlowRecord)> = Vec::new();
    for f in day.flows.iter().filter(|f| f.start < until) {
        let delay = if rng.below(150) == 0 {
            late(&mut rng)
        } else {
            rng.below(SimDuration::from_mins(4).as_millis())
        };
        let at = f.start.as_millis() + delay;
        let near = FlowRecord {
            src_bytes: f.src_bytes + 1,
            ..*f
        };
        arrivals.push((at, 0, *f));
        if rng.below(80) == 0 {
            arrivals.push((at + 1 + rng.below(90_000), 0, *f));
        }
        if rng.below(100) == 0 {
            arrivals.push((at, 1, near));
            arrivals.push((at, 2, *f));
        }
        if rng.below(100) == 0 {
            let replay = f.start.as_millis() + late(&mut rng);
            arrivals.push((replay, 0, near));
            arrivals.push((replay, 1, *f));
        }
        if rng.below(25) == 0 {
            let start = f.start + SimDuration::from_mins(1 + rng.below(30));
            let back = FlowRecord {
                start,
                end: start + (f.end - f.start),
                src: f.dst,
                sport: f.dport,
                dst: f.src,
                dport: f.sport,
                src_pkts: f.dst_pkts,
                src_bytes: f.dst_bytes,
                dst_pkts: f.src_pkts,
                dst_bytes: f.src_bytes,
                ..*f
            };
            let delay = rng.below(SimDuration::from_mins(4).as_millis());
            arrivals.push((start.as_millis() + delay, 0, back));
        }
    }
    // Stable: flows arriving in the same millisecond keep their order.
    arrivals.sort_by_key(|&(at, order, _)| (at, order));
    arrivals.into_iter().map(|(_, _, f)| f).collect()
}

/// Serializes, parses and restores `engine`, checking the text round trip.
fn revive(engine: &DetectionEngine<fn(Ipv4Addr) -> bool>) -> DetectionEngine<fn(Ipv4Addr) -> bool> {
    let snapshot = engine.checkpoint();
    let parsed = EngineCheckpoint::parse(&snapshot.serialize()).unwrap();
    assert_eq!(parsed, snapshot);
    DetectionEngine::restore(&parsed, internal as fn(Ipv4Addr) -> bool).unwrap()
}

/// Everything the reference returned over one feed: each push result
/// and `held` after it, the finish reports and the final counters.
struct Recording {
    pushes: Vec<(Result<Vec<WindowReport>, Error>, usize)>,
    finish: Vec<WindowReport>,
    stats: EngineStats,
}

impl Recording {
    fn of(flows: &[FlowRecord], cfg: EngineConfig) -> Self {
        let mut reference = Reference::new(cfg);
        let pushes = flows
            .iter()
            .map(|f| (reference.push(*f), reference.held))
            .collect();
        Self {
            pushes,
            finish: reference.finish(),
            stats: reference.stats,
        }
    }

    fn reports(&self) -> impl Iterator<Item = &WindowReport> {
        self.pushes
            .iter()
            .filter_map(|(r, _)| r.as_ref().ok())
            .flatten()
            .chain(&self.finish)
    }
}

/// Runs the engine over `flows` and checks it against the reference's
/// recording of the same feed.
fn compare(flows: &[FlowRecord], cfg: EngineConfig, want: &Recording, what: &str) {
    let mut engine = DetectionEngine::new(cfg, internal as fn(Ipv4Addr) -> bool).unwrap();
    let cuts = [flows.len() / 3, 2 * flows.len() / 3];
    for (i, (f, (result, held))) in flows.iter().zip(&want.pushes).enumerate() {
        if cuts.contains(&i) {
            engine = revive(&engine);
        }
        assert_eq!(&engine.push(*f), result, "{what}: push {i}");
        assert_eq!(engine.held_flows(), *held, "{what}: held after push {i}");
    }
    assert_eq!(engine.finish(), want.finish, "{what}: finish");
    assert_eq!(engine.held_flows(), 0, "{what}: held after finish");
    assert_eq!(engine.stats(), want.stats, "{what}: stats");
}

/// Every configuration: 3 seeds × 2 window shapes × dedupe off/on ×
/// uncapped/shedding × 1, 2 and 4 threads at the exact tier, plus the
/// sliding shape's 12 configurations at the sketched tier on one thread.
#[test]
fn engine_matches_copy_per_window_reference() {
    let mut configs = 0;
    for seed in [3u64, 17, 29] {
        let flows = feed(seed);
        for (window, slide) in [(60, 20), (45, 45)] {
            for dedupe in [false, true] {
                for max_flows in [None, Some(flows.len() / 6)] {
                    let cfg = EngineConfig {
                        window: SimDuration::from_mins(window),
                        slide: SimDuration::from_mins(slide),
                        lateness: LATENESS,
                        dedupe,
                        max_flows,
                        ..EngineConfig::default()
                    };
                    let what = format!(
                        "seed {seed}, {window}/{slide} min, dedupe {dedupe}, cap {max_flows:?}"
                    );
                    // The reference's answer does not depend on threads.
                    let want = Recording::of(&flows, cfg);
                    // The feed must reach every path the layouts differ
                    // on, or agreement proves little.
                    let (windows, stats) = (want.reports().count(), want.stats);
                    assert!(windows > 3, "{what}: {windows} windows");
                    assert!(stats.late > 0 && stats.duplicates > 0, "{what}");
                    assert_eq!(max_flows.is_some(), stats.shed > 0, "{what}");
                    for threads in [1, 2, 4] {
                        let cfg = EngineConfig { threads, ..cfg };
                        compare(&flows, cfg, &want, &format!("{what}, {threads} threads"));
                        configs += 1;
                    }
                    if slide < window {
                        let cfg = EngineConfig {
                            tier: ProfileTier::Sketched,
                            ..cfg
                        };
                        let want = Recording::of(&flows, cfg);
                        compare(&flows, cfg, &want, &format!("{what}, sketched"));
                        configs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(configs, 84);
}
