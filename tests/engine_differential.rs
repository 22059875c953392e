//! The streaming engine against a copy-per-window reference.
//!
//! `DetectionEngine` stores each accepted flow once: a seq-keyed reorder
//! buffer, then one shared log that every open window reads a range of.
//! The reference below is the straightforward design it replaced — a
//! reorder buffer of per-key `Vec`s and a separate flow list per open
//! window, so a flow sits in as many lists as windows cover it. Both run
//! the same seeded, disordered campus days, with duplicates and flows
//! beyond the lateness bound, under every `LatePolicy`, with and without
//! dedupe, with and without a `max_flows` cap that sheds, under
//! window-scoped and idle-host eviction, on one, two and four threads;
//! the engine is serialized, parsed and restored at ⅓ and ⅔ of the feed.
//! Every push result (window reports included), `held_flows()` after every
//! push and the final `stats()` must agree. The reference builds a
//! `FlowTable` per window and profiles it on one thread, while the engine
//! profiles its log in place, sharded over hosts; the reference's answer
//! does not depend on the thread count, so it runs once per configuration
//! and every thread count is checked against that one recording.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use peerwatch::data::{build_day, CampusConfig};
use peerwatch::detect::checkpoint::EngineCheckpoint;
use peerwatch::detect::stream::{
    DetectionEngine, EngineConfig, EngineStats, EvictionPolicy, LatePolicy, WindowReport,
};
use peerwatch::detect::{
    extract_profiles_table_par_tier, try_find_plotters_from_table, Error, HostProfile,
    ProfileTable, ProfileTier,
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
/// No stall timeout, no record validation.
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
            return self.absorb_late(f);
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

    fn absorb_late(&mut self, f: FlowRecord) -> Result<Vec<WindowReport>, Error> {
        self.stats.late += 1;
        self.window_late += 1;
        let mut placed = 0;
        if self.cfg.late_policy == LatePolicy::ExtendOldest {
            for k in self.covering(f.start) {
                if let Some(flows) = self.open.get_mut(&k) {
                    flows.push(f);
                    placed += 1;
                }
            }
            if placed == 0 {
                if let Some(flows) = self.open.values_mut().next() {
                    flows.push(f);
                    placed = 1;
                }
            }
        }
        if placed == 0 {
            self.stats.late_dropped += 1;
            self.window_dropped += 1;
        } else {
            self.stats.late_extended += 1;
            self.held += placed;
        }
        if self.cfg.late_policy == LatePolicy::Reject {
            return Err(Error::LateFlow {
                start: f.start,
                bound: self.applied_to,
            });
        }
        Ok(Vec::new())
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

    fn close(&mut self, index: u64, flows: Vec<FlowRecord>) -> WindowReport {
        self.held -= flows.len();
        let start = SimTime::from_millis(index * self.cfg.slide.as_millis());
        let mut table = FlowTable::from_records(&flows);
        let duplicates = table.duplicate_rows() as u64;
        self.stats.duplicates += duplicates;
        let mut window_flows = flows.len();
        if self.cfg.dedupe && duplicates > 0 {
            let mut records = table.to_records();
            records.dedup();
            window_flows = records.len();
            table = FlowTable::from_records(&records);
        }
        let mut profiles =
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
        let end = start + self.cfg.window;
        let hosts = profiles.len();
        if let EvictionPolicy::IdleLongerThan(idle) = self.cfg.eviction {
            // Each host's last border flow, from the table's rows.
            let mut last_seen = vec![SimTime::ZERO; table.hosts().len()];
            for row in 0..table.len() {
                let (src, dst) = (table.src(row), table.dst(row));
                let src_internal = internal(table.hosts().resolve(src));
                if src_internal != internal(table.hosts().resolve(dst)) {
                    let host = if src_internal { src } else { dst };
                    let seen = &mut last_seen[host.index()];
                    *seen = (*seen).max(table.start(row));
                }
            }
            let deadline = SimTime::from_millis(end.as_millis().saturating_sub(idle.as_millis()));
            let kept: HashMap<Ipv4Addr, HostProfile> = profiles
                .iter()
                .filter(|(_, p)| last_seen[table.hosts().get(p.ip).unwrap().index()] >= deadline)
                .map(|(_, p)| (p.ip, p.clone()))
                .collect();
            profiles = ProfileTable::from_map(kept);
        }
        WindowReport {
            index,
            start,
            end,
            flows: window_flows,
            hosts,
            evicted: hosts - profiles.len(),
            late: std::mem::take(&mut self.window_late),
            dropped: std::mem::take(&mut self.window_dropped),
            quarantined: 0,
            duplicates,
            forced: false,
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
///   in the other direction, so hosts also receive flows and idle-host
///   eviction must count them.
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

/// Hosts silent for this long before a window's end are evicted under
/// [`EvictionPolicy::IdleLongerThan`].
const IDLE: SimDuration = SimDuration::from_mins(15);

/// Every configuration of one late policy: 3 seeds × 2 window shapes ×
/// dedupe off/on × uncapped/shedding × 2 eviction policies × 1, 2 and 4
/// threads.
fn sweep(late_policy: LatePolicy) {
    let mut configs = 0;
    for seed in [3u64, 17, 29] {
        let flows = feed(seed);
        for (window, slide) in [(60, 20), (45, 45)] {
            for dedupe in [false, true] {
                for max_flows in [None, Some(flows.len() / 6)] {
                    for eviction in [
                        EvictionPolicy::WindowScoped,
                        EvictionPolicy::IdleLongerThan(IDLE),
                    ] {
                        let cfg = EngineConfig {
                            window: SimDuration::from_mins(window),
                            slide: SimDuration::from_mins(slide),
                            lateness: LATENESS,
                            eviction,
                            late_policy,
                            dedupe,
                            max_flows,
                            ..EngineConfig::default()
                        };
                        let what = format!(
                            "seed {seed}, {window}/{slide} min, {late_policy:?}, \
                             dedupe {dedupe}, cap {max_flows:?}, {eviction:?}"
                        );
                        // The reference's answer does not depend on threads.
                        let want = Recording::of(&flows, cfg);
                        // The feed must reach every path the layouts differ
                        // on, or agreement proves little.
                        let (windows, stats) = (want.reports().count(), want.stats);
                        let evicted: usize = want.reports().map(|w| w.evicted).sum();
                        assert!(windows > 3, "{what}: {windows} windows");
                        assert!(stats.late > 0 && stats.duplicates > 0, "{what}");
                        assert_eq!(max_flows.is_some(), stats.shed > 0, "{what}");
                        assert_eq!(
                            eviction != EvictionPolicy::WindowScoped,
                            evicted > 0,
                            "{what}"
                        );
                        if late_policy == LatePolicy::ExtendOldest {
                            assert!(stats.late_extended > 0, "{what}");
                        }
                        for threads in [1, 2, 4] {
                            let cfg = EngineConfig { threads, ..cfg };
                            compare(&flows, cfg, &want, &format!("{what}, {threads} threads"));
                            configs += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(configs, 144);
}

#[test]
fn reject_policy_matches_copy_per_window_reference() {
    sweep(LatePolicy::Reject);
}

#[test]
fn drop_policy_matches_copy_per_window_reference() {
    sweep(LatePolicy::Drop);
}

#[test]
fn extend_oldest_policy_matches_copy_per_window_reference() {
    sweep(LatePolicy::ExtendOldest);
}
