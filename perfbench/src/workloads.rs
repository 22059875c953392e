//! The four workloads. Each builds its inputs from the seed in `setup`,
//! computes the reference verdicts there, and then runs whole passes over
//! those inputs, checking every verdict it produces.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{
    self, CampusScale, Engine, FlowRecord, SendReport, SimDuration, Verdict, WindowReport,
};
use crate::gen::{self, fnv1a, FNV_OFFSET};
use crate::trace::Recorder;

/// What passes accumulate: verdict latencies, throughput and correctness
/// for the end-to-end metrics, and per-layer counters for the traced run.
#[derive(Debug, Default)]
pub struct Tally {
    pub passes: u64,
    /// Flows taken to a verdict per second of each pass.
    pub pass_flows_per_s: Vec<f64>,
    pub verdict_ms: Vec<f64>,
    pub flows: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer counters, summed over passes.
    pub sums: BTreeMap<&'static str, f64>,
    /// Per-layer gauges, maximum over passes.
    pub peaks: BTreeMap<&'static str, f64>,
}

impl Tally {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    fn peak(&mut self, key: &'static str, v: f64) {
        let e = self.peaks.entry(key).or_insert(0.0);
        *e = e.max(v);
    }

    /// Counts one verdict, failed when `ok` is false.
    fn verdict(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    pub fn max(&self, key: &str) -> f64 {
        self.peaks.get(key).copied().unwrap_or(0.0)
    }
}

pub trait Workload: Sized {
    /// Generates inputs and reference verdicts from `seed`.
    fn setup(seed: u64, scratch: &Path) -> Self;
    /// Digest of the inputs the program sees.
    fn digest(&self) -> u64;
    /// One whole pass over the inputs.
    fn pass(&mut self, rec: &mut Recorder, tally: &mut Tally);
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Detection threads of the batch paths: the container's vCPU count.
const THREADS: usize = 2;

/// Campus days of batch-days: the small campus `gen-campus --small`
/// builds, four days per pass.
const DAY_SCALE: CampusScale = CampusScale {
    background: 60,
    gnutella: 4,
    emule: 3,
    bittorrent: 5,
    storm: 4,
    nugache: 10,
};
const DAYS: usize = 4;

/// Campus days of stream-slide, two per pass: a larger campus than the
/// batch days with three times their bots. Larger windows make each close
/// slower, so a run stays well under the thousand closes at which the tail
/// would move to p99; bots, whose traces are fixed, carry most of the flows,
/// so the spread of window sizes (and with it the median close) barely
/// moves from seed to seed.
const STREAM_SCALE: CampusScale = CampusScale {
    background: 100,
    gnutella: 4,
    emule: 3,
    bittorrent: 5,
    storm: 8,
    nugache: 36,
};
const STREAM_DAYS: usize = 2;

/// Seed of the implanted bot traces. Bots make up most of a small campus
/// day's flows and their volume swings widely from seed to seed, so they
/// are held fixed: `--seed` varies the campus and which hosts are infected,
/// while the size of the work stays comparable across seeds.
const BOT_SEED: u64 = 0xB07;

fn campus_csv(seed: u64, scale: CampusScale, days: usize) -> Vec<Vec<u8>> {
    (0..days)
        .map(|d| adapter::to_csv(&adapter::campus_day(seed, BOT_SEED, d, scale)))
        .collect()
}

fn digest_all(parts: &[Vec<u8>]) -> u64 {
    parts.iter().fold(FNV_OFFSET, |h, p| fnv1a(h, p))
}

/// Traced-run counters of the staged detection path.
fn tally_stages(tally: &mut Tally, c: &adapter::StageCounts) {
    tally.add("features.hosts", c.hosts as f64);
    tally.add("features.profile_bytes", c.profile_bytes as f64);
    tally.add("reduction.kept", c.kept as f64);
    tally.add("theta_hm.hosts", c.hm_hosts as f64);
    for (key, ns) in [
        "theta_hm.hist",
        "theta_hm.fill",
        "theta_hm.linkage",
        "theta_hm.cut",
    ]
    .into_iter()
    .zip(c.hm_ns)
    {
        tally.add(key, ns as f64);
    }
}

/// Table → verdict on `THREADS` threads: the library's one call when
/// untraced, its stages one by one when traced.
fn detect(rec: &mut Recorder, tally: &mut Tally, table: &adapter::FlowTable) -> Option<Verdict> {
    if rec.is_on() {
        tally.add("table.hosts", adapter::table_hosts(table) as f64);
        let (v, counts) = adapter::detect_staged(rec, table, THREADS).ok()?;
        tally_stages(tally, &counts);
        Some(v)
    } else {
        adapter::detect(table, THREADS).ok()
    }
}

/// batch-days: CSV bytes → `read_flows_lossy` → `FlowTable` → verdict.
pub struct BatchDays {
    csv: Vec<Vec<u8>>,
    reference: Vec<Verdict>,
}

impl Workload for BatchDays {
    fn setup(seed: u64, _: &Path) -> Self {
        let csv = campus_csv(seed, DAY_SCALE, DAYS);
        let mut off = Recorder::new(false);
        let reference = csv
            .iter()
            .map(|bytes| {
                let (flows, _) = adapter::parse_csv(&mut off, bytes);
                let table = adapter::build_table(&mut off, &flows);
                adapter::detect(&table, 1).expect("a campus day has a verdict")
            })
            .collect();
        BatchDays { csv, reference }
    }

    fn digest(&self) -> u64 {
        digest_all(&self.csv)
    }

    fn pass(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        for (day, (bytes, want)) in self.csv.iter().zip(&self.reference).enumerate() {
            rec.set_request(tally.passes * DAYS as u64 + day as u64);
            let t = Instant::now();
            let (ok, n) = rec.span("harness", |rec| {
                let (flows, rejected) = adapter::parse_csv(rec, bytes);
                let table = adapter::build_table(rec, &flows);
                let got = detect(rec, tally, &table);
                adapter::release(rec, "table.build", table);
                let n = flows.len();
                adapter::release(rec, "csvio.parse", flows);
                if rec.is_on() {
                    tally.add("csvio.rows", n as f64);
                    tally.add("csvio.rows_rejected", rejected as f64);
                    tally.add("csvio.bytes", bytes.len() as f64);
                }
                (rejected == 0 && got.as_ref() == Some(want), n)
            });
            tally.verdict_ms.push(ms_since(t));
            tally.flows += n as u64;
            tally.verdict(ok);
        }
    }
}

/// hm-population: generated flows → `FlowTable` → verdict, no CSV.
pub struct HmPopulation {
    populations: Vec<Vec<FlowRecord>>,
    reference: Vec<Verdict>,
}

const POPULATIONS: u64 = 8;
const POP_HOSTS: u32 = 5_000;
const POP_FLOWS_PER_HOST: u32 = 8;

impl Workload for HmPopulation {
    fn setup(seed: u64, _: &Path) -> Self {
        let populations: Vec<Vec<FlowRecord>> = (0..POPULATIONS)
            .map(|i| gen::hm_population(seed ^ (i << 40), POP_HOSTS, POP_FLOWS_PER_HOST))
            .collect();
        let mut off = Recorder::new(false);
        let reference = populations
            .iter()
            .map(|p| {
                let table = adapter::build_table(&mut off, p);
                adapter::detect(&table, 1).expect("a population has a verdict")
            })
            .collect();
        HmPopulation {
            populations,
            reference,
        }
    }

    fn digest(&self) -> u64 {
        let csv: Vec<Vec<u8>> = self
            .populations
            .iter()
            .map(|p| adapter::to_csv(p))
            .collect();
        digest_all(&csv)
    }

    fn pass(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        for (i, (pop, want)) in self.populations.iter().zip(&self.reference).enumerate() {
            rec.set_request(tally.passes * POPULATIONS + i as u64);
            let t = Instant::now();
            let ok = rec.span("harness", |rec| {
                let table = adapter::build_table(rec, pop);
                let got = detect(rec, tally, &table);
                adapter::release(rec, "table.build", table);
                got.as_ref() == Some(want)
            });
            tally.verdict_ms.push(ms_since(t));
            tally.flows += pop.len() as u64;
            tally.verdict(ok);
        }
    }
}

/// stream-slide: campus days, parsed in setup, placed back to back and fed
/// with seeded disorder through 2 h windows sliding by 30 min.
pub struct StreamSlide {
    feed: Vec<FlowRecord>,
    reference: Vec<WindowReport>,
    checkpoint: PathBuf,
}

const WINDOW: SimDuration = SimDuration::from_hours(2);
const SLIDE: SimDuration = SimDuration::from_mins(30);
const LATENESS: SimDuration = SimDuration::from_mins(10);
/// Checkpoints are taken each time the stream's watermark passes a
/// multiple of this much stream time, so the state each snapshot holds
/// does not shift with how many flows a seed's days contain.
const CHECKPOINT_EVERY_MS: u64 = SimDuration::from_hours(2).as_millis();
const CHECKPOINT_RETAIN: usize = 2;
/// The checkpoint the engine is restored from once per pass: the first at
/// or after the feed's midpoint (the second day starts at 15:00).
const RESTORE_AT_MS: u64 = SimDuration::from_hours(15).as_millis();
/// Length of a campus day's monitoring window. Each stream day starts where
/// the previous one ends, so the feed is continuous and every window but
/// the first and last few covers a full two hours of traffic: the window
/// sizes, and with them the median close, then barely change between seeds.
const DAY_SPAN: SimDuration = SimDuration::from_hours(6);

fn new_engine() -> Engine {
    adapter::engine(WINDOW, SLIDE, LATENESS)
}

impl Workload for StreamSlide {
    fn setup(seed: u64, scratch: &Path) -> Self {
        let mut off = Recorder::new(false);
        let mut days = Vec::new();
        for (d, bytes) in campus_csv(seed, STREAM_SCALE, STREAM_DAYS)
            .iter()
            .enumerate()
        {
            let (flows, _) = adapter::parse_csv(&mut off, bytes);
            days.extend(gen::shift(
                &flows,
                SimDuration::from_millis(d as u64 * DAY_SPAN.as_millis()),
            ));
        }
        let feed = gen::disorder(&days, LATENESS, seed ^ 0xD150_2DE2);
        let mut engine = new_engine();
        let mut reference = Vec::new();
        for f in &feed {
            reference.extend(adapter::push(&mut engine, *f));
        }
        reference.extend(adapter::finish(&mut engine));
        StreamSlide {
            feed,
            reference,
            checkpoint: scratch.join("engine.ckpt"),
        }
    }

    fn digest(&self) -> u64 {
        fnv1a(FNV_OFFSET, &adapter::to_csv(&self.feed))
    }

    fn pass(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        let traced = rec.is_on();
        rec.set_request(0);
        let reports = rec.span("harness", |rec| {
            let mut engine = new_engine();
            let mut reports: Vec<WindowReport> = Vec::new();
            let mut watermark = 0;
            let mut next_checkpoint = 0;
            let mut restored = false;
            let mut run_start = Instant::now();
            for f in &self.feed {
                let t = Instant::now();
                let closed = adapter::push(&mut engine, *f);
                if !closed.is_empty() {
                    let end = Instant::now();
                    tally.verdict_ms.push((end - t).as_secs_f64() * 1e3);
                    if traced {
                        rec.record("stream.push", run_start, t);
                        rec.record("stream.close", t, end);
                        rec.set_request(closed.last().map_or(0, |w| w.index + 1));
                        run_start = end;
                    }
                    reports.extend(closed);
                }
                if traced {
                    tally.peak(
                        "stream.held_flows_peak",
                        adapter::held_flows(&engine) as f64,
                    );
                }
                watermark = watermark.max(f.start.as_millis());
                if next_checkpoint == 0 {
                    next_checkpoint = (watermark / CHECKPOINT_EVERY_MS + 1) * CHECKPOINT_EVERY_MS;
                }
                if watermark >= next_checkpoint {
                    next_checkpoint = (watermark / CHECKPOINT_EVERY_MS + 1) * CHECKPOINT_EVERY_MS;
                    if traced {
                        rec.record("stream.push", run_start, Instant::now());
                    }
                    let held = adapter::held_flows(&engine);
                    let bytes = adapter::write_engine_checkpoint(
                        rec,
                        &engine,
                        &self.checkpoint,
                        CHECKPOINT_RETAIN,
                    );
                    if !restored && watermark >= RESTORE_AT_MS {
                        restored = true;
                        drop(engine);
                        engine = adapter::restore_engine(rec, &self.checkpoint, CHECKPOINT_RETAIN);
                    }
                    if traced {
                        tally.add("checkpoint.count", 1.0);
                        tally.add("checkpoint.bytes", bytes as f64);
                        tally.add("checkpoint.held_flows", held as f64);
                    }
                    run_start = Instant::now();
                }
            }
            if traced {
                rec.record("stream.push", run_start, Instant::now());
            }
            reports.extend(rec.span("stream.close", |_| adapter::finish(&mut engine)));
            if traced {
                tally.add("stream.accepted", adapter::accepted_flows(&engine) as f64);
            }
            reports
        });
        if traced {
            tally.add("stream.windows", reports.len() as f64);
            tally.add(
                "stream.held_copies",
                reports.iter().map(|w| w.flows as f64).sum(),
            );
        }
        tally.flows += self.feed.len() as u64;
        let matched = reports.len() == self.reference.len();
        for (i, w) in reports.iter().enumerate() {
            let clean = w.late == 0 && w.dropped == 0 && w.quarantined == 0;
            tally.verdict(matched && clean && self.reference.get(i) == Some(w));
        }
        if !matched {
            tally.verdict(false);
        }
    }
}

/// serve-loopback: an in-process server fed by two exporter threads.
pub struct ServeLoopback {
    halves: [Vec<FlowRecord>; 2],
    flows: u64,
    csv: Vec<u8>,
    /// The `taus` and `suspect` lines a correct `REPORT` carries.
    expected: Vec<String>,
}

/// A smaller campus than the batch days, so one round stays short enough
/// for a run to collect a few hundred `FINISH` round trips; bots carry most
/// of its flows, as in the other workloads.
const SERVE_SCALE: CampusScale = CampusScale {
    background: 30,
    gnutella: 2,
    emule: 2,
    bittorrent: 3,
    storm: 3,
    nugache: 10,
};

/// The host a flow is striped by: its internal endpoint.
fn stripe(f: &FlowRecord) -> usize {
    let host = if adapter::is_internal(f.src) {
        f.src
    } else {
        f.dst
    };
    (u32::from(host) % 2) as usize
}

fn report_lines(v: &Verdict) -> Vec<String> {
    std::iter::once(v.taus_line())
        .chain(v.suspects.iter().map(|ip| format!("suspect {ip}")))
        .collect()
}

impl Workload for ServeLoopback {
    fn setup(seed: u64, _: &Path) -> Self {
        let csv = adapter::to_csv(&adapter::campus_day(seed, BOT_SEED, 0, SERVE_SCALE));
        let mut off = Recorder::new(false);
        let (flows, _) = adapter::parse_csv(&mut off, &csv);
        let table = adapter::build_table(&mut off, &flows);
        let want = adapter::detect(&table, 1).expect("a campus day has a verdict");
        let mut halves = [Vec::new(), Vec::new()];
        for f in &flows {
            halves[stripe(f)].push(*f);
        }
        ServeLoopback {
            halves,
            flows: flows.len() as u64,
            csv,
            expected: report_lines(&want),
        }
    }

    fn digest(&self) -> u64 {
        fnv1a(FNV_OFFSET, &self.csv)
    }

    fn pass(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        rec.set_request(tally.passes);
        let traced = rec.is_on();
        let (ok, finish_ms) = rec.span("harness", |rec| {
            // Every flow sits in one 24 h window and the lateness bound
            // spans the whole day, so however the two exporters interleave
            // no flow is late and FINISH closes the window.
            let day = SimDuration::from_hours(24);
            let server = rec.span("server.lifecycle", |_| adapter::start_server(day, day));
            let addr = server.addr;
            let sent: Vec<Result<SendReport, String>> = rec.span("client.send", |_| {
                std::thread::scope(|s| {
                    let handles: Vec<_> = self
                        .halves
                        .iter()
                        .enumerate()
                        .map(|(i, half)| s.spawn(move || adapter::send(addr, i as u32 + 1, half)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|_| Err("exporter panicked".into())))
                        .collect()
                })
            });
            let t = Instant::now();
            let finish = rec.span("server.finish", |_| adapter::query(addr, "FINISH"));
            let finish_ms = ms_since(t);
            let report = rec.span("server.report", |_| adapter::query(addr, "REPORT"));
            if traced {
                let stats = rec.span("server.stats", |_| adapter::query(addr, "STATS"));
                for (key, field) in [
                    ("server.accepted", "accepted="),
                    ("server.profile_bytes", "profile_bytes="),
                ] {
                    tally.add(key, stat_field(&stats, field));
                }
                for r in sent.iter().flatten() {
                    tally.add("client.reconnects", r.reconnects as f64);
                    tally.add("client.retries", r.retries as f64);
                }
            }
            let stopped = rec.span("server.lifecycle", |_| server.stop());
            let delivered = sent
                .iter()
                .all(|r| r.as_ref().is_ok_and(|r| r.skipped == 0));
            let verdict: Vec<String> = report
                .iter()
                .filter(|l| l.starts_with("taus ") || l.starts_with("suspect "))
                .cloned()
                .collect();
            let clean = report
                .first()
                .is_some_and(|h| h.contains(" late=0 dropped=0 quarantined=0 "));
            let ok = delivered
                && stopped.is_ok()
                && clean
                && finish == ["ok windows=1"]
                && verdict == self.expected;
            (ok, finish_ms)
        });
        tally.verdict_ms.push(finish_ms);
        tally.flows += self.flows;
        tally.verdict(ok);
    }
}

/// A numeric `key=value` field of a `STATS` line.
fn stat_field(lines: &[String], field: &str) -> f64 {
    lines
        .first()
        .and_then(|l| l.split(' ').find_map(|kv| kv.strip_prefix(field)))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: CampusScale = CampusScale {
        background: 20,
        gnutella: 1,
        emule: 1,
        bittorrent: 1,
        storm: 1,
        nugache: 2,
    };

    #[test]
    fn campus_days_are_a_pure_function_of_the_seed() {
        let day = |seed| adapter::to_csv(&adapter::campus_day(seed, BOT_SEED, 0, TINY));
        let a = day(1);
        assert_eq!(a, day(1));
        assert_ne!(a, day(2));
    }

    #[test]
    fn stats_fields_parse_and_default_to_zero() {
        let lines = vec!["stats attempted=5 accepted=4 profile_bytes=960".to_owned()];
        assert_eq!(stat_field(&lines, "accepted="), 4.0);
        assert_eq!(stat_field(&lines, "profile_bytes="), 960.0);
        assert_eq!(stat_field(&lines, "held="), 0.0);
    }
}
