//! Seeded end-to-end and per-layer benchmark for peerwatch.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-days --seed 1 --seconds 15 --trace 0
//! ```
//!
//! A run sets its workload up five times (reporting the median as
//! `setup_s`), then measures whole passes over the inputs for `--seconds`
//! with tracing off. With `--trace 1` it measures half the time untraced
//! and half traced, and reports the per-layer metrics instead. The last
//! line of standard output is one JSON object; the spans of a traced run
//! are written under `perfbench/out/`.

mod adapter;
mod gen;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Recorder;
use workloads::{BatchDays, HmPopulation, ServeLoopback, StreamSlide, Tally, Workload};

const WORKLOADS: [&str; 4] = [
    "batch-days",
    "stream-slide",
    "serve-loopback",
    "hm-population",
];

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// One metric value with its unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The measured phase: passes until `budget` has elapsed.
fn measure<W: Workload>(w: &mut W, rec: &mut Recorder, budget: Duration) -> (Tally, f64) {
    let mut tally = Tally::default();
    let t0 = Instant::now();
    while tally.passes == 0 || t0.elapsed() < budget {
        let (flows, t) = (tally.flows, Instant::now());
        w.pass(rec, &mut tally);
        let rate = (tally.flows - flows) as f64 / t.elapsed().as_secs_f64();
        tally.pass_flows_per_s.push(rate);
        tally.passes += 1;
    }
    (tally, t0.elapsed().as_secs_f64())
}

fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak-RSS mark so it covers the measured phase only.
fn reset_vm_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Span self times that make up the per-layer `_ms` metrics.
const LAYER_TIMES: [(&str, &str); 19] = [
    ("csvio.parse", "csvio.parse_ms"),
    ("table.build", "table.build_ms"),
    ("features.extract", "features.extract_ms"),
    ("reduction", "reduction.ms"),
    ("theta_vol", "theta_vol.ms"),
    ("theta_churn", "theta_churn.ms"),
    ("theta_hm", "theta_hm.ms"),
    ("stream.push", "stream.push_ms"),
    ("stream.close", "stream.close_ms"),
    ("checkpoint.snapshot", "checkpoint.snapshot_ms"),
    ("checkpoint.serialize", "checkpoint.serialize_ms"),
    ("checkpoint.write", "checkpoint.write_ms"),
    ("checkpoint.restore", "checkpoint.restore_ms"),
    ("client.send", "client.send_ms"),
    ("server.finish", "server.finish_ms"),
    ("server.report", "server.report_ms"),
    ("server.stats", "server.stats_ms"),
    ("server.lifecycle", "server.lifecycle_ms"),
    ("harness", "harness.ms"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced run, per pass over the inputs.
fn layer_metrics(
    traced: &Tally,
    rec: &Recorder,
    traced_wall: f64,
    untraced: (&Tally, f64),
) -> Metrics {
    let passes = traced.passes as f64;
    let self_ns = trace::self_times(rec.spans());
    let ms = |span: &str| self_ns.get(span).copied().unwrap_or(0) as f64 / 1e6;
    let mut m = Metrics::new();
    let mut layer_ns = 0.0;
    for (span, metric) in LAYER_TIMES {
        m.insert(metric.into(), (ms(span) / passes, "ms"));
        if span != "harness" {
            layer_ns += ms(span) * 1e6;
        }
    }
    let per_pass = |key: &str| traced.sum(key) / passes;
    let mut put = |name: &str, v: f64, unit: &'static str| m.insert(name.into(), (v, unit));
    put("csvio.rows", per_pass("csvio.rows"), "count");
    put(
        "csvio.rows_rejected",
        per_pass("csvio.rows_rejected"),
        "count",
    );
    put(
        "csvio.mb_per_s",
        ratio(traced.sum("csvio.bytes") / 1e6, ms("csvio.parse") / 1e3),
        "MB/s",
    );
    put("table.hosts", per_pass("table.hosts"), "count");
    put("features.hosts", per_pass("features.hosts"), "count");
    put(
        "features.profile_bytes_per_host",
        ratio(
            traced.sum("features.profile_bytes"),
            traced.sum("features.hosts"),
        ),
        "B",
    );
    put("reduction.kept", per_pass("reduction.kept"), "count");
    put("theta_hm.hosts", per_pass("theta_hm.hosts"), "count");
    for (key, name) in [
        ("theta_hm.hist", "theta_hm.hist_ms"),
        ("theta_hm.fill", "theta_hm.fill_ms"),
        ("theta_hm.linkage", "theta_hm.linkage_ms"),
        ("theta_hm.cut", "theta_hm.cut_ms"),
    ] {
        put(name, per_pass(key) / 1e6, "ms");
    }
    put("stream.windows", per_pass("stream.windows"), "count");
    put(
        "stream.held_flows_peak",
        traced.max("stream.held_flows_peak"),
        "count",
    );
    put(
        "stream.fanout",
        ratio(
            traced.sum("stream.held_copies"),
            traced.sum("stream.accepted"),
        ),
        "ratio",
    );
    put("checkpoint.count", per_pass("checkpoint.count"), "count");
    put(
        "checkpoint.bytes",
        ratio(
            traced.sum("checkpoint.bytes"),
            traced.sum("checkpoint.count"),
        ),
        "B",
    );
    put(
        "checkpoint.bytes_per_held_flow",
        ratio(
            traced.sum("checkpoint.bytes"),
            traced.sum("checkpoint.held_flows"),
        ),
        "B",
    );
    put("client.reconnects", per_pass("client.reconnects"), "count");
    put("client.retries", per_pass("client.retries"), "count");
    put("server.accepted", per_pass("server.accepted"), "count");
    put(
        "server.profile_bytes",
        per_pass("server.profile_bytes"),
        "B",
    );
    let (plain, plain_wall) = untraced;
    let plain_pass = plain_wall / plain.passes as f64;
    let traced_pass = traced_wall / passes;
    put(
        "trace.overhead_pct",
        100.0 * (traced_pass - plain_pass) / plain_pass,
        "%",
    );
    put(
        "trace.unattributed_pct",
        100.0 * (traced_wall * 1e9 - layer_ns) / (traced_wall * 1e9),
        "%",
    );
    m
}

fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run<W: Workload>(args: &Args) -> Result<ExitCode, String> {
    let out = scratch_dir();
    let scratch = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;

    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take());
        let t = Instant::now();
        let fresh = W::setup(args.seed, &scratch);
        setup_s.push(t.elapsed().as_secs_f64());
        digests.push(fresh.digest());
        w = Some(fresh);
    }
    let mut w = w.expect("at least one setup");
    let deterministic = digests.windows(2).all(|d| d[0] == d[1]);

    let budget = Duration::from_secs(args.seconds);
    let plain_budget = if args.trace { budget / 2 } else { budget };
    reset_vm_hwm();
    let (mut plain, plain_wall) = measure(&mut w, &mut Recorder::new(false), plain_budget);
    let peak_rss_mb = vm_hwm_mib();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {} seed {} input digest {:016x}",
        args.workload, args.seed, digests[0]
    );
    let metrics = if args.trace {
        let mut rec = Recorder::new(true);
        let (traced, traced_wall) = measure(&mut w, &mut rec, budget - plain_budget);
        plain.attempted += traced.attempted;
        plain.failed += traced.failed;
        let path = out.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, rec.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let _ = writeln!(report, "spans written to {}", path.display());
        layer_metrics(&traced, &rec, traced_wall, (&plain, plain_wall))
    } else {
        let verdicts = &plain.verdict_ms;
        let p50 = stats::median(verdicts).ok_or("no verdicts measured")?;
        let tail = stats::tail(verdicts).ok_or_else(|| {
            format!(
                "{} verdicts cannot support a tail percentile",
                verdicts.len()
            )
        })?;
        let [q1, _, q3] = stats::quartiles(verdicts).unwrap_or([p50; 3]);
        let _ = writeln!(
            report,
            "verdict_ms_tail is p{} over {} samples ({} beyond it); quartiles {q1:.3}..{q3:.3} ms",
            tail.percentile, tail.samples, tail.beyond
        );
        let (attempted, failed) = (plain.attempted, plain.failed);
        let error_rate = ratio(failed as f64, attempted as f64);
        let _ = writeln!(
            report,
            "error_rate = {error_rate} ratio ({failed} of {attempted})"
        );
        [
            ("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s"),
            (
                "flows_per_s",
                stats::median(&plain.pass_flows_per_s).unwrap_or(0.0),
                "flows/s",
            ),
            ("verdict_ms_p50", p50, "ms"),
            ("verdict_ms_tail", tail.value, "ms"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
        .into_iter()
        .map(|(name, v, unit)| (name.to_owned(), (v, unit)))
        .collect()
    };
    std::fs::remove_dir_all(&scratch).map_err(|e| format!("remove {}: {e}", scratch.display()))?;

    for (name, (v, unit)) in &metrics {
        let _ = writeln!(report, "{name} = {v} {unit}");
    }
    if !deterministic {
        let _ = writeln!(report, "setups disagree on the input digest: {digests:x?}");
    }
    print!("{report}");
    let (attempted, failed) = (plain.attempted, plain.failed);
    let correct = deterministic && failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// A finite JSON number; non-finite values (never expected) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "batch-days" => run::<BatchDays>(&args),
        "stream-slide" => run::<StreamSlide>(&args),
        "serve-loopback" => run::<ServeLoopback>(&args),
        _ => run::<HmPopulation>(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::FAILURE
    })
}
