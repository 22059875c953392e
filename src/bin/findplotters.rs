//! Run the paper's `FindPlotters` detector over a flow-record CSV.
//!
//! ```sh
//! cargo run --release --bin findplotters -- flows.csv \
//!     [--internal CIDR]... [--truth hosts.csv] \
//!     [--tau-vol P] [--tau-churn P] [--tau-hm P] [--no-reduction] \
//!     [--theta-hm-mode exact|bucketed[:EB:TB:Q:R]] [--hm-profile] \
//!     [--threads N] [--window HOURS [--slide HOURS] [--lateness MINS]] \
//!     [--max-flows N] [--dedupe] [--reject-invalid] [--quarantine FILE] \
//!     [--profile-tier exact|sketched] \
//!     [--checkpoint FILE [--checkpoint-every N] [--checkpoint-retain N] [--resume]]
//! ```
//!
//! `--internal` defaults to the synthetic campus subnets
//! (`10.1.0.0/16`, `10.2.0.0/16`). With `--truth` (a `gen-campus`
//! `hosts.csv`) detection is scored against ground truth.
//!
//! Without `--window` the whole file is one batch detection run, and the
//! flags only the engine reads (`--slide`, `--lateness`, `--max-flows`,
//! `--dedupe`, `--reject-invalid` and `--checkpoint`) are argument errors.
//! With `--window H` the flows are replayed through the streaming
//! [`DetectionEngine`] in tumbling (or, with `--slide`, sliding) windows,
//! printing one verdict per window. The replay runs in canonical order
//! (start time first), so no flow is ever late there: `--lateness` only
//! sets how long flows wait in the engine's reorder buffer, and so what a
//! checkpoint holds, and never changes a verdict.
//!
//! Malformed CSV rows never abort the run: they are counted, reported, and
//! (with `--quarantine`) written to a sink file with their line numbers.
//! In streaming mode, `--checkpoint FILE` snapshots the engine atomically
//! every `--checkpoint-every` flows (default 10000), keeping
//! `--checkpoint-retain` previous snapshots (default 2, at most 64) behind the
//! primary; a later run with `--resume` revives the engine from the
//! newest snapshot whose checksum verifies — falling back along the
//! retained chain past torn or bit-flipped files — and skips the part of
//! the file it already processed, producing the same verdicts as an
//! uninterrupted run. `--checkpoint-every`, `--checkpoint-retain` and
//! `--resume` without `--checkpoint` are argument errors in every mode,
//! `serve` included.
//!
//! `--profile-tier sketched` switches per-host profiles to the
//! bounded-memory sketch representation (see `pw-sketch`): each host costs
//! a fixed number of bytes however many destinations it contacts, at the
//! price of approximate distinct counts on hosts above the sketch caps.
//!
//! `--theta-hm-mode bucketed[:EB:TB:Q:R]` enables the sub-quadratic `θ_hm`
//! clustering path (quantile-embedding + coarse bucketing) for populations
//! of at least `EB` hosts (default 8192; smaller populations always run
//! the exact path, bit-identically). `--hm-profile` attaches a per-stage
//! wall-clock split to each verdict's `θ_hm` outcome.
//!
//! Three subcommands run detection as a service (see `pw-server`):
//!
//! ```sh
//! findplotters serve --bind ADDR [--internal CIDR]... [engine knobs] \
//!     [--checkpoint FILE] [--checkpoint-every N] [--checkpoint-retain N] \
//!     [--queue-depth N] [--io-timeout SECS]
//! findplotters send <flows.csv> --connect ADDR --exporter ID \
//!     [--cuts N --seed S] \
//!     [--retry N] [--backoff-base-ms N] [--backoff-cap-ms N] \
//!     [--chaos-conns N --chaos-flips N [--chaos-cut] [--chaos-stall-ms N]]
//! findplotters query --connect ADDR CMD...
//! ```
//!
//! `serve` prints `listening on ADDR` (bind to port 0 for an ephemeral
//! port) and blocks until a `SHUTDOWN` query. Its sockets carry an I/O
//! deadline (`--io-timeout`, default 30 s, `0` disables) so a stalled
//! peer is reaped instead of pinning a thread, and its checkpoints keep
//! `--checkpoint-retain` previous snapshots (default 2, at most 64) for fallback
//! recovery when the newest one is torn or corrupt. `send` streams a CSV
//! as one border exporter, optionally severing the connection after
//! `--cuts` seeded positions to exercise reconnect resume; `--retry N`
//! turns on reconnect-with-backoff for transport failures (capped
//! exponential delay from `--backoff-base-ms`, bounded by
//! `--backoff-cap-ms`, jittered deterministically from `--seed`). The
//! `--chaos-*` flags interpose a seeded byte-level chaos proxy (see
//! `pw-chaos`) between this exporter and the server — the first
//! `--chaos-conns` connections get `--chaos-flips` bit flips each, plus
//! optionally a mid-frame cut and a stall — so the frame CRC, sever, and
//! retry machinery can be exercised from the command line.
//! `query` sends text commands (`STATS`, `REPORT`, `FINISH`,
//! `CHECKPOINT`, `HEALTH`, `SHUTDOWN`) and prints each response.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::Write;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Duration;

use peerwatch::chaos::{ChaosProxy, ConnPlan, ProxyFaults};
use peerwatch::detect::checkpoint::{
    chain_exists, read_checkpoint_recover, write_text_retained, MAX_CHECKPOINT_RETAIN,
};
use peerwatch::detect::stream::{DetectionEngine, EngineConfig};
use peerwatch::detect::{
    try_find_plotters_table_tier, ConfigError, Error, FindPlottersConfig, PlotterReport,
    ProfileTier, ThetaHmMode, Threshold,
};
use peerwatch::flow::csvio::{push_flow, read_flows_lossy, RowError, READ_CAPACITY};
use peerwatch::flow::{FlowRecord, FlowTable};
use peerwatch::netsim::{SimDuration, Subnet};
use peerwatch::server::{send_flows, SendOptions, Server, ServerConfig};
use peerwatch::{errln, outln, stdout_ok};

fn usage() -> ! {
    errln!(
        "usage: findplotters <flows.csv> [--internal CIDR]... [--truth hosts.csv] \
         [--tau-vol P] [--tau-churn P] [--tau-hm P] [--no-reduction] \
         [--theta-hm-mode exact|bucketed[:EB:TB:Q:R]] [--hm-profile] \
         [--threads N] [--window HOURS [--slide HOURS] [--lateness MINS]] \
         [--max-flows N] [--dedupe] [--reject-invalid] [--quarantine FILE] \
         [--profile-tier exact|sketched] \
         [--checkpoint FILE [--checkpoint-every N] [--checkpoint-retain N] [--resume]]\n\
         \x20      findplotters serve --bind ADDR [--internal CIDR]... [engine knobs] \
         [--checkpoint FILE] [--checkpoint-every N] [--checkpoint-retain N] \
         [--queue-depth N] [--io-timeout SECS]\n\
         \x20      findplotters send <flows.csv> --connect ADDR --exporter ID \
         [--cuts N --seed S] [--retry N] [--backoff-base-ms N] \
         [--backoff-cap-ms N] [--chaos-conns N --chaos-flips N [--chaos-cut] \
         [--chaos-stall-ms N]]\n\
         \x20      findplotters query --connect ADDR CMD..."
    );
    std::process::exit(2)
}

/// Prints an argument error with the offending flag/value and exits.
fn bad_arg(msg: &str) -> ! {
    errln!("findplotters: {msg}");
    usage()
}

/// Refuses a configuration as an argument error, naming the flag behind a
/// knob past its cap.
fn bad_config(what: &str, e: ConfigError) -> ! {
    let (flag, value) = match e {
        ConfigError::TooManyRetained(n) => ("--checkpoint-retain", n),
        ConfigError::QueueTooDeep { depth, .. } => ("--queue-depth", depth),
        _ => bad_arg(&format!("invalid {what}: {e}")),
    };
    bad_arg(&format!(
        "invalid value {:?} for {flag}: {e}",
        value.to_string()
    ))
}

/// Refuses `knob`, the first flag given that tunes `--checkpoint FILE`,
/// when no checkpoint file was given.
fn require_checkpoint(checkpoint: bool, knob: Option<&str>) {
    if let (false, Some(flag)) = (checkpoint, knob) {
        bad_arg(&format!("{flag} requires --checkpoint FILE"));
    }
}

/// Prints a runtime error and exits nonzero.
fn fail(msg: &str) -> ! {
    errln!("findplotters: {msg}");
    std::process::exit(1)
}

fn next_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| bad_arg(&format!("{flag} requires a value")))
        .clone()
}

fn parse_f64(flag: &str, v: &str) -> f64 {
    v.parse().unwrap_or_else(|_| {
        bad_arg(&format!(
            "invalid value {v:?} for {flag}: expected a number"
        ))
    })
}

fn parse_usize(flag: &str, v: &str) -> usize {
    v.parse().unwrap_or_else(|_| {
        bad_arg(&format!(
            "invalid value {v:?} for {flag}: expected a non-negative integer"
        ))
    })
}

/// Parses a duration flag given in `unit`s of `unit_secs` seconds each.
/// Refuses, as an argument error, a value that is not finite, is negative,
/// or whose milliseconds overflow a `u64`: `SimDuration` would clamp it,
/// and `Duration::from_secs_f64` panics on it.
fn parse_duration(flag: &str, v: &str, unit_secs: f64, unit: &str) -> f64 {
    let units = parse_f64(flag, v);
    let ms = (units * unit_secs * 1000.0).round();
    // NaN fails both comparisons; `u64::MAX as f64` is 2^64.
    if !(ms >= 0.0 && ms < u64::MAX as f64) {
        bad_arg(&format!(
            "invalid value {v:?} for {flag}: expected a non-negative number of {unit} \
             whose milliseconds fit in 64 bits"
        ));
    }
    units
}

fn parse_tier(v: &str) -> ProfileTier {
    ProfileTier::from_name(v).unwrap_or_else(|| {
        bad_arg(&format!(
            "invalid value {v:?} for --profile-tier: expected exact or sketched"
        ))
    })
}

fn parse_theta_hm_mode(v: &str) -> ThetaHmMode {
    ThetaHmMode::from_name(v).unwrap_or_else(|| {
        bad_arg(&format!(
            "invalid value {v:?} for --theta-hm-mode: expected exact, bucketed, or \
             bucketed:EXACT_BELOW:TARGET_BUCKET:QUANTILES:ROUNDS"
        ))
    })
}

fn parse_cidr(s: &str) -> Subnet {
    let Some((base, prefix)) = s.split_once('/') else {
        bad_arg(&format!(
            "malformed CIDR {s:?}: expected ADDR/PREFIX (e.g. 10.1.0.0/16)"
        ));
    };
    let base: Ipv4Addr = base
        .parse()
        .unwrap_or_else(|e| bad_arg(&format!("malformed CIDR {s:?}: bad address {base:?}: {e}")));
    let prefix: u8 = match prefix.parse() {
        Ok(p) if p <= 32 => p,
        _ => bad_arg(&format!(
            "malformed CIDR {s:?}: prefix {prefix:?} must be an integer in 0..=32"
        )),
    };
    Subnet::new(base, prefix)
}

/// The flags windowed mode and `serve` share, `--internal` through
/// `--profile-tier`: the monitored subnets, the detection thresholds and
/// the engine knobs.
#[derive(Default)]
struct EngineFlags {
    subnets: Vec<Subnet>,
    detect: FindPlottersConfig,
    /// `--window`, which also turns on windowed mode.
    window: Option<SimDuration>,
    /// `--slide`; windows tumble without it.
    slide: Option<SimDuration>,
    /// Every other engine knob, from the library's defaults.
    engine: EngineConfig,
    /// The first flag taken that only the engine reads, `--slide` through
    /// `--reject-invalid`; batch mode refuses it.
    streaming_only: Option<String>,
}

impl EngineFlags {
    /// Takes in `flag`, and its value from `it`, if it is a shared flag;
    /// returns whether it was.
    fn take(&mut self, flag: &str, it: &mut std::slice::Iter<'_, String>) -> bool {
        let mut value = || next_value(it, flag);
        let percentile = |v: String| Threshold::Percentile(parse_f64(flag, &v));
        let duration = |v: String, unit_secs: f64, unit: &str| {
            SimDuration::from_secs_f64(parse_duration(flag, &v, unit_secs, unit) * unit_secs)
        };
        if matches!(
            flag,
            "--slide" | "--lateness" | "--max-flows" | "--dedupe" | "--reject-invalid"
        ) {
            self.streaming_only.get_or_insert_with(|| flag.to_owned());
        }
        let (d, e) = (&mut self.detect, &mut self.engine);
        match flag {
            "--internal" => self.subnets.push(parse_cidr(&value())),
            "--tau-vol" => d.tau_vol = percentile(value()),
            "--tau-churn" => d.tau_churn = percentile(value()),
            "--tau-hm" => d.tau_hm = percentile(value()),
            "--no-reduction" => d.with_reduction = false,
            "--theta-hm-mode" => d.theta_hm.mode = parse_theta_hm_mode(&value()),
            "--hm-profile" => d.theta_hm.profile = true,
            "--threads" => e.threads = parse_usize(flag, &value()),
            "--window" => self.window = Some(duration(value(), 3600.0, "hours")),
            "--slide" => self.slide = Some(duration(value(), 3600.0, "hours")),
            "--lateness" => e.lateness = duration(value(), 60.0, "minutes"),
            "--max-flows" => e.max_flows = Some(parse_usize(flag, &value())),
            "--dedupe" => e.dedupe = true,
            "--reject-invalid" => e.reject_invalid = true,
            "--profile-tier" => e.tier = parse_tier(&value()),
            _ => return false,
        }
        true
    }

    /// The detection configuration; an invalid one is an argument error.
    fn detect(&self) -> FindPlottersConfig {
        if let Err(e) = self.detect.validate() {
            bad_arg(&format!("invalid configuration: {e}"));
        }
        self.detect
    }

    /// The engine configuration running `detect`, with the library's
    /// one-day window unless `--window` sets one.
    fn engine(&self, detect: FindPlottersConfig) -> EngineConfig {
        let window = self.window.unwrap_or(self.engine.window);
        EngineConfig {
            window,
            slide: self.slide.unwrap_or(window),
            detect,
            ..self.engine
        }
    }

    /// Whether an address is monitored: inside an `--internal` subnet, or
    /// by default inside the synthetic campus subnets.
    fn is_internal(&self) -> impl Fn(Ipv4Addr) -> bool + Send + Sync + 'static {
        let subnets = if self.subnets.is_empty() {
            vec![parse_cidr("10.1.0.0/16"), parse_cidr("10.2.0.0/16")]
        } else {
            self.subnets.clone()
        };
        move |ip: Ipv4Addr| subnets.iter().any(|s| s.contains(ip))
    }
}

/// Sink for records the pipeline refused: malformed CSV rows and
/// quarantined flows, each with enough context to find it in the input.
struct Quarantine {
    path: Option<String>,
    out: Option<std::io::BufWriter<fs::File>>,
    written: usize,
}

impl Quarantine {
    fn open(path: Option<&str>) -> Self {
        let out = path.map(|p| {
            let file = fs::File::create(p)
                .unwrap_or_else(|e| fail(&format!("cannot create quarantine file {p}: {e}")));
            std::io::BufWriter::new(file)
        });
        Self {
            path: path.map(str::to_owned),
            out,
            written: 0,
        }
    }

    fn record(&mut self, entry: &str) {
        self.written += 1;
        if let Some(out) = &mut self.out {
            writeln!(out, "{entry}").unwrap_or_else(|e| fail(&format!("quarantine write: {e}")));
        }
    }

    fn row_error(&mut self, e: &RowError) {
        self.record(&format!("{e}"));
    }

    fn finish(mut self) {
        if let Some(out) = &mut self.out {
            out.flush()
                .unwrap_or_else(|e| fail(&format!("quarantine write: {e}")));
        }
        if self.written > 0 {
            if let Some(p) = &self.path {
                errln!("{} records quarantined to {p}", self.written);
            }
        }
    }
}

fn print_report(report: &PlotterReport) {
    outln!("hosts observed:        {}", report.all_hosts.len());
    outln!(
        "after data reduction:  {} (failed-rate > {:.2}%)",
        report.after_reduction.len(),
        report.reduction_threshold * 100.0
    );
    outln!(
        "S_vol:                 {} (τ_vol = {:.0} B/flow)",
        report.s_vol.len(),
        report.tau_vol
    );
    outln!(
        "S_churn:               {} (τ_churn = {:.1}% new IPs)",
        report.s_churn.len(),
        report.tau_churn * 100.0
    );
    outln!("S_vol ∪ S_churn:       {}", report.union.len());
    outln!(
        "θ_hm clusters:         {} (τ_hm = {:.1}s diameter)",
        report.hm.clusters.len(),
        report.hm.tau
    );
    if let Some(p) = &report.hm.profile {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        outln!(
            "θ_hm stage profile:    hist {:.1} ms, embed {:.1} ms, bucket {:.1} ms \
             ({} buckets), fill {:.1} ms, linkage {:.1} ms, cut+diam {:.1} ms",
            ms(p.histograms),
            ms(p.embed),
            ms(p.bucket),
            p.bucket_sizes.len(),
            ms(p.distance_fill),
            ms(p.linkage),
            ms(p.cut_and_diameters),
        );
    }
    outln!("\nsuspected Plotters ({}):", report.suspects.len());
    let mut suspects: Vec<_> = report.suspects.iter().collect();
    suspects.sort();
    for ip in &suspects {
        outln!("  {ip}");
    }
}

/// Loads a flow CSV, lossily, through a reader of csvio's block size,
/// and counts the malformed rows it skipped on stderr, followed by
/// `skipped_hint`. The caller decides what becomes of those rows.
fn load_flows(path: &str, skipped_hint: &str) -> (Vec<FlowRecord>, Vec<RowError>) {
    let file = fs::File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    let (flows, row_errors) =
        read_flows_lossy(std::io::BufReader::with_capacity(READ_CAPACITY, file))
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    if row_errors.is_empty() {
        errln!("loaded {} flows", flows.len());
    } else {
        errln!(
            "loaded {} flows; skipped {} malformed rows{skipped_hint}",
            flows.len(),
            row_errors.len()
        );
    }
    (flows, row_errors)
}

/// `findplotters serve`: run the detection service until `SHUTDOWN`.
#[allow(clippy::too_many_lines)]
fn serve_main(args: &[String]) -> ! {
    let mut bind: Option<String> = None;
    let mut flags = EngineFlags::default();
    let mut server_cfg = ServerConfig::default();
    let mut checkpoint_knob = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        if flags.take(a, &mut it) {
            continue;
        }
        if matches!(a.as_str(), "--checkpoint-every" | "--checkpoint-retain") {
            checkpoint_knob.get_or_insert(a.as_str());
        }
        match a.as_str() {
            "--bind" => bind = Some(next_value(&mut it, a)),
            "--checkpoint" => server_cfg.checkpoint_path = Some(next_value(&mut it, a).into()),
            "--checkpoint-every" => {
                server_cfg.checkpoint_every = parse_usize(a, &next_value(&mut it, a)) as u64;
            }
            "--checkpoint-retain" => {
                server_cfg.checkpoint_retain = parse_usize(a, &next_value(&mut it, a));
            }
            "--queue-depth" => server_cfg.queue_depth = parse_usize(a, &next_value(&mut it, a)),
            "--io-timeout" => {
                let v = next_value(&mut it, a);
                let secs = parse_duration(a, &v, 1.0, "seconds");
                let timeout = Duration::try_from_secs_f64(secs)
                    .unwrap_or_else(|e| bad_arg(&format!("invalid value {v:?} for {a}: {e}")));
                // Zero means "no deadline" on the command line; the config
                // type spells that as None.
                server_cfg.io_timeout = (secs != 0.0).then_some(timeout);
            }
            _ => bad_arg(&format!("unrecognized serve argument {a:?}")),
        }
    }
    let Some(bind) = bind else {
        bad_arg("serve requires --bind ADDR (use port 0 for an ephemeral port)");
    };
    require_checkpoint(server_cfg.checkpoint_path.is_some(), checkpoint_knob);
    server_cfg.engine = flags.engine(flags.detect());
    if let Err(e) = server_cfg.validate() {
        bad_config("server configuration", e);
    }

    let server = Server::bind(bind.as_str(), server_cfg, flags.is_internal())
        .unwrap_or_else(|e| fail(&format!("cannot start server: {e}")));
    outln!("listening on {}", server.local_addr());
    stdout_ok(std::io::stdout().flush());
    server
        .run()
        .unwrap_or_else(|e| fail(&format!("server failed: {e}")));
    std::process::exit(0)
}

/// `findplotters send`: stream a CSV to a running server as one exporter.
#[allow(clippy::too_many_lines)]
fn send_main(args: &[String]) -> ! {
    let mut flows_path: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut exporter: Option<u32> = None;
    let mut cuts: usize = 0;
    let mut seed: u64 = 0;
    let mut opts = SendOptions::default();
    let mut chaos = ProxyFaults::default();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = Some(next_value(&mut it, a)),
            "--exporter" => {
                exporter = Some(
                    u32::try_from(parse_usize(a, &next_value(&mut it, a)))
                        .unwrap_or_else(|_| bad_arg("--exporter must fit in 32 bits")),
                );
            }
            "--cuts" => cuts = parse_usize(a, &next_value(&mut it, a)),
            "--seed" => seed = parse_usize(a, &next_value(&mut it, a)) as u64,
            "--retry" => {
                opts.retry.attempts = u32::try_from(parse_usize(a, &next_value(&mut it, a)))
                    .unwrap_or_else(|_| bad_arg("--retry must fit in 32 bits"));
            }
            "--backoff-base-ms" => {
                opts.retry.backoff_base =
                    Duration::from_millis(parse_usize(a, &next_value(&mut it, a)) as u64);
            }
            "--backoff-cap-ms" => {
                opts.retry.backoff_cap =
                    Duration::from_millis(parse_usize(a, &next_value(&mut it, a)) as u64);
            }
            "--chaos-conns" => chaos.faulty_conns = parse_usize(a, &next_value(&mut it, a)),
            "--chaos-flips" => chaos.flips_per_conn = parse_usize(a, &next_value(&mut it, a)),
            "--chaos-cut" => chaos.cut = true,
            "--chaos-stall-ms" => {
                chaos.stall = Duration::from_millis(parse_usize(a, &next_value(&mut it, a)) as u64);
            }
            _ if flows_path.is_none() && !a.starts_with('-') => flows_path = Some(a.clone()),
            _ => bad_arg(&format!("unrecognized send argument {a:?}")),
        }
    }
    let Some(flows_path) = flows_path else {
        bad_arg("send requires a flows.csv");
    };
    let Some(connect) = connect else {
        bad_arg("send requires --connect ADDR");
    };
    let Some(exporter) = exporter else {
        bad_arg("send requires --exporter ID");
    };
    let (flows, _) = load_flows(&flows_path, "");
    if cuts > 0 {
        opts.plan = ConnPlan::new(seed, flows.len(), cuts);
    }
    // One --seed drives every fault plan: where the cuts land, which bytes
    // the chaos proxy mangles, and how the retry backoff jitters.
    opts.retry.seed = seed;
    chaos.seed = seed;
    let report = if chaos.faulty_conns > 0 {
        // Interpose a byte-level chaos proxy on loopback and stream
        // through it: seeded bit flips, mid-frame cuts, and stalls between
        // this exporter and the server.
        let upstream = std::net::ToSocketAddrs::to_socket_addrs(connect.as_str())
            .ok()
            .and_then(|mut a| a.next())
            .unwrap_or_else(|| fail(&format!("cannot resolve {connect}")));
        let proxy = ChaosProxy::spawn(upstream, chaos)
            .unwrap_or_else(|e| fail(&format!("cannot start chaos proxy: {e}")));
        let report = send_flows(proxy.addr(), exporter, &flows, &opts)
            .unwrap_or_else(|e| fail(&format!("send failed: {e}")));
        let stats = proxy.shutdown();
        errln!(
            "chaos proxy: {} conns, {} flips, {} cuts, {} stalls",
            stats.conns,
            stats.flips,
            stats.cuts,
            stats.stalls
        );
        report
    } else {
        send_flows(connect.as_str(), exporter, &flows, &opts)
            .unwrap_or_else(|e| fail(&format!("send failed: {e}")))
    };
    errln!(
        "exporter {exporter}: {} sent, {} skipped, {} reconnects, {} retries",
        report.sent,
        report.skipped,
        report.reconnects,
        report.retries
    );
    std::process::exit(0)
}

/// `findplotters query`: send text commands and print the responses.
fn query_main(args: &[String]) -> ! {
    let mut connect: Option<String> = None;
    let mut commands: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = Some(next_value(&mut it, a)),
            _ if !a.starts_with('-') => commands.push(a.clone()),
            _ => bad_arg(&format!("unrecognized query argument {a:?}")),
        }
    }
    let Some(connect) = connect else {
        bad_arg("query requires --connect ADDR");
    };
    if commands.is_empty() {
        bad_arg(
            "query requires at least one command \
             (STATS, REPORT, FINISH, CHECKPOINT, HEALTH, SHUTDOWN)",
        );
    }
    let stream = std::net::TcpStream::connect(connect.as_str())
        .unwrap_or_else(|e| fail(&format!("cannot connect to {connect}: {e}")));
    // Deadline both directions: a wedged server fails the query loudly
    // instead of hanging the operator's terminal forever.
    let deadline = Some(std::time::Duration::from_secs(30));
    stream
        .set_read_timeout(deadline)
        .and_then(|()| stream.set_write_timeout(deadline))
        .unwrap_or_else(|e| fail(&format!("cannot set io deadline on {connect}: {e}")));
    let mut reader = std::io::BufReader::new(
        stream
            .try_clone()
            .unwrap_or_else(|e| fail(&format!("socket: {e}"))),
    );
    let mut writer = stream;
    for cmd in &commands {
        writeln!(writer, "{cmd}").unwrap_or_else(|e| fail(&format!("write to {connect}: {e}")));
        // Single-line responses end with `\n`; multi-line REPORT and
        // HEALTH responses end with an `end` line.
        loop {
            let mut line = String::new();
            let n = std::io::BufRead::read_line(&mut reader, &mut line)
                .unwrap_or_else(|e| fail(&format!("read from {connect}: {e}")));
            if n == 0 {
                fail("server closed the connection mid-response");
            }
            stdout_ok(write!(std::io::stdout().lock(), "{line}"));
            let done = !matches!(cmd.as_str(), "REPORT" | "HEALTH")
                || line.trim_end() == "end"
                || line.starts_with("err");
            if done {
                break;
            }
        }
    }
    std::process::exit(0)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve_main(&args[1..]),
        Some("send") => send_main(&args[1..]),
        Some("query") => query_main(&args[1..]),
        _ => {}
    }
    let mut flows_path: Option<String> = None;
    let mut flags = EngineFlags::default();
    let mut truth_path: Option<String> = None;
    let mut quarantine_path: Option<String> = None;
    let mut checkpoint_path: Option<String> = None;
    let mut checkpoint_every: usize = 10_000;
    let mut checkpoint_retain: usize = 2;
    let mut resume = false;
    let mut checkpoint_knob = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        if flags.take(a, &mut it) {
            continue;
        }
        if matches!(
            a.as_str(),
            "--checkpoint-every" | "--checkpoint-retain" | "--resume"
        ) {
            checkpoint_knob.get_or_insert(a.as_str());
        }
        match a.as_str() {
            "--truth" => truth_path = Some(next_value(&mut it, a)),
            "--quarantine" => quarantine_path = Some(next_value(&mut it, a)),
            "--checkpoint" => checkpoint_path = Some(next_value(&mut it, a)),
            "--checkpoint-every" => checkpoint_every = parse_usize(a, &next_value(&mut it, a)),
            "--checkpoint-retain" => checkpoint_retain = parse_usize(a, &next_value(&mut it, a)),
            "--resume" => resume = true,
            _ if flows_path.is_none() && !a.starts_with('-') => flows_path = Some(a.clone()),
            _ => bad_arg(&format!("unrecognized argument {a:?}")),
        }
    }
    let Some(flows_path) = flows_path else {
        bad_arg("missing input file");
    };
    require_checkpoint(checkpoint_path.is_some(), checkpoint_knob);
    if checkpoint_path.is_some() && flags.window.is_none() {
        bad_arg("--checkpoint only applies to streaming mode (--window)");
    }
    if let (None, Some(flag)) = (flags.window, &flags.streaming_only) {
        bad_arg(&format!("{flag} only applies to streaming mode (--window)"));
    }
    if checkpoint_every == 0 {
        bad_arg("--checkpoint-every must be at least 1");
    }
    if checkpoint_retain > MAX_CHECKPOINT_RETAIN {
        bad_config(
            "configuration",
            ConfigError::TooManyRetained(checkpoint_retain),
        );
    }
    let cfg = flags.detect();

    let (flows, row_errors) = load_flows(
        &flows_path,
        if quarantine_path.is_some() {
            ""
        } else {
            " (use --quarantine FILE to capture them)"
        },
    );
    let mut quarantine = Quarantine::open(quarantine_path.as_deref());
    for e in &row_errors {
        quarantine.row_error(e);
    }

    let is_internal = flags.is_internal();

    let report = if flags.window.is_some() {
        // Streaming mode: replay the file through the windowed engine.
        let engine_cfg = flags.engine(cfg);
        let mut engine = match (resume, checkpoint_path.as_deref()) {
            (true, Some(cp)) if chain_exists(Path::new(cp), checkpoint_retain) => {
                let recovered = read_checkpoint_recover(Path::new(cp), checkpoint_retain)
                    .unwrap_or_else(|e| fail(&format!("cannot resume from {cp}: {e}")));
                for (path, err) in &recovered.skipped {
                    errln!("checkpoint {} unusable: {err}", path.display());
                }
                if recovered.fallbacks > 0 {
                    errln!(
                        "resumed from retained snapshot {} steps behind the primary",
                        recovered.fallbacks
                    );
                }
                let snapshot = recovered.snapshot;
                if *snapshot.config() != engine_cfg {
                    errln!(
                        "resuming with the checkpoint's engine configuration \
                         (command-line knobs differ and are ignored)"
                    );
                }
                errln!(
                    "resuming from {cp}: {} flows already processed, watermark {}",
                    snapshot.stats.attempted,
                    snapshot.watermark
                );
                DetectionEngine::restore(&snapshot, is_internal)
                    .unwrap_or_else(|e| fail(&format!("cannot resume from {cp}: {e}")))
            }
            _ => DetectionEngine::new(engine_cfg, is_internal)
                .unwrap_or_else(|e| bad_arg(&format!("invalid engine configuration: {e}"))),
        };
        // The replay position of a resumed run: every input flow is exactly
        // one push attempt, so the checkpoint's attempt counter is the
        // number of sorted flows already consumed.
        let skip = usize::try_from(engine.stats().attempted).unwrap_or(usize::MAX);

        let mut ordered = flows;
        ordered.sort_by_key(FlowRecord::canonical_key);
        if skip > ordered.len() {
            fail(&format!(
                "checkpoint is ahead of {flows_path}: {skip} flows already processed, \
                 file has {}",
                ordered.len()
            ));
        }
        let mut windows = Vec::new();
        let mut since_checkpoint = 0usize;
        for f in ordered.iter().skip(skip).copied() {
            match engine.push(f) {
                Ok(ws) => windows.extend(ws),
                Err(e @ Error::LateFlow { .. }) => errln!("dropped flow: {e}"),
                Err(e @ Error::InvalidRecord(_)) => {
                    let mut row = String::new();
                    push_flow(&mut row, &f);
                    quarantine.record(&format!("{row}: {e}"));
                }
                Err(e) => fail(&format!("engine error: {e}")),
            }
            since_checkpoint += 1;
            if let Some(cp) = checkpoint_path.as_deref() {
                if since_checkpoint >= checkpoint_every {
                    since_checkpoint = 0;
                    write_text_retained(
                        Path::new(cp),
                        &engine.checkpoint().serialize(),
                        checkpoint_retain,
                    )
                    .unwrap_or_else(|e| fail(&format!("cannot write checkpoint {cp}: {e}")));
                }
            }
        }
        if let Some(cp) = checkpoint_path.as_deref() {
            // Final snapshot: a rerun with --resume replays nothing.
            write_text_retained(
                Path::new(cp),
                &engine.checkpoint().serialize(),
                checkpoint_retain,
            )
            .unwrap_or_else(|e| fail(&format!("cannot write checkpoint {cp}: {e}")))
        }
        windows.extend(engine.finish());
        // Every refused record is in the quarantine file before the report
        // starts, so a reader that stops early cannot cut the file short.
        quarantine.finish();

        let mut union_suspects: HashSet<Ipv4Addr> = HashSet::new();
        let mut last_ok: Option<PlotterReport> = None;
        for w in &windows {
            let degraded = if w.late + w.dropped + w.duplicates + w.quarantined > 0 {
                format!(
                    " [late {}, dropped {}, dup {}, quarantined {}]",
                    w.late, w.dropped, w.duplicates, w.quarantined
                )
            } else {
                String::new()
            };
            match &w.outcome {
                Ok(r) => {
                    let mut s: Vec<_> = r.suspects.iter().collect();
                    s.sort();
                    outln!(
                        "window {:>3} [{} .. {}): {} flows, {} hosts, \
                         {} suspects {s:?}{degraded}",
                        w.index,
                        w.start,
                        w.end,
                        w.flows,
                        w.hosts,
                        s.len()
                    );
                    union_suspects.extend(&r.suspects);
                    last_ok = Some(r.clone());
                }
                Err(e) => outln!(
                    "window {:>3} [{} .. {}): {} flows — no verdict: {e}{degraded}",
                    w.index,
                    w.start,
                    w.end,
                    w.flows
                ),
            }
        }
        let s = engine.stats();
        if s.late + s.shed + s.quarantined + s.duplicates > 0 {
            errln!(
                "degraded-mode totals: {} late, {} shed, {} quarantined, {} duplicate rows",
                s.late,
                s.shed,
                s.quarantined,
                s.duplicates
            );
        }
        outln!("\nsuspects across all windows: {}", union_suspects.len());
        let Some(mut report) = last_ok else {
            fail("no window produced a verdict");
        };
        // Score the union of windows against ground truth below.
        report.suspects = union_suspects;
        report
    } else {
        // Intern the whole file into one columnar table; detection borrows
        // it instead of re-scanning and re-hashing addresses per stage.
        let table = FlowTable::from_records(&flows);
        errln!("interned {} hosts", table.hosts().len());
        let report = match try_find_plotters_table_tier(
            &table,
            is_internal,
            &cfg,
            flags.engine.tier,
            flags.engine.threads,
        ) {
            Ok(report) => report,
            // A knob the library refuses, like a thread count past the
            // cap, is an argument error here as in windowed mode.
            Err(Error::Config(e)) => bad_arg(&format!("invalid configuration: {e}")),
            Err(e) => fail(&format!("detection failed: {e}")),
        };
        quarantine.finish();
        print_report(&report);
        report
    };

    if let Some(tp) = truth_path {
        let file = fs::File::open(&tp).unwrap_or_else(|e| fail(&format!("cannot read {tp}: {e}")));
        let rows = peerwatch::data::read_ground_truth(std::io::BufReader::new(file))
            .unwrap_or_else(|e| fail(&format!("cannot parse {tp}: {e}")));
        let implants: HashMap<Ipv4Addr, String> = rows
            .iter()
            .filter_map(|r| r.implant.map(|f| (r.host, f.to_string())))
            .collect();
        let implanted: HashSet<Ipv4Addr> = implants.keys().copied().collect();
        let mut per_family: HashMap<&str, (usize, usize)> = HashMap::new();
        for (ip, fam) in &implants {
            let e = per_family.entry(fam.as_str()).or_default();
            e.1 += 1;
            if report.suspects.contains(ip) {
                e.0 += 1;
            }
        }
        outln!("\nscoring against {tp}:");
        let mut families: Vec<_> = per_family.iter().collect();
        families.sort_by_key(|(fam, _)| *fam);
        for (fam, (hit, total)) in families {
            outln!("  {fam}: {hit}/{total} detected");
        }
        let fp = report.suspects.difference(&implanted).count();
        let negatives = report.all_hosts.difference(&implanted).count();
        outln!(
            "  false positives: {fp}/{negatives} ({:.2}%)",
            fp as f64 / negatives.max(1) as f64 * 100.0
        );
    }
}
