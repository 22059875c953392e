//! Every call the benchmark makes into peerwatch goes through this module,
//! so an API change to the library touches only this file. Spans are
//! recorded here, around the calls, from outside the library.

use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::path::Path;
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::Duration;

use pw_botnet::{generate_nugache_trace, generate_storm_trace, NugacheConfig, StormConfig};
use pw_data::campus::{build_day, CampusConfig};
use pw_data::overlay::overlay_bots;
use pw_detect::checkpoint::{read_checkpoint_recover, write_text_retained};
use pw_detect::{
    extract_profiles_table_par_tier, initial_reduction_view, theta_churn_view, theta_hm_view,
    theta_vol_view, try_find_plotters_table_tier, DetectionEngine, EngineConfig,
    FindPlottersConfig, HmOptions, PlotterReport, ProfileTier, ProfileView,
};
use pw_flow::csvio::{read_flows_lossy, write_flows};
use pw_netsim::AddressSpace;
use pw_server::{send_flows, SendOptions, Server, ServerConfig};

use crate::trace::Recorder;

pub use pw_detect::WindowReport;
pub use pw_flow::{FlowRecord, FlowState, FlowTable, Payload, Proto};
pub use pw_netsim::{SimDuration, SimTime};
pub use pw_server::SendReport;

/// The monitored address space of the synthetic campus.
pub fn is_internal(ip: Ipv4Addr) -> bool {
    static SPACE: OnceLock<AddressSpace> = OnceLock::new();
    SPACE.get_or_init(AddressSpace::campus).is_internal(ip)
}

/// Shape of a generated campus day.
#[derive(Debug, Clone, Copy)]
pub struct CampusScale {
    pub background: usize,
    pub gnutella: usize,
    pub emule: usize,
    pub bittorrent: usize,
    pub storm: usize,
    pub nugache: usize,
}

/// One campus day with implanted Storm and Nugache bots, built in memory
/// the way `gen-campus` builds it. The campus and the choice of implanted
/// hosts come from `seed`, the bot traces from `bot_seed`.
pub fn campus_day(seed: u64, bot_seed: u64, day: usize, scale: CampusScale) -> Vec<FlowRecord> {
    let campus = CampusConfig {
        seed,
        n_background: scale.background,
        n_gnutella: scale.gnutella,
        n_emule: scale.emule,
        n_bittorrent: scale.bittorrent,
        ..CampusConfig::small()
    };
    let dataset = build_day(&campus, day);
    let storm = generate_storm_trace(
        &StormConfig {
            duration: campus.duration,
            day: day as u64,
            n_bots: scale.storm,
            ..StormConfig::default()
        },
        bot_seed ^ 0x5701 ^ day as u64,
    );
    let nugache = generate_nugache_trace(
        &NugacheConfig {
            duration: campus.duration,
            n_bots: scale.nugache,
            ..NugacheConfig::default()
        },
        bot_seed ^ 0x4106 ^ day as u64,
    );
    overlay_bots(&dataset, &[&storm, &nugache], seed ^ day as u64).flows
}

/// Flows as CSV bytes in the format `findplotters` reads.
pub fn to_csv(flows: &[FlowRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    write_flows(&mut out, flows).expect("writing to memory cannot fail");
    out
}

/// Parses CSV bytes; returns the flows and the number of rejected rows.
pub fn parse_csv(rec: &mut Recorder, csv: &[u8]) -> (Vec<FlowRecord>, usize) {
    rec.span("csvio.parse", |_| {
        let (flows, bad) = read_flows_lossy(csv).expect("generated CSV has a valid header");
        (flows, bad.len())
    })
}

pub fn build_table(rec: &mut Recorder, flows: &[FlowRecord]) -> FlowTable {
    rec.span("table.build", |_| FlowTable::from_records(flows))
}

/// Frees `value` inside a span of the layer that built it, so releasing
/// a layer's output counts as that layer's work.
pub fn release<T>(rec: &mut Recorder, layer: &'static str, value: T) {
    rec.span(layer, |_| drop(value));
}

pub fn table_hosts(table: &FlowTable) -> usize {
    table.hosts().len()
}

/// What a verdict is checked on: the suspect set and the four resolved
/// thresholds as IEEE-754 bit patterns (reduction, vol, churn, hm).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub suspects: Vec<Ipv4Addr>,
    pub taus: [u64; 4],
}

impl Verdict {
    fn of(r: &PlotterReport) -> Self {
        let mut suspects: Vec<Ipv4Addr> = r.suspects.iter().copied().collect();
        suspects.sort_unstable();
        Verdict {
            suspects,
            taus: [
                r.reduction_threshold.to_bits(),
                r.tau_vol.to_bits(),
                r.tau_churn.to_bits(),
                r.hm.tau.to_bits(),
            ],
        }
    }

    /// The `taus` line of a server `REPORT`.
    pub fn taus_line(&self) -> String {
        let [r, v, c, h] = self.taus;
        format!("taus reduction={r:016x} vol={v:016x} churn={c:016x} hm={h:016x}")
    }
}

/// The library's one-call batch verdict on the exact tier. Untimed: the
/// untraced run times it as a whole.
pub fn detect(table: &FlowTable, threads: usize) -> Result<Verdict, String> {
    try_find_plotters_table_tier(
        table,
        is_internal,
        &FindPlottersConfig::default(),
        ProfileTier::Exact,
        threads,
    )
    .map(|r| Verdict::of(&r))
    .map_err(|e| e.to_string())
}

/// Counters the staged path observes on the way to its verdict.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCounts {
    pub hosts: usize,
    pub profile_bytes: usize,
    pub kept: usize,
    pub hm_hosts: usize,
    /// The library's own θ_hm substage timings, in nanoseconds:
    /// histograms, distance fill, linkage, cut and diameters.
    pub hm_ns: [u64; 4],
}

/// The same verdict as [`detect`], computed stage by stage through the
/// public `*_view` functions so each stage gets its own span. The stage
/// order and arguments follow the library's own pipeline with its default
/// configuration.
pub fn detect_staged(
    rec: &mut Recorder,
    table: &FlowTable,
    threads: usize,
) -> Result<(Verdict, StageCounts), String> {
    let cfg = FindPlottersConfig::default();
    let profiles = rec.span("features.extract", |_| {
        extract_profiles_table_par_tier(table, is_internal, ProfileTier::Exact, threads)
    });
    let view = ProfileView::from_table(&profiles);
    if view.is_empty() {
        return Err("empty window".to_owned());
    }
    let mut counts = StageCounts {
        hosts: profiles.len(),
        profile_bytes: profiles
            .profiles()
            .iter()
            .map(|p| p.estimated_bytes())
            .sum(),
        ..StageCounts::default()
    };
    let (reduced, reduction_threshold) = rec.span("reduction", |_| initial_reduction_view(&view));
    counts.kept = reduced.count();
    let (s_vol, tau_vol) = rec
        .span("theta_vol", |_| {
            theta_vol_view(&view, &reduced, cfg.tau_vol, threads)
        })
        .ok_or("theta_vol threshold unresolvable")?;
    let (s_churn, tau_churn) = rec
        .span("theta_churn", |_| {
            theta_churn_view(&view, &reduced, cfg.tau_churn, threads)
        })
        .ok_or("theta_churn threshold unresolvable")?;
    let hm = rec.span("theta_hm", |_| {
        let union = s_vol.union(&s_churn);
        let mut theta = cfg.theta_hm;
        theta.profile = true;
        theta_hm_view(
            &view,
            &union,
            cfg.tau_hm,
            cfg.cut_fraction,
            &HmOptions {
                threads,
                theta,
                ..HmOptions::default()
            },
        )
    });
    if let Some(p) = &hm.profile {
        counts.hm_hosts = p.hosts;
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        counts.hm_ns = [
            ns(p.histograms),
            ns(p.distance_fill),
            ns(p.linkage),
            ns(p.cut_and_diameters),
        ];
    }
    let mut suspects: Vec<Ipv4Addr> = hm.kept.iter().copied().collect();
    suspects.sort_unstable();
    drop(view);
    release(rec, "features.extract", profiles);
    let verdict = Verdict {
        suspects,
        taus: [
            reduction_threshold.to_bits(),
            tau_vol.to_bits(),
            tau_churn.to_bits(),
            hm.tau.to_bits(),
        ],
    };
    Ok((verdict, counts))
}

pub type Engine = DetectionEngine<fn(Ipv4Addr) -> bool>;

/// A streaming engine on the exact tier with the given window geometry.
pub fn engine(window: SimDuration, slide: SimDuration, lateness: SimDuration) -> Engine {
    let cfg = EngineConfig::builder()
        .window(window)
        .slide(slide)
        .lateness(lateness)
        .threads(1)
        .build()
        .expect("benchmark engine configuration is valid");
    DetectionEngine::new(cfg, is_internal as fn(Ipv4Addr) -> bool).expect("valid configuration")
}

/// Feeds one flow. Errors (late or invalid flows) are counted by the
/// engine and surface in the window reports, so they are not returned.
pub fn push(engine: &mut Engine, flow: FlowRecord) -> Vec<WindowReport> {
    engine.push(flow).unwrap_or_default()
}

pub fn finish(engine: &mut Engine) -> Vec<WindowReport> {
    engine.finish()
}

pub fn held_flows(engine: &Engine) -> usize {
    engine.held_flows()
}

/// Flows the engine has accepted so far.
pub fn accepted_flows(engine: &Engine) -> u64 {
    engine.stats().accepted
}

/// Writes a retained checkpoint of `engine` to `path` in three timed steps
/// (snapshot, serialize, write); returns the serialized length.
pub fn write_engine_checkpoint(
    rec: &mut Recorder,
    engine: &Engine,
    path: &Path,
    retain: usize,
) -> usize {
    let snapshot = rec.span("checkpoint.snapshot", |_| engine.checkpoint());
    let text = rec.span("checkpoint.serialize", |_| snapshot.serialize());
    rec.span("checkpoint.write", |_| {
        write_text_retained(path, &text, retain)
    })
    .expect("checkpoint directory is writable");
    text.len()
}

/// Reads the newest verifiable checkpoint at `path` and revives an engine.
pub fn restore_engine(rec: &mut Recorder, path: &Path, retain: usize) -> Engine {
    rec.span("checkpoint.restore", |_| {
        let rec = read_checkpoint_recover(path, retain).expect("checkpoint just written");
        DetectionEngine::restore(&rec.snapshot, is_internal as fn(Ipv4Addr) -> bool)
            .expect("checkpointed configuration is valid")
    })
}

/// A running in-process detection server on a loopback port.
pub struct RunningServer {
    pub addr: SocketAddr,
    handle: JoinHandle<Result<(), String>>,
}

/// Starts a server with one `window`-long tumbling window, lateness
/// `lateness`, one engine thread and no checkpoints.
pub fn start_server(window: SimDuration, lateness: SimDuration) -> RunningServer {
    let cfg = ServerConfig {
        engine: EngineConfig::builder()
            .window(window)
            .slide(window)
            .lateness(lateness)
            .threads(1)
            .build()
            .expect("benchmark engine configuration is valid"),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg, is_internal).expect("bind a loopback port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().map_err(|e| e.to_string()));
    RunningServer { addr, handle }
}

impl RunningServer {
    /// Sends `SHUTDOWN` and waits for the server to stop.
    pub fn stop(self) -> Result<(), String> {
        let reply = query(self.addr, "SHUTDOWN");
        let joined = self
            .handle
            .join()
            .map_err(|_| "server thread panicked".to_owned())?;
        joined?;
        match reply.first().map(String::as_str) {
            Some("ok") => Ok(()),
            other => Err(format!("SHUTDOWN answered {other:?}")),
        }
    }
}

/// Streams `flows` as exporter `id` over one unbroken connection.
pub fn send(addr: SocketAddr, id: u32, flows: &[FlowRecord]) -> Result<SendReport, String> {
    send_flows(addr, id, flows, &SendOptions::default()).map_err(|e| e.to_string())
}

/// One query command and its full response, line by line.
pub fn query(addr: SocketAddr, cmd: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect to the loopback server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set a read deadline");
    writeln!(stream, "{cmd}").expect("send a query");
    let multi = matches!(cmd, "REPORT" | "HEALTH");
    let mut lines = Vec::new();
    for line in BufReader::new(stream).lines() {
        let line = line.expect("read a query response");
        let done = !multi || line == "end" || line.starts_with("err");
        lines.push(line);
        if done {
            break;
        }
    }
    lines
}
