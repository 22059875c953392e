//! The accept loop, connection handlers, and the engine thread.
//!
//! # Hardening model
//!
//! Every connection socket gets a read/write deadline
//! ([`ServerConfig::io_timeout`]); a peer idle past it is reaped and
//! counted rather than holding a thread hostage. Exporter sessions verify
//! a CRC32 on every frame: a corrupt frame is counted
//! (per exporter) and the connection is *severed*, never skipped —
//! without per-frame acks a skipped flow would be lost, whereas a
//! severed exporter reconnects and the sequence handshake re-delivers
//! exactly the missing tail. The engine thread runs every engine call
//! under `catch_unwind`: a panic flips the server into a fail-safe
//! terminal state (one emergency checkpoint attempt; flows ignored
//! without advancing sequences; queries still answered) so operators can
//! interrogate a wounded server instead of staring at a dead port. The
//! `HEALTH` query reports all of it.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use pw_detect::checkpoint::{recover_with, retained_path, write_text_retained, CheckpointError};
use pw_detect::{ConfigError, DetectionEngine, WindowReport};
use pw_flow::frame::{self, Frame, FrameError, HelloAck, MAGIC};
use pw_flow::FlowRecord;
use pw_netsim::SimTime;

use crate::checkpoint::ServerCheckpoint;
use crate::ServerConfig;

/// Why the server could not start or stopped abnormally.
#[derive(Debug)]
pub enum ServerError {
    /// An invalid [`ServerConfig`].
    Config(ConfigError),
    /// Binding or accepting on the listen socket failed.
    Io(io::Error),
    /// No checkpoint in the retention chain could be loaded at startup.
    Checkpoint(CheckpointError),
    /// The engine thread died (a bug — engine panics are caught and
    /// turned into the fail-safe state; this is the backstop).
    EngineDied,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Config(e) => write!(f, "invalid server configuration: {e}"),
            ServerError::Io(e) => write!(f, "server socket: {e}"),
            ServerError::Checkpoint(e) => write!(f, "cannot resume from checkpoint: {e}"),
            ServerError::EngineDied => f.write_str("engine thread died unexpectedly"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Config(e) => Some(e),
            ServerError::Io(e) => Some(e),
            ServerError::Checkpoint(e) => Some(e),
            ServerError::EngineDied => None,
        }
    }
}

impl From<ConfigError> for ServerError {
    fn from(e: ConfigError) -> Self {
        ServerError::Config(e)
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<CheckpointError> for ServerError {
    fn from(e: CheckpointError) -> Self {
        ServerError::Checkpoint(e)
    }
}

/// Everything connection threads hand to the engine thread. One bounded
/// queue totally orders ingest and queries, so the engine needs no locks.
enum Msg {
    /// An exporter handshake (or a v2 `Bye` confirming final delivery);
    /// reply with the next sequence the engine expects. Replies ride a
    /// capacity-1 `sync_channel`: exactly one message is ever sent, so
    /// the engine never blocks, and nothing on this path is unbounded.
    Hello {
        exporter_id: u32,
        reply: SyncSender<u64>,
    },
    /// One sequenced flow from an exporter.
    Flow {
        exporter_id: u32,
        seq: u64,
        flow: FlowRecord,
    },
    /// Feed-clock heartbeat for the stall detector.
    Tick { now_ms: u64 },
    /// A connection delivered a corrupt frame and was severed.
    /// `exporter_id` is `None` when the corruption hit the handshake
    /// itself (the claimed id cannot be trusted).
    Corrupt { exporter_id: Option<u32> },
    /// A session sat idle past the I/O deadline and was reaped.
    Reaped,
    /// A connection socket refused its read/write deadline and the
    /// session was severed before any protocol dispatch.
    DeadlineRefused,
    /// A text command; reply with the full response text (capacity-1
    /// `sync_channel`, same contract as [`Msg::Hello`]). `written`
    /// disconnects once the session has written that response (or given
    /// up on it): the engine waits for it before stopping the server, so
    /// a `SHUTDOWN` client always gets its answer before the process can
    /// exit.
    Query {
        line: String,
        reply: SyncSender<String>,
        written: Receiver<()>,
    },
}

/// A bound, not-yet-running detection service. [`run`](Server::run)
/// blocks serving connections until a `SHUTDOWN` command arrives.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    tx: SyncSender<Msg>,
    engine_thread: thread::JoinHandle<()>,
    stop: Arc<AtomicBool>,
    io_timeout: Option<Duration>,
}

/// Whether anything in the checkpoint retention chain exists on disk.
fn snapshot_exists(path: &Path, retain: usize) -> bool {
    path.exists() || (1..=retain).any(|k| retained_path(path, k).exists())
}

impl Server {
    /// Binds the listen socket and spins up the engine thread. If the
    /// configured checkpoint (or any retained copy behind it) exists, the
    /// engine and every exporter sequence resume from the newest snapshot
    /// whose integrity trailer verifies; torn or bit-flipped snapshots
    /// are skipped and counted (`checkpoint_fallbacks`,
    /// `checkpoints_corrupt` in `HEALTH`). The checkpoint's engine
    /// configuration wins over `cfg.engine`, so a resumed run continues
    /// byte-identically.
    ///
    /// # Errors
    ///
    /// [`ServerError`] on invalid configuration, socket failure, or when
    /// a checkpoint chain exists but nothing in it is readable.
    pub fn bind<A, F>(addr: A, cfg: ServerConfig, is_internal: F) -> Result<Self, ServerError>
    where
        A: ToSocketAddrs,
        F: Fn(Ipv4Addr) -> bool + Send + Sync + 'static,
    {
        cfg.validate()?;
        let mut checkpoint_fallbacks = 0u64;
        let mut checkpoints_corrupt = 0u64;
        let (engine, exporters) = match &cfg.checkpoint_path {
            Some(path) if snapshot_exists(path, cfg.checkpoint_retain) => {
                let rec = recover_with(path, cfg.checkpoint_retain, ServerCheckpoint::parse)?;
                checkpoint_fallbacks = u64::from(rec.fallbacks);
                checkpoints_corrupt = rec.skipped.len() as u64;
                for (p, e) in &rec.skipped {
                    eprintln!(
                        "pw-server: skipping unreadable checkpoint {}: {e}",
                        p.display()
                    );
                }
                let engine = DetectionEngine::restore(&rec.snapshot.engine, is_internal)?;
                (engine, rec.snapshot.exporters)
            }
            _ => (
                DetectionEngine::new(cfg.engine, is_internal)?,
                BTreeMap::new(),
            ),
        };

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = sync_channel(cfg.queue_depth);

        let state = EngineState {
            engine,
            exporters,
            reports: Vec::new(),
            checkpoint_path: cfg.checkpoint_path.clone(),
            checkpoint_every: cfg.checkpoint_every,
            checkpoint_retain: cfg.checkpoint_retain,
            since_checkpoint: 0,
            checkpoint_errors: 0,
            checkpoint_fallbacks,
            checkpoints_corrupt,
            frames_corrupt: BTreeMap::new(),
            frames_corrupt_total: 0,
            sessions_reaped: 0,
            deadline_failures: 0,
            windows_total: 0,
            engine_panics: 0,
            failed: false,
        };
        let stop_flag = Arc::clone(&stop);
        let engine_thread = thread::spawn(move || engine_loop(state, rx, stop_flag, local_addr));

        Ok(Server {
            listener,
            local_addr,
            tx,
            engine_thread,
            stop,
            io_timeout: cfg.io_timeout,
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves connections until a query client sends `SHUTDOWN`. Each
    /// connection is sniffed by its first four bytes: [`frame::MAGIC`]
    /// starts a binary exporter session, anything else a text query
    /// session.
    ///
    /// Query grammar (one command per line, responses end with `\n`):
    ///
    /// - `STATS` — one `stats key=value ...` line of engine counters;
    /// - `REPORT` — the latest window verdict: a `report ...` header,
    ///   `sets`/`taus` lines (thresholds as IEEE-754 bit patterns), one
    ///   `suspect IP` line per suspect (sorted), then `end`;
    /// - `HEALTH` — a `health status=ok|degraded|failed ...` line of
    ///   hardening counters, one `corrupt ID N` line per exporter that
    ///   delivered corrupt frames, then `end`;
    /// - `FINISH` — applies all buffered flows and closes every open
    ///   window (end of input);
    /// - `CHECKPOINT` — forces a checkpoint now;
    /// - `SHUTDOWN` — final checkpoint, then the server stops.
    ///
    /// # Errors
    ///
    /// [`ServerError::EngineDied`] if the engine thread is gone.
    pub fn run(self) -> Result<(), ServerError> {
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let tx = self.tx.clone();
            let timeout = self.io_timeout;
            thread::spawn(move || handle_connection(stream, &tx, timeout));
        }
        drop(self.tx);
        self.engine_thread
            .join()
            .map_err(|_| ServerError::EngineDied)
    }
}

/// State owned by the engine thread.
struct EngineState<F: Fn(Ipv4Addr) -> bool + Sync> {
    engine: DetectionEngine<F>,
    /// Next expected sequence per exporter. A flow is applied exactly
    /// when its sequence equals the expectation; replays after a
    /// reconnect or restart fall below it and are skipped.
    exporters: BTreeMap<u32, u64>,
    reports: Vec<WindowReport>,
    checkpoint_path: Option<PathBuf>,
    checkpoint_every: u64,
    checkpoint_retain: usize,
    since_checkpoint: u64,
    checkpoint_errors: u64,
    /// Snapshots the startup recovery had to walk past.
    checkpoint_fallbacks: u64,
    /// Snapshots skipped as unreadable during startup recovery.
    checkpoints_corrupt: u64,
    /// CRC-failed (or otherwise undecodable) frames per exporter.
    frames_corrupt: BTreeMap<u32, u64>,
    /// Total corrupt frames, including handshakes with no trusted id.
    frames_corrupt_total: u64,
    /// Sessions severed for idling past the I/O deadline.
    sessions_reaped: u64,
    /// Sessions severed because the socket refused its deadline — a
    /// socket that cannot be reaped is not allowed to be served.
    deadline_failures: u64,
    /// Every window report ever produced, including those dropped from
    /// the bounded `reports` buffer; `STATS windows=` counts these.
    windows_total: u64,
    /// Engine panics caught by the supervisor.
    engine_panics: u64,
    /// Terminal fail-safe: flows are ignored (sequences frozen), queries
    /// still answered.
    failed: bool,
}

/// Retention bound on stored window reports. The server is long-lived
/// and every window would otherwise accumulate forever; `REPORT` only
/// ever reads the newest, so older reports are dropped past this depth
/// (`windows_total` keeps the lifetime count).
const REPORT_RETAIN: usize = 64;

impl<F: Fn(Ipv4Addr) -> bool + Sync> EngineState<F> {
    /// Appends window reports, bounding the buffer at [`REPORT_RETAIN`].
    fn push_reports_bounded(&mut self, ws: Vec<WindowReport>) {
        self.windows_total += ws.len() as u64;
        self.reports.extend(ws);
        if self.reports.len() > REPORT_RETAIN {
            self.reports.drain(..self.reports.len() - REPORT_RETAIN);
        }
    }

    /// Writes a retained checkpoint. Safe to call even after a panic:
    /// the snapshot itself is taken under `catch_unwind`, and a failure
    /// only bumps `checkpoint_errors`.
    fn checkpoint_now(&mut self) -> Result<(), io::Error> {
        let Some(path) = self.checkpoint_path.clone() else {
            return Ok(());
        };
        let Ok(snapshot) = catch_unwind(AssertUnwindSafe(|| ServerCheckpoint {
            exporters: self.exporters.clone(),
            engine: self.engine.checkpoint(),
        })) else {
            self.checkpoint_errors += 1;
            return Err(io::Error::other("engine snapshot panicked"));
        };
        write_text_retained(&path, &snapshot.serialize(), self.checkpoint_retain)
            .inspect_err(|_| self.checkpoint_errors += 1)
    }

    /// Flips into the terminal fail-safe state after a caught engine
    /// panic: one emergency checkpoint attempt, then flows are ignored
    /// while queries keep answering.
    fn fail_engine(&mut self) {
        self.engine_panics += 1;
        self.failed = true;
        eprintln!("pw-server: engine panicked; entering fail-safe state (queries still answered)");
        if let Err(e) = self.checkpoint_now() {
            eprintln!("pw-server: emergency checkpoint failed: {e}");
        }
    }

    fn health_status(&self) -> &'static str {
        if self.failed {
            "failed"
        } else if self.frames_corrupt_total
            + self.sessions_reaped
            + self.deadline_failures
            + self.checkpoint_errors
            + self.checkpoint_fallbacks
            + self.checkpoints_corrupt
            > 0
        {
            "degraded"
        } else {
            "ok"
        }
    }

    fn health_text(&self) -> String {
        let mut out = format!(
            "health status={} frames_corrupt={} sessions_reaped={} deadline_failures={} \
             checkpoint_errors={} checkpoint_fallbacks={} checkpoints_corrupt={} \
             engine_panics={}\n",
            self.health_status(),
            self.frames_corrupt_total,
            self.sessions_reaped,
            self.deadline_failures,
            self.checkpoint_errors,
            self.checkpoint_fallbacks,
            self.checkpoints_corrupt,
            self.engine_panics,
        );
        for (id, n) in &self.frames_corrupt {
            out.push_str(&format!("corrupt {id} {n}\n"));
        }
        out.push_str("end\n");
        out
    }

    fn stats_text(&self) -> String {
        let s = self.engine.stats();
        format!(
            "stats attempted={} accepted={} late={} late_dropped={} late_extended={} \
             shed={} quarantined={} duplicates={} stall_flushes={} held={} \
             exporters={} windows={} checkpoint_errors={} profile_bytes={} \
             profiles_exact={} profiles_sketched={} frames_corrupt={} sessions_reaped={} \
             engine_panics={}\n",
            s.attempted,
            s.accepted,
            s.late,
            s.late_dropped,
            s.late_extended,
            s.shed,
            s.quarantined,
            s.duplicates,
            s.stall_flushes,
            self.engine.held_flows(),
            self.exporters.len(),
            self.windows_total,
            self.checkpoint_errors,
            s.profile_bytes,
            s.profiles_exact,
            s.profiles_sketched,
            self.frames_corrupt_total,
            self.sessions_reaped,
            self.engine_panics,
        )
    }

    fn report_text(&self) -> String {
        let Some(w) = self.reports.last() else {
            return "report none\nend\n".to_owned();
        };
        let mut out = format!(
            "report index={} start_ms={} end_ms={} flows={} hosts={} evicted={} \
             late={} dropped={} quarantined={} duplicates={} forced={}\n",
            w.index,
            w.start.as_millis(),
            w.end.as_millis(),
            w.flows,
            w.hosts,
            w.evicted,
            w.late,
            w.dropped,
            w.quarantined,
            w.duplicates,
            u8::from(w.forced),
        );
        match &w.outcome {
            Ok(r) => {
                out.push_str(&format!(
                    "sets all={} reduced={} vol={} churn={} union={} suspects={}\n",
                    r.all_hosts.len(),
                    r.after_reduction.len(),
                    r.s_vol.len(),
                    r.s_churn.len(),
                    r.union.len(),
                    r.suspects.len(),
                ));
                // Bit patterns, not decimals: a batch run's report can be
                // compared for byte identity.
                out.push_str(&format!(
                    "taus reduction={:016x} vol={:016x} churn={:016x} hm={:016x}\n",
                    r.reduction_threshold.to_bits(),
                    r.tau_vol.to_bits(),
                    r.tau_churn.to_bits(),
                    r.hm.tau.to_bits(),
                ));
                let mut suspects: Vec<Ipv4Addr> = r.suspects.iter().copied().collect();
                suspects.sort_unstable();
                for ip in suspects {
                    out.push_str(&format!("suspect {ip}\n"));
                }
            }
            Err(e) => out.push_str(&format!("outcome err {e}\n")),
        }
        out.push_str("end\n");
        out
    }

    /// Executes one query; returns the response text and whether to shut
    /// down.
    fn handle_query(&mut self, line: &str) -> (String, bool) {
        match line {
            "STATS" => (self.stats_text(), false),
            "REPORT" => (self.report_text(), false),
            "HEALTH" => (self.health_text(), false),
            "FINISH" => {
                if self.failed {
                    return ("err engine failed (see HEALTH)\n".to_owned(), false);
                }
                match catch_unwind(AssertUnwindSafe(|| self.engine.finish())) {
                    Ok(ws) => {
                        let n = ws.len();
                        self.push_reports_bounded(ws);
                        (format!("ok windows={n}\n"), false)
                    }
                    Err(_) => {
                        self.fail_engine();
                        (
                            "err engine panicked; now fail-safe (see HEALTH)\n".to_owned(),
                            false,
                        )
                    }
                }
            }
            "CHECKPOINT" => match self.checkpoint_now() {
                Ok(()) => ("ok\n".to_owned(), false),
                Err(e) => (format!("err checkpoint: {e}\n"), false),
            },
            "SHUTDOWN" => match self.checkpoint_now() {
                Ok(()) => ("ok\n".to_owned(), true),
                Err(e) => (format!("err final checkpoint: {e}\n"), true),
            },
            other => (format!("err unknown command {other:?}\n"), false),
        }
    }
}

/// The engine thread: drains the queue until shutdown (or until every
/// sender is gone). Every engine call runs under `catch_unwind`; a panic
/// trips the fail-safe state instead of killing the thread.
fn engine_loop<F: Fn(Ipv4Addr) -> bool + Sync>(
    mut st: EngineState<F>,
    rx: Receiver<Msg>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Hello { exporter_id, reply } => {
                let next = *st.exporters.entry(exporter_id).or_insert(0);
                let _ = reply.send(next);
            }
            Msg::Flow {
                exporter_id,
                seq,
                flow,
            } => {
                if st.failed {
                    // Terminal: ignore without advancing the sequence, so
                    // a restarted server re-requests everything from here.
                    continue;
                }
                let next = st.exporters.get(&exporter_id).copied().unwrap_or(0);
                if seq != next {
                    // Below: already applied (replay after reconnect or
                    // restart). Above: out of protocol. Either way,
                    // applying would break exactly-once — skip.
                    continue;
                }
                // Per-flow errors (late under Reject, quarantined records)
                // are already counted by the engine; the sequence still
                // advances — the flow was delivered. The sequence does NOT
                // advance across a panic: the emergency checkpoint then
                // stays consistent with the engine not having the flow.
                match catch_unwind(AssertUnwindSafe(|| st.engine.push(flow))) {
                    Ok(result) => {
                        st.exporters.insert(exporter_id, next + 1);
                        if let Ok(ws) = result {
                            st.push_reports_bounded(ws);
                        }
                        st.since_checkpoint += 1;
                        if st.since_checkpoint >= st.checkpoint_every {
                            st.since_checkpoint = 0;
                            if let Err(e) = st.checkpoint_now() {
                                eprintln!("pw-server: periodic checkpoint failed: {e}");
                            }
                        }
                    }
                    Err(_) => st.fail_engine(),
                }
            }
            Msg::Tick { now_ms } => {
                if st.failed {
                    continue;
                }
                match catch_unwind(AssertUnwindSafe(|| {
                    st.engine.tick(SimTime::from_millis(now_ms))
                })) {
                    Ok(ws) => st.push_reports_bounded(ws),
                    Err(_) => st.fail_engine(),
                }
            }
            Msg::Corrupt { exporter_id } => {
                st.frames_corrupt_total += 1;
                if let Some(id) = exporter_id {
                    *st.frames_corrupt.entry(id).or_insert(0) += 1;
                }
            }
            Msg::Reaped => st.sessions_reaped += 1,
            Msg::DeadlineRefused => st.deadline_failures += 1,
            Msg::Query {
                line,
                reply,
                written,
            } => {
                let (response, shutdown) = st.handle_query(&line);
                let _ = reply.send(response);
                if shutdown {
                    // Returns when the session drops its sender, after the
                    // reply is written or the write failed.
                    let _ = written.recv();
                    stop.store(true, Ordering::SeqCst);
                    // Wake the accept loop so it observes the flag.
                    let _ = TcpStream::connect(addr);
                    break;
                }
            }
        }
    }
}

/// Whether an I/O error is a deadline expiry (the two kinds differ by
/// platform) rather than a disconnect.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A connection socket refused its read/write deadline. A socket without
/// a deadline can never be reaped, so the session is severed (and
/// counted as `deadline_failures` in `HEALTH`) rather than served.
#[derive(Debug)]
struct DeadlineRefused {
    which: &'static str,
    cause: io::Error,
}

impl std::fmt::Display for DeadlineRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "socket refused {} deadline: {}", self.which, self.cause)
    }
}

impl std::error::Error for DeadlineRefused {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// Arms both I/O deadlines on a connection socket.
fn arm_deadlines(stream: &TcpStream, timeout: Option<Duration>) -> Result<(), DeadlineRefused> {
    stream
        .set_read_timeout(timeout)
        .map_err(|cause| DeadlineRefused {
            which: "read",
            cause,
        })?;
    stream
        .set_write_timeout(timeout)
        .map_err(|cause| DeadlineRefused {
            which: "write",
            cause,
        })
}

/// Sniffs the first four bytes and dispatches to the exporter or query
/// protocol. Runs on its own thread; errors end the connection.
fn handle_connection(mut stream: TcpStream, tx: &SyncSender<Msg>, timeout: Option<Duration>) {
    if timeout.is_some() {
        if let Err(e) = arm_deadlines(&stream, timeout) {
            eprintln!("pw-server: severing session: {e}");
            let _ = tx.send(Msg::DeadlineRefused);
            return;
        }
    }
    let mut first = [0u8; 4];
    match stream.read_exact(&mut first) {
        Ok(()) => {}
        Err(e) => {
            if is_timeout(&e) {
                let _ = tx.send(Msg::Reaped);
            }
            return;
        }
    }
    if first == MAGIC {
        let _ = exporter_session(stream, first, tx);
    } else {
        let _ = query_session(stream, first, tx);
    }
}

/// One exporter connection: handshake, then frames until EOF or `Bye`.
///
/// A corrupt frame (CRC mismatch or any decode error) severs the
/// connection after counting it — the reconnect handshake re-delivers
/// the lost tail, so nothing is silently dropped. A clean `Bye` is
/// answered with a final ack carrying the applied sequence, so the
/// exporter can verify complete delivery.
fn exporter_session(
    mut stream: TcpStream,
    first: [u8; 4],
    tx: &SyncSender<Msg>,
) -> Result<(), frame::FrameError> {
    let hello = match frame::read_hello(&mut stream, &first) {
        Ok(h) => h,
        Err(e) => {
            match &e {
                FrameError::Io(io_err) if is_timeout(io_err) => {
                    let _ = tx.send(Msg::Reaped);
                }
                FrameError::Io(_) => {}
                // The handshake itself was garbage; its exporter id
                // cannot be trusted, so the count is anonymous.
                _ => {
                    let _ = tx.send(Msg::Corrupt { exporter_id: None });
                }
            }
            return Err(e);
        }
    };
    let (reply_tx, reply_rx) = sync_channel(1);
    let sent = tx.send(Msg::Hello {
        exporter_id: hello.exporter_id,
        reply: reply_tx,
    });
    let (Ok(()), Ok(next_seq)) = (sent, reply_rx.recv()) else {
        return Ok(()); // server shutting down
    };
    frame::write_hello_ack(&mut stream, HelloAck::new(next_seq))?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    loop {
        match frame::read_frame(&mut reader) {
            // A severed connection is normal exporter behaviour — the
            // reconnect handshake resumes it; nothing to unwind here.
            Ok(None) => return Ok(()),
            Ok(Some(Frame::Bye)) => {
                // Final delivery confirmation: ask the engine (the queue
                // orders this after every flow this connection sent) and
                // ack the applied sequence back.
                let (reply_tx, reply_rx) = sync_channel(1);
                let sent = tx.send(Msg::Hello {
                    exporter_id: hello.exporter_id,
                    reply: reply_tx,
                });
                if let (Ok(()), Ok(applied)) = (sent, reply_rx.recv()) {
                    let mut w = reader.get_ref();
                    frame::write_hello_ack(&mut w, HelloAck::new(applied))?;
                }
                return Ok(());
            }
            Ok(Some(Frame::Tick { now_ms })) => {
                if tx.send(Msg::Tick { now_ms }).is_err() {
                    return Ok(());
                }
            }
            Ok(Some(Frame::Flow { seq, flow })) => {
                let msg = Msg::Flow {
                    exporter_id: hello.exporter_id,
                    seq,
                    flow,
                };
                // A full queue blocks here — backpressure to the socket.
                if tx.send(msg).is_err() {
                    return Ok(());
                }
            }
            Err(FrameError::Io(e)) => {
                if is_timeout(&e) {
                    let _ = tx.send(Msg::Reaped);
                }
                return Err(FrameError::Io(e));
            }
            Err(e) => {
                // CRC mismatch or undecodable bytes: the stream can no
                // longer be trusted. Count it and sever; the exporter's
                // resume handshake re-delivers from the last applied
                // sequence, which is what keeps corruption lossless.
                let _ = tx.send(Msg::Corrupt {
                    exporter_id: Some(hello.exporter_id),
                });
                return Err(e);
            }
        }
    }
}

/// One query connection: text commands, one per line.
fn query_session(stream: TcpStream, first: [u8; 4], tx: &SyncSender<Msg>) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // The sniffed bytes are the start of the first command line.
    let mut line = String::from_utf8_lossy(&first).into_owned();
    if let Err(e) = reader.read_line(&mut line) {
        if is_timeout(&e) {
            let _ = tx.send(Msg::Reaped);
        }
        return Err(e);
    }
    loop {
        let cmd = line.trim().to_owned();
        if !cmd.is_empty() {
            let (reply_tx, reply_rx) = sync_channel(1);
            // Dropped at the end of this iteration, or on an early return.
            let (_written, written) = sync_channel(0);
            let sent = tx.send(Msg::Query {
                line: cmd.clone(),
                reply: reply_tx,
                written,
            });
            let response = match (sent, reply_rx.recv()) {
                (Ok(()), Ok(r)) => r,
                _ => "err server stopped\n".to_owned(),
            };
            writer.write_all(response.as_bytes())?;
            writer.flush()?;
            if cmd == "SHUTDOWN" {
                return Ok(());
            }
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) => {
                if is_timeout(&e) {
                    let _ = tx.send(Msg::Reaped);
                }
                return Err(e);
            }
        }
    }
}
