//! Detection-as-a-service contract: a seeded multi-exporter run through
//! `pw-server` — including injected disconnect/reconnect faults, byte-level
//! corruption through a chaos proxy, and a `kill -9` + checkpoint-resume —
//! produces a final verdict byte-identical to the offline batch
//! `try_find_plotters_table_tier` over the merged flows.
//!
//! Plus property tests for the binary wire format: every batch of flows
//! the codec can represent round-trips exactly, through both the
//! in-memory encoding and the length-prefixed stream I/O.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use peerwatch::chaos::{ChaosProxy, ConnPlan, ProxyFaults};
use peerwatch::detect::{try_find_plotters_table_tier, FindPlottersConfig, ProfileTier};
use peerwatch::flow::frame::{self, Frame, MAX_BATCH, RECORD_FIXED_LEN};
use peerwatch::flow::{csvio, FlowRecord, FlowState, FlowTable, Payload, Proto};
use peerwatch::netsim::{SimDuration, SimTime};
use peerwatch::server::{
    send_flows, ClientError, RetryPolicy, SendOptions, SendReport, Server, ServerConfig,
};

// ---------------------------------------------------------------------------
// Frame-codec property tests
// ---------------------------------------------------------------------------

/// Any flow the wire format claims to represent: arbitrary times,
/// addresses, ports, counters, state, and payload prefix.
fn arb_flow() -> impl Strategy<Value = FlowRecord> {
    (
        (
            0u64..1u64 << 48,
            0u64..1u64 << 20,
            any::<u32>(),
            any::<u16>(),
            any::<u32>(),
            any::<u16>(),
        ),
        (
            any::<bool>(),
            0u8..6,
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..Payload::MAX + 1),
        ),
    )
        .prop_map(
            |(
                (start, dur, src, sport, dst, dport),
                (proto_udp, state_ix, src_pkts, src_bytes, dst_pkts, dst_bytes, payload),
            )| {
                let state = match state_ix {
                    0 => FlowState::Established,
                    1 => FlowState::SynNoAnswer,
                    2 => FlowState::Rejected,
                    3 => FlowState::ResetAfterData,
                    4 => FlowState::UdpReplied,
                    _ => FlowState::UdpSilent,
                };
                FlowRecord {
                    start: SimTime::from_millis(start),
                    end: SimTime::from_millis(start + dur),
                    src: Ipv4Addr::from(src),
                    sport,
                    dst: Ipv4Addr::from(dst),
                    dport,
                    proto: if proto_udp { Proto::Udp } else { Proto::Tcp },
                    src_pkts,
                    src_bytes,
                    dst_pkts,
                    dst_bytes,
                    state,
                    payload: Payload::capture(&payload),
                }
            },
        )
}

proptest! {
    #[test]
    fn flow_encoding_round_trips(f in arb_flow(), seq in any::<u64>()) {
        // One flow costs its fixed bytes plus its payload's real length:
        // no padding.
        let frame = Frame::Flows { first_seq: seq, flows: vec![f] };
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        prop_assert_eq!(buf.len(), 4 + 1 + 8 + 2 + RECORD_FIXED_LEN + f.payload.as_bytes().len());
        prop_assert_eq!(Frame::decode(&buf[4..]).unwrap(), frame);
    }

    #[test]
    fn framed_stream_round_trips(
        flows in proptest::collection::vec(arb_flow(), 1..MAX_BATCH + 1),
        first_seq in 0u64..1 << 40,
    ) {
        // Write a whole session's worth of frames, the batch straight from
        // its slice, then read them back through the stream decoder.
        let mut wire = Vec::new();
        let next = Frame::Flows { first_seq: first_seq + flows.len() as u64, flows: flows[..1].to_vec() };
        frame::write_flows(&mut wire, first_seq, &flows).unwrap();
        frame::write_frame(&mut wire, &next).unwrap();
        frame::write_frame(&mut wire, &Frame::Bye).unwrap();

        let mut r = wire.as_slice();
        let got = frame::read_frame(&mut r).unwrap().unwrap();
        prop_assert_eq!(got, Frame::Flows { first_seq, flows });
        prop_assert_eq!(frame::read_frame(&mut r).unwrap().unwrap(), next);
        prop_assert_eq!(frame::read_frame(&mut r).unwrap().unwrap(), Frame::Bye);
        prop_assert_eq!(frame::read_frame(&mut r).unwrap(), None, "clean EOF after Bye");
    }

    #[test]
    fn truncated_streams_never_panic(
        flows in proptest::collection::vec(arb_flow(), 1..4),
        cut in 0usize..520,
    ) {
        let mut wire = Vec::new();
        frame::write_flows(&mut wire, 7, &flows).unwrap();
        let cut = cut.min(wire.len().saturating_sub(1));
        let mut r = &wire[..cut];
        // Any prefix must produce a clean EOF or a typed error — no panic,
        // no phantom frame.
        match frame::read_frame(&mut r) {
            Ok(None) | Err(_) => {}
            Ok(Some(frame)) => prop_assert!(false, "phantom frame from truncation: {frame:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-exporter end-to-end against a real server process
// ---------------------------------------------------------------------------

fn flow(src: Ipv4Addr, dst: Ipv4Addr, start: SimTime, up: u64, failed: bool) -> FlowRecord {
    FlowRecord {
        start,
        end: start + SimDuration::from_secs(1),
        src,
        sport: 999,
        dst,
        dport: 80,
        proto: Proto::Tcp,
        src_pkts: 1,
        src_bytes: up,
        dst_pkts: 1,
        dst_bytes: 64,
        state: if failed {
            FlowState::SynNoAnswer
        } else {
            FlowState::Established
        },
        payload: Payload::empty(),
    }
}

/// Two hours of mixed traffic: coordinated bots, heavy traders, and
/// background hosts — enough structure for a nontrivial verdict.
fn feed() -> Vec<FlowRecord> {
    let mut flows = Vec::new();
    for b in 0..3u8 {
        let bot = Ipv4Addr::new(10, 1, 0, 1 + b);
        for round in 0..24u64 {
            for peer in 0..5u8 {
                let dst = Ipv4Addr::new(60, 1, b, peer + 1);
                let t = SimTime::from_secs(round * 300 + u64::from(peer));
                flows.push(flow(bot, dst, t, 80, peer % 2 == 0));
            }
        }
    }
    for tr in 0..2u8 {
        let trader = Ipv4Addr::new(10, 1, 0, 10 + tr);
        for p in 0..40u64 {
            let dst = Ipv4Addr::new(70, 2, tr, (p + 1) as u8);
            let t = SimTime::from_secs(60 + p * 170 + (p * p * 37) % 90);
            let failed = p % 5 < 2;
            flows.push(flow(
                trader,
                dst,
                t,
                if failed { 120 } else { 900_000 },
                failed,
            ));
        }
    }
    for n in 0..6u8 {
        let host = Ipv4Addr::new(10, 2, 0, 1 + n);
        for k in 0..40u64 {
            let dst = Ipv4Addr::new(80, 3, (k % 9) as u8, 1);
            let t = SimTime::from_secs(30 + k * 175 + (k * k * 131 + u64::from(n) * 997) % 120);
            flows.push(flow(host, dst, t, 600, k % 25 == 0));
        }
    }
    flows
}

/// Round-robin split into per-exporter streams, as independent border
/// monitors would each see a share of the traffic.
fn split(flows: &[FlowRecord], n: usize) -> Vec<Vec<FlowRecord>> {
    let mut out = vec![Vec::new(); n];
    for (i, f) in flows.iter().enumerate() {
        out[i % n].push(*f);
    }
    out
}

/// The expected verdict, rendered exactly as the server's `REPORT`
/// `taus`/`suspect` lines render it: threshold bit patterns and sorted
/// suspects.
fn batch_verdict(flows: &[FlowRecord]) -> (String, Vec<String>) {
    let table = FlowTable::from_records(flows);
    let cfg = FindPlottersConfig::default();
    let r = try_find_plotters_table_tier(&table, is_internal, &cfg, ProfileTier::Exact, 1).unwrap();
    let taus = format!(
        "taus reduction={:016x} vol={:016x} churn={:016x} hm={:016x}",
        r.reduction_threshold.to_bits(),
        r.tau_vol.to_bits(),
        r.tau_churn.to_bits(),
        r.hm.tau.to_bits(),
    );
    let mut suspects: Vec<Ipv4Addr> = r.suspects.iter().copied().collect();
    suspects.sort_unstable();
    (
        taus,
        suspects.iter().map(|ip| format!("suspect {ip}")).collect(),
    )
}

fn is_internal(ip: Ipv4Addr) -> bool {
    // The serve CLI's default subnets: 10.1.0.0/16 and 10.2.0.0/16.
    let o = ip.octets();
    o[0] == 10 && (o[1] == 1 || o[1] == 2)
}

/// Spawns `findplotters serve` on an ephemeral port with a window and
/// lateness wide enough that nothing is ever late — the single closed
/// window must then equal the batch verdict bit-for-bit.
fn spawn_server(checkpoint: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_findplotters"))
        .args([
            "serve",
            "--bind",
            "127.0.0.1:0",
            "--window",
            "48",
            "--lateness",
            "2880",
            "--checkpoint-every",
            "64",
            "--checkpoint",
        ])
        .arg(checkpoint)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn findplotters serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .to_owned();
    (child, addr)
}

/// Sends one query command and collects the full response (multi-line for
/// `REPORT` and `HEALTH`, terminated by `end`).
fn query(addr: &str, cmd: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect query");
    writeln!(stream, "{cmd}").expect("send query");
    let mut lines = Vec::new();
    for line in BufReader::new(stream.try_clone().expect("clone")).lines() {
        let line = line.expect("query response");
        let done = !matches!(cmd, "REPORT" | "HEALTH") || line == "end" || line.starts_with("err");
        lines.push(line);
        if done {
            break;
        }
    }
    lines
}

/// The `taus` line and sorted `suspect` lines out of a `REPORT` response.
fn verdict_of(report: &[String]) -> (String, Vec<String>) {
    let taus = report
        .iter()
        .find(|l| l.starts_with("taus "))
        .unwrap_or_else(|| panic!("no taus line in {report:?}"))
        .clone();
    let suspects = report
        .iter()
        .filter(|l| l.starts_with("suspect "))
        .cloned()
        .collect();
    (taus, suspects)
}

/// Blocks until the engine thread has drained the ingest queue and applied
/// exactly `n` flows — `send_flows` returning only means the frames left
/// the socket, not that the engine consumed them.
fn wait_for_applied(addr: &str, n: usize) {
    for _ in 0..600 {
        let stats = query(addr, "STATS");
        if stats[0].contains(&format!("attempted={n} ")) {
            return;
        }
        thread::sleep(std::time::Duration::from_millis(50));
    }
    panic!("server never applied {n} flows");
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pw-server-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Removes a checkpoint and its retained rotation (`.1`..`.3`). The temp
/// dir persists across runs, and a fresh server falls back to any
/// verifiable retained snapshot when the primary is gone — so a leftover
/// `.1` from a previous run would silently resume a finished engine.
fn clean_ckpt(ckpt: &std::path::Path) {
    std::fs::remove_file(ckpt).ok();
    for k in 1..=3usize {
        std::fs::remove_file(PathBuf::from(format!("{}.{k}", ckpt.display()))).ok();
    }
}

/// Sandboxed environments may forbid binding sockets entirely; these
/// tests need a real loopback listener, so they skip (rather than fail)
/// where that is impossible.
fn can_bind() -> bool {
    std::net::TcpListener::bind("127.0.0.1:0").is_ok()
}

#[test]
fn three_exporters_with_cuts_match_batch_bit_for_bit() {
    if !can_bind() {
        eprintln!("skipping: cannot bind loopback sockets in this environment");
        return;
    }
    let flows = feed();
    let streams = split(&flows, 3);
    let ckpt = temp_path("cuts.ckpt");
    clean_ckpt(&ckpt);
    let (mut child, addr) = spawn_server(&ckpt);

    // All three exporters stream concurrently; two of them sever and
    // reconnect mid-stream on seeded plans.
    let handles: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(i, stream)| {
            let addr = addr.clone();
            let stream = stream.clone();
            let opts = SendOptions {
                plan: match i {
                    0 => ConnPlan::new(0xC0FF_EE00 + i as u64, stream.len(), 2),
                    2 => ConnPlan::new(0xC0FF_EE00 + i as u64, stream.len(), 1),
                    _ => ConnPlan::none(),
                },
                ..SendOptions::default()
            };
            thread::spawn(move || {
                send_flows(addr.as_str(), i as u32 + 1, &stream, &opts).expect("send")
            })
        })
        .collect();
    let reports: Vec<SendReport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        reports[0].reconnects, 2,
        "exporter 1 took both planned cuts"
    );
    assert_eq!(reports[1].reconnects, 0);
    assert_eq!(reports[2].reconnects, 1);

    wait_for_applied(&addr, flows.len());
    assert_eq!(query(&addr, "FINISH"), ["ok windows=1"]);
    let report = query(&addr, "REPORT");
    assert_eq!(query(&addr, "SHUTDOWN"), ["ok"]);
    child.wait().expect("server exit");

    // The flows line proves exactly-once: every flow applied despite the
    // cuts, none twice.
    let header = &report[0];
    assert!(
        header.contains(&format!("flows={}", flows.len())),
        "header {header:?} must count all {} merged flows",
        flows.len()
    );
    assert_eq!(verdict_of(&report), batch_verdict(&flows));
    clean_ckpt(&ckpt);
}

#[test]
fn kill_dash_nine_then_resume_matches_batch_bit_for_bit() {
    if !can_bind() {
        eprintln!("skipping: cannot bind loopback sockets in this environment");
        return;
    }
    let flows = feed();
    let streams = split(&flows, 3);
    let ckpt = temp_path("kill.ckpt");
    clean_ckpt(&ckpt);

    // First life: two exporters deliver fully, then the process dies hard.
    let (mut child, addr) = spawn_server(&ckpt);
    send_flows(addr.as_str(), 1, &streams[0], &SendOptions::default()).expect("send 1");
    send_flows(addr.as_str(), 2, &streams[1], &SendOptions::default()).expect("send 2");
    wait_for_applied(&addr, streams[0].len() + streams[1].len());
    assert_eq!(query(&addr, "CHECKPOINT"), ["ok"]);
    child.kill().expect("kill -9");
    child.wait().expect("reap");

    // Second life: resume from the checkpoint. Replaying everything must
    // skip what the first life applied, take the third exporter fresh,
    // and close the same single window the uninterrupted run would.
    let (mut child, addr) = spawn_server(&ckpt);
    let r1 = send_flows(addr.as_str(), 1, &streams[0], &SendOptions::default()).expect("resend 1");
    let r2 = send_flows(addr.as_str(), 2, &streams[1], &SendOptions::default()).expect("resend 2");
    let r3 = send_flows(addr.as_str(), 3, &streams[2], &SendOptions::default()).expect("send 3");
    assert_eq!(
        (r1.sent, r1.skipped),
        (0, streams[0].len() as u64),
        "checkpointed exporter 1 must be fully skipped"
    );
    assert_eq!((r2.sent, r2.skipped), (0, streams[1].len() as u64));
    assert_eq!((r3.sent, r3.skipped), (streams[2].len() as u64, 0));

    wait_for_applied(&addr, flows.len());
    assert_eq!(query(&addr, "FINISH"), ["ok windows=1"]);
    let report = query(&addr, "REPORT");
    assert_eq!(query(&addr, "SHUTDOWN"), ["ok"]);
    child.wait().expect("server exit");

    assert!(report[0].contains(&format!("flows={}", flows.len())));
    assert_eq!(verdict_of(&report), batch_verdict(&flows));
    clean_ckpt(&ckpt);
}

#[test]
fn send_subcommand_streams_a_csv() {
    if !can_bind() {
        eprintln!("skipping: cannot bind loopback sockets in this environment");
        return;
    }
    // The CLI path end to end: serve + send + query without touching the
    // library API.
    let flows = feed();
    let csv = temp_path("cli.csv");
    let mut buf = Vec::new();
    csvio::write_flows(&mut buf, &flows).expect("format csv");
    std::fs::write(&csv, buf).expect("write csv");
    let ckpt = temp_path("cli.ckpt");
    clean_ckpt(&ckpt);

    let (mut child, addr) = spawn_server(&ckpt);
    let status = Command::new(env!("CARGO_BIN_EXE_findplotters"))
        .arg("send")
        .arg(&csv)
        .args([
            "--connect",
            &addr,
            "--exporter",
            "9",
            "--cuts",
            "3",
            "--seed",
            "42",
        ])
        .stderr(Stdio::null())
        .status()
        .expect("run send");
    assert!(status.success());
    wait_for_applied(&addr, flows.len());
    assert_eq!(query(&addr, "FINISH"), ["ok windows=1"]);
    let report = query(&addr, "REPORT");
    assert_eq!(query(&addr, "SHUTDOWN"), ["ok"]);
    child.wait().expect("server exit");

    assert!(report[0].contains(&format!("flows={}", flows.len())));
    assert_eq!(verdict_of(&report), batch_verdict(&flows));
    std::fs::remove_file(&csv).ok();
    clean_ckpt(&ckpt);
}

// ---------------------------------------------------------------------------
// Byte-level chaos: corruption, mid-frame cuts, and stalls through a proxy
// ---------------------------------------------------------------------------

/// The integer value of `key=` in a `key=value ...` line.
fn counter(line: &str, key: &str) -> u64 {
    let pat = format!("{key}=");
    let rest = line
        .split(&pat)
        .nth(1)
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"));
    rest.split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {key}= in {line:?}"))
}

/// One full hostile-network run: three exporters stream through
/// per-exporter chaos proxies that flip bits, sever mid-frame, chunk
/// writes, and stall, while the client retries with seeded backoff.
/// Returns everything a determinism comparison needs: the `HEALTH`
/// response, the final verdict, and each exporter's send report.
fn chaos_run(base_seed: u64) -> (Vec<String>, (String, Vec<String>), Vec<SendReport>) {
    let flows = feed();
    let streams = split(&flows, 3);
    let ckpt = temp_path(&format!("chaos-{base_seed}.ckpt"));
    clean_ckpt(&ckpt);
    let (mut child, addr) = spawn_server(&ckpt);
    let upstream: SocketAddr = addr.parse().expect("server addr");

    // Three different hostile links. Each exporter gets its own proxy
    // (fault plans are assigned by accept order, which two exporters
    // racing through one proxy would scramble). Fault offsets live in the
    // first 8 KiB of each ~32 KiB stream so every planned fault actually
    // fires; the bounded faulty-connection count guarantees the retrying
    // client eventually gets a clean channel.
    let faults = [
        // Pure corruption, heavily chunked: the CRC must catch the flips.
        ProxyFaults {
            seed: base_seed ^ 0xA1,
            faulty_conns: 2,
            flips_per_conn: 2,
            fault_window: 8 * 1024,
            max_chunk: 7,
            ..ProxyFaults::default()
        },
        // Corruption plus a mid-frame cut.
        ProxyFaults {
            seed: base_seed ^ 0xB2,
            faulty_conns: 2,
            flips_per_conn: 1,
            cut: true,
            fault_window: 8 * 1024,
            ..ProxyFaults::default()
        },
        // Corruption plus a stall (well under the 30 s read deadline).
        ProxyFaults {
            seed: base_seed ^ 0xC3,
            faulty_conns: 1,
            flips_per_conn: 1,
            stall: Duration::from_millis(40),
            fault_window: 8 * 1024,
            max_chunk: 16,
            ..ProxyFaults::default()
        },
    ];
    let proxies: Vec<ChaosProxy> = faults
        .iter()
        .map(|f| ChaosProxy::spawn(upstream, *f).expect("spawn proxy"))
        .collect();

    let handles: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(i, stream)| {
            let proxy_addr = proxies[i].addr();
            let stream = stream.clone();
            let opts = SendOptions {
                retry: RetryPolicy {
                    attempts: 8,
                    backoff_base: Duration::from_millis(5),
                    backoff_cap: Duration::from_millis(50),
                    seed: base_seed ^ 0xF00D,
                },
                ..SendOptions::default()
            };
            thread::spawn(move || {
                send_flows(proxy_addr, i as u32 + 1, &stream, &opts).expect("send through chaos")
            })
        })
        .collect();
    let reports: Vec<SendReport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let stats = proxies
        .into_iter()
        .map(ChaosProxy::shutdown)
        .collect::<Vec<_>>();
    assert!(
        stats.iter().map(|s| s.flips).sum::<u64>() > 0,
        "the proxies must actually have corrupted bytes: {stats:?}"
    );

    wait_for_applied(&addr, flows.len());
    assert_eq!(query(&addr, "FINISH"), ["ok windows=1"]);
    let report = query(&addr, "REPORT");
    let health = query(&addr, "HEALTH");
    assert_eq!(query(&addr, "SHUTDOWN"), ["ok"]);
    child.wait().expect("server exit");

    assert!(
        report[0].contains(&format!("flows={}", flows.len())),
        "exactly-once despite corruption: {:?}",
        report[0]
    );
    clean_ckpt(&ckpt);
    (health, verdict_of(&report), reports)
}

#[test]
fn chaos_proxy_corruption_is_survived_deterministically() {
    if !can_bind() {
        eprintln!("skipping: cannot bind loopback sockets in this environment");
        return;
    }
    let (health, verdict, reports) = chaos_run(0x5EED_CAFE);

    // The hostile link must have been survived, not avoided: corrupt
    // frames were detected (and counted against the right exporters), the
    // client actually burned retries, and the verdict still equals the
    // clean offline batch bit for bit.
    assert!(
        counter(&health[0], "frames_corrupt") > 0,
        "no corrupt frame ever reached the server: {health:?}"
    );
    assert!(health[0].contains("status=degraded"), "{health:?}");
    assert!(
        health.iter().any(|l| l.starts_with("corrupt ")),
        "per-exporter corruption attribution missing: {health:?}"
    );
    assert_eq!(counter(&health[0], "engine_panics"), 0);
    assert!(
        reports.iter().map(|r| r.retries).sum::<u64>() > 0,
        "the retry path was never exercised: {reports:?}"
    );
    assert_eq!(verdict, batch_verdict(&feed()));

    // Every fault position derives from the seed before any bytes move,
    // so an identical rerun — fresh server, fresh proxies, fresh threads
    // — must reproduce the counters and the verdict exactly.
    let (health2, verdict2, reports2) = chaos_run(0x5EED_CAFE);
    assert_eq!(health, health2, "HEALTH must be seed-deterministic");
    // Fault *events* are seed-deterministic; the number of flows re-sent
    // after each sever is not (the resume position is the server's acked
    // apply progress at reconnect time, which races the engine thread).
    let fault_events = |rs: &[SendReport]| -> Vec<(u64, u64)> {
        rs.iter().map(|r| (r.reconnects, r.retries)).collect()
    };
    assert_eq!(
        fault_events(&reports),
        fault_events(&reports2),
        "retry/reconnect counts must be seed-deterministic"
    );
    assert_eq!(verdict, verdict2);
}

/// Forwards `from` to `to` until end of input, then passes the half-close
/// on; `bump` flips the low bit of the byte at that stream offset.
fn relay(mut from: TcpStream, mut to: TcpStream, bump: Option<usize>) {
    let mut buf = [0u8; 4096];
    let mut pos = 0;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if let Some(at) = bump.filter(|at| (pos..pos + n).contains(at)) {
            buf[at - pos] ^= 0x01;
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
        pos += n;
    }
    let _ = to.shutdown(Shutdown::Write);
}

/// A loopback relay to `upstream` that raises the length prefix of the
/// first connection's first frame by 256 bytes — past the end of a short
/// stream — and forwards later connections untouched.
fn length_bumping_relay(upstream: SocketAddr) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let addr = listener.local_addr().expect("relay addr");
    thread::spawn(move || {
        for (k, conn) in listener.incoming().enumerate() {
            let (Ok(client), Ok(server)) = (conn, TcpStream::connect(upstream)) else {
                return;
            };
            let client_r = client.try_clone().expect("clone client socket");
            let server_r = server.try_clone().expect("clone server socket");
            // The hello is 14 bytes; the second byte of the length prefix
            // after it counts 256s.
            let bump = (k == 0).then_some(14 + 1);
            thread::spawn(move || relay(client_r, server, bump));
            thread::spawn(move || relay(server_r, client, None));
        }
    });
    addr
}

#[test]
fn a_length_prefix_past_the_stream_end_costs_no_read_deadline() {
    if !can_bind() {
        eprintln!("skipping: cannot bind loopback sockets in this environment");
        return;
    }
    // The default 30 s read deadline.
    let cfg = ServerConfig::default();
    let server = Server::bind("127.0.0.1:0", cfg, is_internal).expect("bind");
    let upstream = server.local_addr();
    let addr = upstream.to_string();
    let run = thread::spawn(move || server.run());

    // One batch of 100 payload-free flows, then a 9-byte Bye: the bumped
    // prefix asks for 247 bytes more than the connection will ever carry.
    let flows: Vec<FlowRecord> = feed().into_iter().take(100).collect();
    let opts = SendOptions {
        retry: RetryPolicy {
            attempts: 2,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
            seed: 1,
        },
        ..SendOptions::default()
    };
    let t = Instant::now();
    let report = send_flows(length_bumping_relay(upstream), 1, &flows, &opts).expect("send");
    // The client half-closes after its Bye, so the server meets end of
    // input at once instead of waiting out its read deadline.
    assert!(
        t.elapsed() < Duration::from_secs(10),
        "the corrupted session took {:?}",
        t.elapsed()
    );
    assert_eq!((report.sent, report.retries), (200, 1));

    let health = query(&addr, "HEALTH");
    assert_eq!(counter(&health[0], "sessions_reaped"), 0, "{health:?}");
    assert!(query(&addr, "STATS")[0].contains("attempted=100 "));
    assert_eq!(query(&addr, "SHUTDOWN"), ["ok"]);
    run.join().expect("server thread").expect("clean shutdown");
}

// ---------------------------------------------------------------------------
// Fail-safe supervision: a panicking engine degrades, never crashes
// ---------------------------------------------------------------------------

#[test]
fn engine_panic_enters_failsafe_and_queries_still_answer() {
    if !can_bind() {
        eprintln!("skipping: cannot bind loopback sockets in this environment");
        return;
    }
    // An in-process server whose is_internal classifier panics on one
    // poison address — standing in for any latent engine bug a hostile
    // input might reach.
    let cfg = ServerConfig::default();
    let server = Server::bind("127.0.0.1:0", cfg, |ip: Ipv4Addr| {
        assert!(ip.octets()[1] != 77, "poison host reached the engine");
        is_internal(ip)
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let run = thread::spawn(move || server.run());

    let mut flows: Vec<FlowRecord> = (0..10u8)
        .map(|k| {
            flow(
                Ipv4Addr::new(10, 1, 0, 1),
                Ipv4Addr::new(60, 0, 0, k + 1),
                SimTime::from_secs(u64::from(k)),
                100,
                false,
            )
        })
        .collect();
    flows[5].src = Ipv4Addr::new(10, 77, 0, 1);

    // The send may complete (panic deferred to detection) or come back
    // with a short final ack (panic at apply time froze the sequence);
    // what it must never do is report full delivery that didn't happen.
    match send_flows(addr.as_str(), 1, &flows, &SendOptions::default()) {
        Ok(r) => assert_eq!(r.sent, flows.len() as u64),
        Err(ClientError::ShortDelivery { applied, have }) => {
            assert_eq!((applied, have), (5, flows.len()));
        }
        Err(e) => panic!("unexpected send error: {e}"),
    }

    // Detection hits the poison host at the latest here; the supervisor
    // must catch the panic and answer with a typed failure, not die.
    let finish = query(&addr, "FINISH");
    assert!(
        finish[0].starts_with("err"),
        "FINISH against a poisoned engine must fail loudly: {finish:?}"
    );

    let health = query(&addr, "HEALTH");
    assert!(health[0].contains("status=failed"), "{health:?}");
    assert_eq!(counter(&health[0], "engine_panics"), 1);

    // The fail-safe state still serves operators: stats flow, repeated
    // finishes fail consistently, and shutdown works cleanly.
    assert!(query(&addr, "STATS")[0].starts_with("stats "));
    assert!(query(&addr, "FINISH")[0].starts_with("err"));
    assert_eq!(query(&addr, "SHUTDOWN"), ["ok"]);
    run.join().expect("server thread").expect("clean shutdown");
}

#[test]
fn overlong_query_line_is_refused_before_its_newline() {
    if !can_bind() {
        eprintln!("skipping: cannot bind loopback sockets in this environment");
        return;
    }
    let cfg = ServerConfig::default();
    let server = Server::bind("127.0.0.1:0", cfg, is_internal).expect("bind");
    let addr = server.local_addr().to_string();
    let run = thread::spawn(move || server.run());

    // 64 KiB of a would-be command and no newline: the server must answer
    // once it has read its line limit, not wait for the newline (or for
    // the read deadline) while the line grows.
    let mut stream = TcpStream::connect(&addr).expect("connect query");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read deadline");
    stream.write_all(&[b'S'; 64 * 1024]).expect("send the line");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("a reply before any newline is sent");
    assert_eq!(reply, "err query line too long\n");

    // The session was severed, not the server.
    assert!(query(&addr, "STATS")[0].starts_with("stats "));
    assert_eq!(query(&addr, "SHUTDOWN"), ["ok"]);
    run.join().expect("server thread").expect("clean shutdown");
}
