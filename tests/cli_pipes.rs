//! `findplotters` writing into a pipe whose reader goes away, as in
//! `findplotters … | head`: the run must end quietly with status 0, not
//! panic with "failed printing to stdout: Broken pipe". With standard
//! error in such a pipe, an error must still exit with its own status,
//! and `serve` must keep answering queries.

use std::ffi::OsString;
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use peerwatch::flow::csvio::write_flows;
use peerwatch::flow::frame::{self, Hello};
use peerwatch::flow::{FlowRecord, FlowState, Payload, Proto};
use peerwatch::netsim::SimTime;
use peerwatch::server::{Server, ServerConfig};

fn assert_quiet_success(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "status {:?}, stderr: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn query_output_into_a_closed_pipe_ends_quietly() {
    let cfg = ServerConfig::default();
    let Ok(server) = Server::bind("127.0.0.1:0", cfg, |ip: Ipv4Addr| ip.octets()[0] == 10) else {
        eprintln!("skipping: cannot bind loopback sockets in this environment");
        return;
    };
    let addr = server.local_addr().to_string();
    let run = thread::spawn(move || server.run());

    // Far more answers than a pipe buffers, so the query is still writing
    // when the reader closes after the first line.
    let mut child = Command::new(env!("CARGO_BIN_EXE_findplotters"))
        .args(["query", "--connect", addr.as_str()])
        .args(std::iter::repeat_n("STATS", 2_000))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn findplotters query");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first answer");
    assert!(first.starts_with("stats "), "{first:?}");
    assert_quiet_success(&child.wait_with_output().expect("wait for the query"));

    let mut control = TcpStream::connect(addr.as_str()).expect("connect");
    writeln!(control, "SHUTDOWN").expect("send SHUTDOWN");
    let mut reply = String::new();
    BufReader::new(control)
        .read_line(&mut reply)
        .expect("read the SHUTDOWN reply");
    run.join().expect("server thread").expect("server run");
}

#[test]
fn batch_report_into_a_closed_pipe_ends_quietly() {
    let dir: PathBuf = std::env::temp_dir().join(format!("pw-cli-pipes-{}", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_gen-campus"))
        .arg(&dir)
        .args(["--small", "--seed", "3"])
        .stderr(Stdio::null())
        .status()
        .expect("run gen-campus");
    assert!(status.success());

    // The reader is gone before the report is written.
    let mut child = Command::new(env!("CARGO_BIN_EXE_findplotters"))
        .arg(dir.join("flows.csv"))
        .arg("--truth")
        .arg(dir.join("hosts.csv"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn findplotters");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for findplotters");
    std::fs::remove_dir_all(&dir).ok();
    assert_quiet_success(&out);
}

#[test]
fn errors_into_a_closed_stderr_keep_their_exit_codes() {
    let dir: PathBuf = std::env::temp_dir().join(format!("pw-cli-stderr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let csv = dir.join("flows.csv");
    let file = std::fs::File::create(&csv).expect("create the CSV");
    write_flows(file, &[]).expect("write the CSV header");
    let cases: [(Vec<OsString>, i32); 3] = [
        (vec!["x.csv".into(), "--bogus".into()], 2),
        (vec![dir.join("missing.csv").into()], 1),
        (vec![csv.into(), "--threads".into(), "0".into()], 2),
    ];
    for (args, code) in cases {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_findplotters"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(writer)
            .status()
            .expect("spawn findplotters");
        assert_eq!(status.code(), Some(code), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_campus_errors_into_a_closed_stderr_keep_their_exit_code() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_gen-campus"))
        .arg("--bogus")
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("spawn gen-campus");
    assert_eq!(status.code(), Some(2));
}

/// A child process that is killed when this goes out of scope, so a
/// failing assertion does not leave a server running.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// One `STATS` answer from the server at `addr`. A server that does not
/// answer within the read deadline fails the test instead of hanging it.
fn stats_within_deadline(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read deadline");
    writeln!(stream, "STATS").expect("send STATS");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("STATS answered within the read deadline");
    line
}

#[test]
fn serve_with_a_closed_stderr_keeps_answering_after_failed_checkpoints() {
    // Every applied flow asks for a checkpoint in a directory that does
    // not exist, and each failure is logged to a stderr nobody reads.
    let dir = std::env::temp_dir().join(format!("pw-cli-serve-stderr-{}", std::process::id()));
    let checkpoint = dir.join("missing").join("x.ckpt");
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_findplotters"))
            .args(["serve", "--bind", "127.0.0.1:0", "--checkpoint-every", "1"])
            .arg("--checkpoint")
            .arg(&checkpoint)
            .stdout(Stdio::piped())
            .stderr(writer)
            .spawn()
            .expect("spawn findplotters serve"),
    );
    let mut listening = String::new();
    BufReader::new(server.0.stdout.take().expect("piped stdout"))
        .read_line(&mut listening)
        .expect("read the listening line");
    let addr = listening
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("{listening:?}"))
        .to_owned();

    let flows: Vec<FlowRecord> = (0..5u64)
        .map(|k| FlowRecord {
            start: SimTime::from_secs(k),
            end: SimTime::from_secs(k + 1),
            src: Ipv4Addr::new(10, 1, 0, 1),
            sport: 40_000,
            dst: Ipv4Addr::new(80, 0, 0, 1),
            dport: 80,
            proto: Proto::Tcp,
            src_pkts: 2,
            src_bytes: 200,
            dst_pkts: 2,
            dst_bytes: 900,
            state: FlowState::Established,
            payload: Payload::empty(),
        })
        .collect();
    let mut exporter = TcpStream::connect(addr.as_str()).expect("connect an exporter");
    exporter
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read deadline");
    frame::write_hello(&mut exporter, Hello::new(1)).expect("send the hello");
    frame::read_hello_ack(&mut exporter).expect("hello acked");
    frame::write_flows(&mut exporter, 0, &flows).expect("send the flows");
    drop(exporter);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = stats_within_deadline(&addr);
        let errors: u64 = stats
            .split_ascii_whitespace()
            .find_map(|kv| kv.strip_prefix("checkpoint_errors="))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("{stats:?}"));
        if errors >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no failed checkpoint: {stats}");
        thread::sleep(Duration::from_millis(20));
    }
    assert!(
        server.0.try_wait().expect("poll serve").is_none(),
        "serve exited"
    );
}
