//! `findplotters` writing into a pipe whose reader goes away, as in
//! `findplotters … | head`: the run must end quietly with status 0, not
//! panic with "failed printing to stdout: Broken pipe".

use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::thread;

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
    let cfg = ServerConfig::builder().build().expect("config");
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
