//! `findplotters` writing into a pipe whose reader goes away, as in
//! `findplotters … | head`: the run must end quietly with status 0, not
//! panic with "failed printing to stdout: Broken pipe". With standard
//! error in such a pipe, an error must still exit with its own status.

use std::ffi::OsString;
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::thread;

use peerwatch::flow::csvio::write_flows;
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
