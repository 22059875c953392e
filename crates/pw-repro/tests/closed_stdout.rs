//! A figure binary writing into a pipe whose reader is already gone, as in
//! `fig01_volume_cdf | head` once `head` has exited: the run must end
//! quietly with status 0, not panic with "failed printing to stdout:
//! Broken pipe".

use std::process::{Command, Stdio};

#[test]
fn figure_output_into_a_closed_pipe_ends_quietly() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_fig01_volume_cdf"))
        .env("PW_FAST", "1")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run fig01_volume_cdf");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
