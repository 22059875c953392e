//! Window shapes, durations and sizes `findplotters` refuses as argument
//! errors (status 2, naming the flag or cap) in windowed mode and in
//! `serve`, before any window opens, any socket is bound or any checkpoint
//! is probed:
//!
//! - `--window H --slide S` with `H / S` past the cap. At that ratio each
//!   flow would open, and be profiled in, millions of windows.
//! - `--window`, `--slide`, `--lateness` and `--io-timeout` values that
//!   are not finite, are negative, or whose milliseconds overflow a `u64`.
//! - A `--queue-depth` past its cap, whose slots `serve` would allocate
//!   when it binds.
//! - A `--checkpoint-retain` past its cap: writing, recovering and probing
//!   a checkpoint chain walk every one of its slots.
//! - `--checkpoint-every`, `--checkpoint-retain` or `--resume` without
//!   `--checkpoint FILE`, in batch mode too: there is no checkpoint for
//!   them to tune.
//!
//! Batch mode refuses the flags only the engine reads the same way, every
//! mode refuses `--late-policy` as an unrecognized argument (a late flow
//! has one fate), and a windowed run with `--resume` recovers past damaged
//! snapshots and finishes with the window lines of an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use peerwatch::data::{build_day, CampusConfig};
use peerwatch::detect::checkpoint::{retained_path, MAX_CHECKPOINT_RETAIN};
use peerwatch::detect::stream::MAX_WINDOWS_PER_FLOW;
use peerwatch::flow::csvio::write_flows;
use peerwatch::flow::{FlowRecord, FlowState, Payload, Proto};
use peerwatch::netsim::SimTime;
use std::net::Ipv4Addr;

/// Writes three flows an hour apart to `flows.csv` in `dir`.
fn three_flows(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).expect("temp dir");
    let csv = dir.join("flows.csv");
    let flows: Vec<FlowRecord> = [1, 3_600, 7_200]
        .into_iter()
        .map(|secs| FlowRecord {
            start: SimTime::from_secs(secs),
            end: SimTime::from_secs(secs + 1),
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
    write_flows(std::fs::File::create(&csv).expect("create csv"), &flows).expect("write csv");
    csv
}

#[test]
fn window_slide_ratios_past_the_cap_are_argument_errors() {
    let dir = std::env::temp_dir().join(format!("pw-cli-windows-{}", std::process::id()));
    let csv = three_flows(&dir);

    let refusal = format!("exceeds the cap of {MAX_WINDOWS_PER_FLOW} windows per flow");
    // A day's window sliding by 3.6 ms; then one window more than the cap
    // of one-second slides.
    let slide_past_cap = format!("{}", (MAX_WINDOWS_PER_FLOW + 1) as f64 / 3600.0);
    let shapes = [
        ["--window", "24", "--slide", "0.000001"],
        [
            "--window",
            &slide_past_cap,
            "--slide",
            &format!("{}", 1.0 / 3600.0),
        ],
    ];
    for shape in &shapes {
        let windowed = Command::new(env!("CARGO_BIN_EXE_findplotters"))
            .arg(&csv)
            .args(["--internal", "10.0.0.0/8"])
            .args(shape)
            .output()
            .expect("run findplotters");
        let serve = Command::new(env!("CARGO_BIN_EXE_findplotters"))
            .args(["serve", "--bind", "127.0.0.1:0"])
            .args(shape)
            .output()
            .expect("run findplotters serve");
        for (mode, out) in [("windowed", windowed), ("serve", serve)] {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{mode} {shape:?}: {stderr}");
            assert!(stderr.contains(&refusal), "{mode} {shape:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{mode} {shape:?}: printed a report");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn nonsense_durations_are_argument_errors() {
    let dir = std::env::temp_dir().join(format!("pw-cli-durations-{}", std::process::id()));
    let csv = three_flows(&dir);
    // A port that is already taken: a value `serve` accepted would fail to
    // bind (status 1) instead of serving forever.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let bind = taken.local_addr().expect("local addr").to_string();
    let cases = [
        ("--window", "inf"),
        ("--window", "1e300"),
        ("--window", "nan"),
        ("--window", "-1"),
        ("--slide", "inf"),
        ("--slide", "-0.5"),
        ("--lateness", "-5"),
        ("--lateness", "nan"),
        ("--lateness", "inf"),
        ("--io-timeout", "inf"),
        ("--io-timeout", "1e300"),
        ("--io-timeout", "-1"),
        ("--io-timeout", "nan"),
        ("--queue-depth", "18446744073709551615"),
    ];
    for (flag, value) in cases {
        let mut runs = vec![(
            "serve",
            Command::new(env!("CARGO_BIN_EXE_findplotters"))
                .args(["serve", "--bind", &bind, flag, value])
                .output()
                .expect("run findplotters serve"),
        )];
        // `--io-timeout` and `--queue-depth` belong to `serve` alone.
        if !matches!(flag, "--io-timeout" | "--queue-depth") {
            runs.push((
                "windowed",
                Command::new(env!("CARGO_BIN_EXE_findplotters"))
                    .arg(&csv)
                    .args(["--internal", "10.0.0.0/8", "--window", "1", flag, value])
                    .output()
                    .expect("run findplotters"),
            ));
        }
        let refusal = format!("invalid value {value:?} for {flag}");
        for (mode, out) in runs {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{mode} {flag} {value}: {stderr}"
            );
            assert!(stderr.contains(&refusal), "{mode} {flag} {value}: {stderr}");
            assert!(
                !stderr.contains("panicked"),
                "{mode} {flag} {value}: {stderr}"
            );
            assert!(
                out.stdout.is_empty(),
                "{mode} {flag} {value}: printed output"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `cmd` to its end, or kills it and fails once `deadline` passes: a
/// refusal that never comes must fail the test, not hang it.
fn output_within(mut cmd: Command, deadline: Duration) -> Output {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn findplotters");
    let started = Instant::now();
    while child.try_wait().expect("poll findplotters").is_none() {
        if started.elapsed() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{cmd:?} still running after {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

#[test]
fn retained_checkpoints_past_the_cap_are_argument_errors() {
    let dir = std::env::temp_dir().join(format!("pw-cli-retain-{}", std::process::id()));
    let csv = three_flows(&dir);
    let checkpoint = dir.join("ck");
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let bind = taken.local_addr().expect("local addr").to_string();
    let retain = "100000000000";
    assert!(retain.parse::<usize>().unwrap() > MAX_CHECKPOINT_RETAIN);

    let mut serve = Command::new(env!("CARGO_BIN_EXE_findplotters"));
    serve
        .args(["serve", "--bind", &bind, "--checkpoint-retain", retain])
        .arg("--checkpoint")
        .arg(&checkpoint);
    // With `--resume` the chain is probed before the file is read; without
    // it, the second checkpoint rotates the chain.
    let mut runs = vec![("serve", serve)];
    for resume in [&["--resume"][..], &["--checkpoint-every", "1"][..]] {
        let mut windowed = Command::new(env!("CARGO_BIN_EXE_findplotters"));
        windowed
            .arg(&csv)
            .args(["--internal", "10.0.0.0/8", "--window", "1"])
            .args(["--checkpoint-retain", retain])
            .arg("--checkpoint")
            .arg(&checkpoint)
            .args(resume);
        runs.push(("windowed", windowed));
    }
    let refusal = format!("invalid value {retain:?} for --checkpoint-retain");
    for (mode, cmd) in runs {
        let out = output_within(cmd, Duration::from_secs(30));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{mode}: {stderr}");
        assert!(stderr.contains(&refusal), "{mode}: {stderr}");
        assert!(!stderr.contains("loaded"), "{mode} read the CSV: {stderr}");
        assert!(out.stdout.is_empty(), "{mode}: printed output");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_knobs_without_a_checkpoint_are_argument_errors() {
    let dir = std::env::temp_dir().join(format!("pw-cli-knobs-{}", std::process::id()));
    let csv = three_flows(&dir);
    let csv = csv.to_str().expect("a UTF-8 temp path");
    // Each run names the first knob it was given.
    let runs: [(&str, &[&str], &str); 6] = [
        (
            "batch",
            &[csv, "--checkpoint-every", "5"],
            "--checkpoint-every",
        ),
        (
            "batch",
            &[csv, "--checkpoint-retain", "3", "--resume"],
            "--checkpoint-retain",
        ),
        (
            "windowed",
            &[csv, "--window", "1", "--checkpoint-retain", "3"],
            "--checkpoint-retain",
        ),
        (
            "windowed",
            &[csv, "--window", "1", "--resume", "--checkpoint-every", "5"],
            "--resume",
        ),
        (
            "serve",
            &["serve", "--bind", "127.0.0.1:0", "--checkpoint-every", "5"],
            "--checkpoint-every",
        ),
        (
            "serve",
            &["serve", "--bind", "127.0.0.1:0", "--checkpoint-retain", "3"],
            "--checkpoint-retain",
        ),
    ];
    for (mode, args, flag) in runs {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_findplotters"));
        cmd.args(args);
        // A `serve` that took the knob would listen until killed.
        let out = output_within(cmd, Duration::from_secs(30));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let refusal = format!("{flag} requires --checkpoint FILE");
        assert_eq!(out.status.code(), Some(2), "{mode} {args:?}: {stderr}");
        assert!(stderr.contains(&refusal), "{mode} {args:?}: {stderr}");
        assert!(!stderr.contains("loaded"), "{mode} read the CSV: {stderr}");
        assert!(out.stdout.is_empty(), "{mode} {args:?}: printed output");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_only_flags_are_argument_errors_in_batch_mode() {
    let dir = std::env::temp_dir().join(format!("pw-cli-batch-{}", std::process::id()));
    let csv = campus_day(&dir);
    let flags: [&[&str]; 5] = [
        &["--slide", "1"],
        &["--lateness", "5"],
        &["--max-flows", "1000000"],
        &["--dedupe"],
        &["--reject-invalid"],
    ];
    for flag in flags {
        let run = |window: &[&str]| {
            Command::new(env!("CARGO_BIN_EXE_findplotters"))
                .arg(&csv)
                .args(window)
                .args(flag)
                .output()
                .expect("run findplotters")
        };
        let batch = run(&[]);
        let stderr = String::from_utf8_lossy(&batch.stderr);
        let refusal = format!("{} only applies to streaming mode (--window)", flag[0]);
        assert_eq!(batch.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(stderr.contains(&refusal), "{flag:?}: {stderr}");
        assert!(batch.stdout.is_empty(), "{flag:?}: printed a report");

        let windowed = run(&["--window", "1"]);
        let stderr = String::from_utf8_lossy(&windowed.stderr);
        assert_eq!(
            windowed.status.code(),
            Some(0),
            "{flag:?} --window: {stderr}"
        );
        let stdout = String::from_utf8_lossy(&windowed.stdout);
        assert!(stdout.starts_with("window "), "{flag:?} --window: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn late_policy_is_an_unrecognized_argument_in_every_mode() {
    let dir = std::env::temp_dir().join(format!("pw-cli-late-{}", std::process::id()));
    let csv = three_flows(&dir);
    let csv = csv.to_str().expect("a UTF-8 temp path");
    let late = ["--late-policy", "drop"];
    let runs: [(&str, Vec<&str>, &str); 3] = [
        ("batch", vec![csv], "unrecognized argument"),
        (
            "windowed",
            vec![csv, "--window", "1"],
            "unrecognized argument",
        ),
        (
            "serve",
            vec!["serve", "--bind", "127.0.0.1:0"],
            "unrecognized serve argument",
        ),
    ];
    for (mode, args, refusal) in runs {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_findplotters"));
        cmd.args(&args).args(late);
        // A `serve` that took the flag would listen until killed.
        let out = output_within(cmd, Duration::from_secs(30));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let refusal = format!("{refusal} \"--late-policy\"");
        assert_eq!(out.status.code(), Some(2), "{mode}: {stderr}");
        assert!(stderr.contains(&refusal), "{mode}: {stderr}");
        assert!(out.stdout.is_empty(), "{mode}: printed output");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn windowed_resume_falls_back_past_damaged_snapshots_to_the_same_windows() {
    let dir = std::env::temp_dir().join(format!("pw-cli-resume-{}", std::process::id()));
    let csv = campus_day(&dir);
    let checkpoint = dir.join("ck");
    let run = |resume: bool| {
        let out = Command::new(env!("CARGO_BIN_EXE_findplotters"))
            .arg(&csv)
            .args(["--window", "2", "--slide", "1"])
            .args(["--checkpoint-every", "5000"])
            .arg("--checkpoint")
            .arg(&checkpoint)
            .args(if resume { &["--resume"][..] } else { &[] })
            .output()
            .expect("run findplotters");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "resume {resume}: {stderr}");
        let windows: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("window "))
            .map(str::to_owned)
            .collect();
        (windows, stderr)
    };

    // An uninterrupted run leaves the primary and two retained snapshots.
    let (full, _) = run(false);
    let chain = [0, 1, 2].map(|k| match k {
        0 => checkpoint.clone(),
        k => retained_path(&checkpoint, k),
    });
    assert!(chain.iter().all(|p| p.exists()), "missing snapshots");
    // One flipped byte in the middle of the primary and of the first
    // retained snapshot: their trailers no longer verify.
    for path in &chain[..2] {
        let mut bytes = std::fs::read(path).expect("read snapshot");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(path, bytes).expect("damage snapshot");
    }

    let (resumed, stderr) = run(true);
    for path in &chain[..2] {
        let unusable = format!("checkpoint {} unusable", path.display());
        assert!(stderr.contains(&unusable), "{unusable}: {stderr}");
    }
    assert!(
        stderr.contains("resumed from retained snapshot 2 steps behind the primary"),
        "{stderr}"
    );
    // The resumed run replays the flows after the oldest snapshot and
    // prints the windows an uninterrupted run printed last.
    assert!(
        !resumed.is_empty() && resumed.len() < full.len(),
        "{resumed:?}"
    );
    assert_eq!(resumed[..], full[full.len() - resumed.len()..]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes a small generated campus day to `flows.csv` in `dir`.
fn campus_day(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).expect("temp dir");
    let csv = dir.join("flows.csv");
    let day = build_day(&CampusConfig::small(), 0);
    write_flows(std::fs::File::create(&csv).expect("create csv"), &day.flows).expect("write csv");
    csv
}
