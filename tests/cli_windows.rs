//! Window shapes and durations `findplotters` refuses as argument errors
//! (status 2, naming the flag or cap) in windowed mode and in `serve`,
//! before any window opens or any socket is bound:
//!
//! - `--window H --slide S` with `H / S` past the cap. At that ratio each
//!   flow would open, and be profiled in, millions of windows.
//! - `--window`, `--slide`, `--lateness` and `--io-timeout` values that
//!   are not finite, are negative, or whose milliseconds overflow a `u64`.

use std::path::{Path, PathBuf};
use std::process::Command;

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
    ];
    for (flag, value) in cases {
        let mut runs = vec![(
            "serve",
            Command::new(env!("CARGO_BIN_EXE_findplotters"))
                .args(["serve", "--bind", &bind, flag, value])
                .output()
                .expect("run findplotters serve"),
        )];
        // `--io-timeout` belongs to `serve` alone.
        if flag != "--io-timeout" {
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
