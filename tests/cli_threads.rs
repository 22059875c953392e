//! `findplotters --threads N` past the cap: batch and windowed mode refuse
//! it as an argument error (status 2, naming the cap) before any worker
//! thread is spawned.

use std::process::Command;

use peerwatch::detect::stream::MAX_THREADS;
use peerwatch::flow::csvio::write_flows;
use peerwatch::flow::{FlowRecord, FlowState, Payload, Proto};
use peerwatch::netsim::SimTime;
use std::net::Ipv4Addr;

#[test]
fn thread_counts_past_the_cap_are_argument_errors() {
    let dir = std::env::temp_dir().join(format!("pw-cli-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("flows.csv");
    let flows: Vec<FlowRecord> = (0..20u8)
        .map(|k| FlowRecord {
            start: SimTime::from_secs(60 * u64::from(k)),
            end: SimTime::from_secs(60 * u64::from(k) + 1),
            src: Ipv4Addr::new(10, 1, 0, 1 + k % 4),
            sport: 40_000,
            dst: Ipv4Addr::new(80, 0, 0, 1 + k % 3),
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

    let threads = 50_000;
    assert!(threads > MAX_THREADS);
    let refusal = format!("thread count {threads} exceeds the cap of {MAX_THREADS}");
    for mode in [&[][..], &["--window", "1"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_findplotters"))
            .arg(&csv)
            .args(["--threads", &threads.to_string()])
            .args(mode)
            .output()
            .expect("run findplotters");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{mode:?}: {stderr}");
        assert!(stderr.contains(&refusal), "{mode:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
