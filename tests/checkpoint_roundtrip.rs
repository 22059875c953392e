//! Checkpoint/restore contract: interrupting the streaming engine at an
//! arbitrary point — through serialization, disk, and a fresh process's
//! worth of state — and resuming yields window reports byte-identical to
//! an uninterrupted run, at every thread count, including under degraded
//! modes (scrambled arrival, late drops, dedupe).

use std::net::Ipv4Addr;

use peerwatch::detect::checkpoint::{
    append_checksum_trailer, read_checkpoint_recover, retained_path, split_checksum_trailer,
    write_text_retained, CheckpointError, EngineCheckpoint,
};
use peerwatch::detect::stream::{
    DetectionEngine, EngineConfig, EngineStats, WindowReport, MAX_THREADS, MAX_WINDOWS_PER_FLOW,
};
use peerwatch::detect::ConfigError;
use peerwatch::detect::Error;
use peerwatch::flow::{FlowRecord, FlowState, Payload, Proto};
use peerwatch::netsim::{SimDuration, SimTime};
use peerwatch::server::checkpoint::SERVER_MAGIC;
use peerwatch::server::ServerCheckpoint;

fn internal(ip: Ipv4Addr) -> bool {
    ip.octets()[0] == 10
}

/// Atomically writes `snapshot` to `path`, keeping no history.
fn save_snapshot(path: &std::path::Path, snapshot: &EngineCheckpoint) {
    write_text_retained(path, &snapshot.serialize(), 0).unwrap();
}

/// Reads the checkpoint at `path`, with no retained copies to fall back on.
fn load_snapshot(path: &std::path::Path) -> Result<EngineCheckpoint, CheckpointError> {
    read_checkpoint_recover(path, 0).map(|r| r.snapshot)
}

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

/// Two hours of mixed traffic in border-monitor arrival order.
fn feed() -> Vec<FlowRecord> {
    let mut flows = Vec::new();
    for b in 0..2u8 {
        let bot = Ipv4Addr::new(10, 1, 0, 1 + b);
        for round in 0..24u64 {
            for peer in 0..5u8 {
                let dst = Ipv4Addr::new(60, 1, b, peer + 1);
                let t = SimTime::from_secs(round * 300 + peer as u64);
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
    for n in 0..5u8 {
        let host = Ipv4Addr::new(10, 2, 0, 1 + n);
        for k in 0..40u64 {
            let dst = Ipv4Addr::new(80, 3, (k % 9) as u8, 1);
            let t = SimTime::from_secs(30 + k * 175 + (k * k * 131 + n as u64 * 997) % 120);
            flows.push(flow(host, dst, t, 600, k % 25 == 0));
        }
    }
    flows.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    flows
}

fn cfg(threads: usize) -> EngineConfig {
    EngineConfig {
        window: SimDuration::from_mins(30),
        slide: SimDuration::from_mins(30),
        lateness: SimDuration::from_mins(5),
        threads,
        ..Default::default()
    }
}

fn straight_run(flows: &[FlowRecord], cfg: EngineConfig) -> Vec<WindowReport> {
    let mut eng = DetectionEngine::new(cfg, internal as fn(Ipv4Addr) -> bool).unwrap();
    let mut reports = Vec::new();
    for f in flows {
        reports.extend(eng.push(*f).unwrap());
    }
    reports.extend(eng.finish());
    reports
}

#[test]
fn resume_at_any_cut_is_byte_identical_at_every_thread_count() {
    let flows = feed();
    for threads in [1usize, 2, 4] {
        let expected = straight_run(&flows, cfg(threads));
        for cut in [1, flows.len() / 3, flows.len() / 2, flows.len() - 1] {
            // First "process": run to the cut, snapshot, drop the engine.
            let mut first =
                DetectionEngine::new(cfg(threads), internal as fn(Ipv4Addr) -> bool).unwrap();
            let mut reports = Vec::new();
            for f in &flows[..cut] {
                reports.extend(first.push(*f).unwrap());
            }
            let snapshot = first.checkpoint();
            drop(first);

            // Second "process": revive through the serialized text form.
            let revived = EngineCheckpoint::parse(&snapshot.serialize()).unwrap();
            assert_eq!(revived, snapshot);
            let mut second =
                DetectionEngine::restore(&revived, internal as fn(Ipv4Addr) -> bool).unwrap();
            for f in &flows[cut..] {
                reports.extend(second.push(*f).unwrap());
            }
            reports.extend(second.finish());

            assert_eq!(
                reports, expected,
                "threads={threads} cut={cut}: resumed reports diverged"
            );
            // Byte-exact thresholds, not just equal-looking ones.
            for (a, b) in reports.iter().zip(&expected) {
                if let (Ok(ra), Ok(rb)) = (&a.outcome, &b.outcome) {
                    assert_eq!(ra.tau_vol.to_bits(), rb.tau_vol.to_bits());
                    assert_eq!(ra.tau_churn.to_bits(), rb.tau_churn.to_bits());
                }
            }
        }
    }
}

#[test]
fn resume_through_disk_continues_under_degraded_modes() {
    // Scrambled arrival plus every degraded-mode policy that changes
    // counters: the checkpoint must carry them all.
    let mut flows = feed();
    for chunk in flows.chunks_mut(24) {
        chunk.reverse();
    }
    let dcfg = EngineConfig {
        dedupe: true,
        max_flows: Some(10_000),
        ..cfg(2)
    };
    // Late flows are refused, counted, and carried in the checkpoint.
    fn push(eng: &mut DetectionEngine<fn(Ipv4Addr) -> bool>, f: &FlowRecord) -> Vec<WindowReport> {
        match eng.push(*f) {
            Err(Error::LateFlow { .. }) => Vec::new(),
            other => other.unwrap(),
        }
    }
    let straight = {
        let mut eng = DetectionEngine::new(dcfg, internal as fn(Ipv4Addr) -> bool).unwrap();
        let mut reports = Vec::new();
        for f in &flows {
            reports.extend(push(&mut eng, f));
        }
        reports.extend(eng.finish());
        (reports, eng.stats())
    };
    assert!(straight.1.late > 0, "the scramble produced no late flows");

    let cut = flows.len() / 2;
    let dir = std::env::temp_dir().join("pw-checkpoint-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.ckpt");

    let mut first = DetectionEngine::new(dcfg, internal as fn(Ipv4Addr) -> bool).unwrap();
    let mut reports = Vec::new();
    for f in &flows[..cut] {
        reports.extend(push(&mut first, f));
    }
    save_snapshot(&path, &first.checkpoint());
    drop(first);

    let snapshot = load_snapshot(&path).unwrap();
    let mut second = DetectionEngine::restore(&snapshot, internal as fn(Ipv4Addr) -> bool).unwrap();
    for f in &flows[cut..] {
        reports.extend(push(&mut second, f));
    }
    reports.extend(second.finish());

    assert_eq!(reports, straight.0);
    assert_eq!(second.stats(), straight.1);
    std::fs::remove_file(&path).ok();
}

/// Arrival stream with every per-report delta counter active: scrambled
/// order produces late flows, which the engine refuses and counts,
/// corrupted records are quarantined, a tight `max_flows` cap sheds, and
/// in-stream duplicates exercise dedupe.
fn counter_heavy_feed() -> Vec<FlowRecord> {
    let mut flows = feed();
    for chunk in flows.chunks_mut(24) {
        chunk.reverse();
    }
    // Invalid-record bait: bytes without packets fails validation
    // regardless of timestamps, so `reject_invalid` quarantines these.
    for f in flows.iter_mut().skip(5).step_by(37) {
        f.src_pkts = 0;
    }
    // Duplicate bait: exact copies arriving back-to-back land in the same
    // window and trip the dedupe path.
    let mut augmented = Vec::with_capacity(flows.len() + flows.len() / 50 + 1);
    for (i, f) in flows.iter().enumerate() {
        augmented.push(*f);
        if i % 53 == 10 {
            augmented.push(*f);
        }
    }
    augmented
}

fn run_counter_heavy(
    flows: &[FlowRecord],
    cfg: EngineConfig,
    cut: Option<usize>,
) -> (Vec<WindowReport>, EngineStats) {
    let mut eng = DetectionEngine::new(cfg, internal as fn(Ipv4Addr) -> bool).unwrap();
    let mut reports = Vec::new();
    let cut = cut.unwrap_or(flows.len());
    for f in &flows[..cut] {
        // Quarantined records surface as per-flow errors; the stream
        // continues either way.
        if let Ok(r) = eng.push(*f) {
            reports.extend(r);
        }
    }
    if cut < flows.len() {
        // Interrupt: serialize, drop, revive in a "fresh process".
        let snapshot = EngineCheckpoint::parse(&eng.checkpoint().serialize()).unwrap();
        drop(eng);
        eng = DetectionEngine::restore(&snapshot, internal as fn(Ipv4Addr) -> bool).unwrap();
        for f in &flows[cut..] {
            if let Ok(r) = eng.push(*f) {
                reports.extend(r);
            }
        }
    }
    reports.extend(eng.finish());
    (reports, eng.stats())
}

#[test]
fn delta_counters_survive_a_cut_at_every_point() {
    // Pinned semantics: late/dropped/quarantined deltas attribute to the
    // *next window to close* after the event, pending deltas ride along in
    // the checkpoint, and a resume at ANY cut point — including mid-window
    // with nonzero pending deltas — reproduces the uninterrupted report
    // sequence and cumulative stats exactly.
    let flows = counter_heavy_feed();
    let dcfg = EngineConfig {
        dedupe: true,
        reject_invalid: true,
        max_flows: Some(120),
        ..cfg(1)
    };

    let (expected_reports, expected_stats) = run_counter_heavy(&flows, dcfg, None);
    // The feed must actually exercise every counter, or the sweep proves
    // nothing.
    assert!(expected_stats.late > 0, "feed produced no late flows");
    assert!(
        expected_stats.quarantined > 0,
        "feed produced no quarantines"
    );
    assert!(expected_stats.shed > 0, "feed produced no shedding");
    assert!(expected_stats.duplicates > 0, "feed produced no duplicates");

    // Conservation: every counted event is reported in exactly one window
    // (finish flushes the pending deltas into the last windows).
    let late_sum: u64 = expected_reports.iter().map(|r| r.late).sum();
    let dropped_sum: u64 = expected_reports.iter().map(|r| r.dropped).sum();
    let quarantined_sum: u64 = expected_reports.iter().map(|r| r.quarantined).sum();
    assert_eq!(late_sum, expected_stats.late);
    assert_eq!(dropped_sum, expected_stats.late + expected_stats.shed);
    assert_eq!(quarantined_sum, expected_stats.quarantined);

    for cut in 0..=flows.len() {
        let (reports, stats) = run_counter_heavy(&flows, dcfg, Some(cut));
        assert_eq!(stats, expected_stats, "cut={cut}: stats diverged");
        assert_eq!(
            reports, expected_reports,
            "cut={cut}: resumed report sequence diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Dirty state: corrupted checkpoint files and crash-safe recovery
// ---------------------------------------------------------------------------

fn temp_ckpt(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pw-checkpoint-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    for k in 1..=3 {
        std::fs::remove_file(retained_path(&path, k)).ok();
    }
    path
}

#[test]
fn corrupted_checkpoint_files_are_refused_with_typed_errors() {
    let flows = feed();
    let mut eng = DetectionEngine::new(cfg(1), internal as fn(Ipv4Addr) -> bool).unwrap();
    for f in &flows[..flows.len() / 2] {
        eng.push(*f).unwrap();
    }
    let path = temp_ckpt("refused.ckpt");
    save_snapshot(&path, &eng.checkpoint());
    let good = std::fs::read(&path).unwrap();
    assert!(load_snapshot(&path).is_ok(), "the pristine file must read");

    // Truncation — the tail (trailer included) never made it to disk.
    std::fs::write(&path, &good[..good.len() - 40]).unwrap();
    let err = load_snapshot(&path).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Format { .. }),
        "truncation must be diagnosed as a missing trailer, got: {err}"
    );
    assert!(err.to_string().contains("trailer"), "{err}");

    // One flipped bit in the body — the trailer no longer matches.
    // (XOR with 0x01 keeps the byte ASCII, so this is pure content
    // corruption, not an encoding error.)
    let mut flipped = good.clone();
    let mid = flipped.len() / 3;
    flipped[mid] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    let err = load_snapshot(&path).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Checksum { .. }),
        "a body bit flip must fail the checksum, got: {err}"
    );

    // One flipped bit in the checksum trailer itself — either the
    // declared value no longer matches, or the hex no longer parses.
    let mut flipped = good.clone();
    let hex_pos = flipped.len() - 3; // inside the trailer's 8 hex digits
    flipped[hex_pos] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    let err = load_snapshot(&path).unwrap_err();
    assert!(
        matches!(
            err,
            CheckpointError::Checksum { .. } | CheckpointError::Format { .. }
        ),
        "a trailer bit flip must be refused, got: {err}"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn kill_nine_mid_write_recovers_from_last_good_retained_snapshot() {
    let flows = feed();
    let expected = straight_run(&flows, cfg(1));
    let c1 = flows.len() / 3;
    let c2 = 2 * flows.len() / 3;
    let path = temp_ckpt("torn.ckpt");

    // A life that checkpoints twice (retaining history), then dies with
    // `kill -9` while a third snapshot is streaming out: the primary slot
    // holds a torn half-written file, `.1` the last complete snapshot.
    let mut eng = DetectionEngine::new(cfg(1), internal as fn(Ipv4Addr) -> bool).unwrap();
    let mut reports = Vec::new();
    for f in &flows[..c1] {
        reports.extend(eng.push(*f).unwrap());
    }
    write_text_retained(&path, &eng.checkpoint().serialize(), 2).unwrap();
    for f in &flows[c1..c2] {
        // These windows die with the process; the resumed run regenerates
        // them from the surviving snapshot.
        eng.push(*f).unwrap();
    }
    write_text_retained(&path, &eng.checkpoint().serialize(), 2).unwrap();
    drop(eng);
    assert!(retained_path(&path, 1).exists(), "rotation kept history");
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();

    // Plain read refuses the torn primary; recovery walks back to `.1`
    // and reports exactly what it skipped.
    assert!(load_snapshot(&path).is_err());
    let rec = read_checkpoint_recover(&path, 2).unwrap();
    assert_eq!(rec.fallbacks, 1, "must resume from the first retained slot");
    assert_eq!(rec.skipped.len(), 1);
    assert_eq!(rec.skipped[0].0, path);

    // The recovered snapshot is the c1 state: replaying everything from
    // there reproduces the uninterrupted run byte-for-byte.
    let mut revived =
        DetectionEngine::restore(&rec.snapshot, internal as fn(Ipv4Addr) -> bool).unwrap();
    for f in &flows[c1..] {
        reports.extend(revived.push(*f).unwrap());
    }
    reports.extend(revived.finish());
    assert_eq!(reports, expected);
    for (a, b) in reports.iter().zip(&expected) {
        if let (Ok(ra), Ok(rb)) = (&a.outcome, &b.outcome) {
            assert_eq!(ra.tau_vol.to_bits(), rb.tau_vol.to_bits());
            assert_eq!(ra.tau_churn.to_bits(), rb.tau_churn.to_bits());
        }
    }

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(retained_path(&path, 1)).ok();
}

#[test]
fn forged_row_counts_are_refused_without_allocating() {
    // A re-sealed file is indistinguishable from a genuine one by CRC, so
    // the row counts it declares must not size an allocation: a count far
    // beyond the lines that follow is a typed format error, through the
    // engine parser and through the server parser that embeds it.
    let flows = feed();
    let mut eng = DetectionEngine::new(cfg(1), internal as fn(Ipv4Addr) -> bool).unwrap();
    for f in &flows[..flows.len() / 2] {
        eng.push(*f).unwrap();
    }
    assert!(eng.open_windows() > 0, "the cut leaves a window open");
    let snap = eng.checkpoint();
    assert!(!snap.buffer().is_empty() && !snap.log().is_empty());
    let text = snap.serialize();
    let body = split_checksum_trailer(&text).unwrap();

    for forged in [u64::MAX, 1 << 40] {
        let edits = [
            ("buffer ", format!("buffer {forged}")),
            ("log ", format!("log {forged}")),
        ];
        for (prefix, forged_line) in edits {
            let mut engine_text: String = body
                .lines()
                .map(|l| {
                    if l.starts_with(prefix) {
                        format!("{forged_line}\n")
                    } else {
                        format!("{l}\n")
                    }
                })
                .collect();
            append_checksum_trailer(&mut engine_text);
            let err = EngineCheckpoint::parse(&engine_text).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Format { .. }),
                "{forged_line}: {err}"
            );

            let mut server_text =
                format!("{SERVER_MAGIC}\nexporters 1\nexporter 3 17\nengine-checkpoint\n");
            server_text.push_str(&engine_text);
            append_checksum_trailer(&mut server_text);
            let err = ServerCheckpoint::parse(&server_text).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Format { .. }),
                "{forged_line}: {err}"
            );
        }
    }
}

#[test]
fn resealed_thread_counts_above_the_cap_fail_at_restore() {
    // The configuration line is trusted no more than the row counts: a
    // re-sealed `threads=1000000` parses (the checkpoint is well formed)
    // but restore refuses it, before a window close could spawn that many
    // scoped threads.
    let flows = feed();
    let mut eng = DetectionEngine::new(cfg(2), internal as fn(Ipv4Addr) -> bool).unwrap();
    for f in &flows[..flows.len() / 2] {
        eng.push(*f).unwrap();
    }
    let text = eng.checkpoint().serialize();
    let body = split_checksum_trailer(&text).unwrap();
    assert!(body.contains(" threads=2 "));
    for (threads, ok) in [
        (1_000_000, false),
        (MAX_THREADS + 1, false),
        (MAX_THREADS, true),
    ] {
        let mut forged = body.replacen(" threads=2 ", &format!(" threads={threads} "), 1);
        append_checksum_trailer(&mut forged);
        let snapshot = EngineCheckpoint::parse(&forged).unwrap();
        assert_eq!(snapshot.config().threads, threads);
        match DetectionEngine::restore(&snapshot, internal as fn(Ipv4Addr) -> bool) {
            Ok(_) => assert!(ok, "threads={threads} restored"),
            Err(e) => {
                assert!(!ok, "threads={threads}: {e}");
                assert_eq!(e, ConfigError::TooManyThreads(threads));
            }
        }
    }
}

#[test]
fn resealed_window_slide_ratios_above_the_cap_fail_at_restore() {
    // A re-sealed `slide_ms=1` parses, but each flow would then open, and
    // be counted and profiled in, 1.8 million 30-minute windows: restore
    // refuses it. The engine is cut before any window opens, so an edited
    // slide leaves the snapshot's layout consistent.
    let flows = feed();
    let mut eng = DetectionEngine::new(cfg(1), internal as fn(Ipv4Addr) -> bool).unwrap();
    for f in flows
        .iter()
        .take_while(|f| f.start < SimTime::from_secs(4 * 60))
    {
        eng.push(*f).unwrap();
    }
    assert_eq!(eng.open_windows(), 0);
    assert!(eng.buffered() > 0);
    let text = eng.checkpoint().serialize();
    let body = split_checksum_trailer(&text).unwrap();
    assert!(body.contains(" slide_ms=1800000 "));
    // 1,800,000 ms over 1,758 ms is 1,023.9 windows, rounded up to the cap.
    for (slide_ms, refused) in [
        (1, Some(1_800_000)),
        (1_757, Some(MAX_WINDOWS_PER_FLOW + 1)),
        (1_758, None),
    ] {
        let mut forged = body.replacen(" slide_ms=1800000 ", &format!(" slide_ms={slide_ms} "), 1);
        append_checksum_trailer(&mut forged);
        let snapshot = EngineCheckpoint::parse(&forged).unwrap();
        assert_eq!(snapshot.config().slide, SimDuration::from_millis(slide_ms));
        match DetectionEngine::restore(&snapshot, internal as fn(Ipv4Addr) -> bool) {
            Ok(_) => assert_eq!(refused, None, "slide_ms={slide_ms} restored"),
            Err(e) => assert_eq!(
                Some(e),
                refused.map(ConfigError::TooManyWindowsPerFlow),
                "slide_ms={slide_ms}"
            ),
        }
    }
}
