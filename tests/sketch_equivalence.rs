//! Tiered-profile contract: on populations where every host fits the
//! sketches' sparse-exact range, the sketched tier is indistinguishable
//! from the exact tier — same suspects, stage by stage — and the sketched
//! tier itself is byte-identical across batch, streaming, thread counts,
//! and checkpoint resume. Over the sparse caps, the per-host byte bound
//! holds where the exact representation grows without limit.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use peerwatch::detect::checkpoint::EngineCheckpoint;
use peerwatch::detect::stream::{DetectionEngine, EngineConfig, WindowReport};
use peerwatch::detect::{
    extract_profiles_table_par_tier, find_plotters_from_table, try_find_plotters_table_tier,
    FindPlottersConfig, ProfileAccumulator, ProfileTier,
};
use peerwatch::flow::{FlowRecord, FlowState, FlowTable, Payload, Proto};
use peerwatch::netsim::{SimDuration, SimTime};
use pw_sketch::SKETCHED_BYTES_PER_HOST_CAP;

fn internal(ip: Ipv4Addr) -> bool {
    ip.octets()[0] == 10
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

/// A mixed population of `n` internal hosts: periodic bot-like hosts, a
/// few heavy-uploading churny traders, and background hosts revisiting a
/// small peer set. Every host stays far below the sketch sparse caps, so
/// exact and sketched tiers must agree bit for bit.
fn population(n: usize) -> Vec<FlowRecord> {
    let mut flows = Vec::new();
    for k in 0..n {
        let host = Ipv4Addr::new(10, (k >> 16) as u8, (k >> 8) as u8, k as u8);
        match k % 3 {
            // Bot-like: tight timer to a rotating small peer set.
            0 => {
                for round in 0..12u64 {
                    let dst = Ipv4Addr::new(60, 1, (k % 251) as u8, (round % 4) as u8 + 1);
                    let t = SimTime::from_secs(round * 300 + (k as u64 % 7));
                    flows.push(flow(host, dst, t, 80, round % 3 == 0));
                }
            }
            // Trader-like: heavy uploads to many fresh peers.
            1 => {
                for p in 0..20u64 {
                    let dst = Ipv4Addr::new(70, 2, ((k as u64 + p) % 251) as u8, (p % 9) as u8 + 1);
                    let t = SimTime::from_secs(40 + p * 160 + (p * p * 37 + k as u64 * 13) % 90);
                    let failed = p % 5 == 0;
                    flows.push(flow(
                        host,
                        dst,
                        t,
                        if failed { 100 } else { 800_000 },
                        failed,
                    ));
                }
            }
            // Background: irregular revisits to a handful of services.
            _ => {
                for p in 0..10u64 {
                    let dst = Ipv4Addr::new(80, 3, (p % 3) as u8, 1);
                    let t = SimTime::from_secs(25 + p * 330 + (p * p * 131 + k as u64 * 997) % 240);
                    flows.push(flow(host, dst, t, 500, p % 9 == 0));
                }
            }
        }
    }
    flows.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    flows
}

#[test]
fn tiers_agree_stage_by_stage_below_the_sparse_caps() {
    for n in [64usize, 512, 4096] {
        let table = FlowTable::from_records(&population(n));
        let cfg = FindPlottersConfig::default();
        let exact = try_find_plotters_table_tier(&table, internal, &cfg, ProfileTier::Exact, 1)
            .expect("exact run");
        let sketched =
            try_find_plotters_table_tier(&table, internal, &cfg, ProfileTier::Sketched, 1)
                .expect("sketched run");
        assert_eq!(exact.s_vol, sketched.s_vol, "n={n}: theta_vol diverged");
        assert_eq!(
            exact.s_churn, sketched.s_churn,
            "n={n}: theta_churn diverged"
        );
        assert_eq!(
            exact.tau_churn.to_bits(),
            sketched.tau_churn.to_bits(),
            "n={n}: churn threshold not byte-identical"
        );
        assert_eq!(
            exact.suspects, sketched.suspects,
            "n={n}: final verdicts diverged"
        );
    }
}

fn sketched_cfg(threads: usize) -> EngineConfig {
    EngineConfig {
        window: SimDuration::from_mins(30),
        slide: SimDuration::from_mins(30),
        lateness: SimDuration::from_mins(5),
        threads,
        tier: ProfileTier::Sketched,
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
fn sketched_streaming_is_identical_across_thread_counts_and_resume() {
    let flows = population(192);
    let expected = straight_run(&flows, sketched_cfg(1));
    assert!(
        expected.iter().any(|r| r.hosts > 0),
        "feed produced no scored windows"
    );

    for threads in [4usize, 8] {
        let got = straight_run(&flows, sketched_cfg(threads));
        assert_eq!(got, expected, "threads={threads}: reports diverged");
        for (a, b) in got.iter().zip(&expected) {
            if let (Ok(ra), Ok(rb)) = (&a.outcome, &b.outcome) {
                assert_eq!(ra.tau_vol.to_bits(), rb.tau_vol.to_bits());
                assert_eq!(ra.tau_churn.to_bits(), rb.tau_churn.to_bits());
            }
        }
    }

    // Interrupt/serialize/revive at several cuts: the v2 checkpoint must
    // carry the tier so the resumed engine keeps sketching.
    for threads in [1usize, 4, 8] {
        for cut in [1, flows.len() / 3, flows.len() - 1] {
            let mut first =
                DetectionEngine::new(sketched_cfg(threads), internal as fn(Ipv4Addr) -> bool)
                    .unwrap();
            let mut reports = Vec::new();
            for f in &flows[..cut] {
                reports.extend(first.push(*f).unwrap());
            }
            let snapshot = EngineCheckpoint::parse(&first.checkpoint().serialize()).unwrap();
            drop(first);
            let mut second =
                DetectionEngine::restore(&snapshot, internal as fn(Ipv4Addr) -> bool).unwrap();
            for f in &flows[cut..] {
                reports.extend(second.push(*f).unwrap());
            }
            reports.extend(second.finish());
            assert_eq!(
                reports, expected,
                "threads={threads} cut={cut}: sketched resume diverged"
            );
        }
    }
}

#[test]
fn sketched_streaming_window_matches_batch_verdict() {
    // One tumbling window covering the whole feed: the streaming verdict
    // must equal the batch pipeline's on the same flows and tier.
    let flows = population(96);
    let cfg = EngineConfig {
        window: SimDuration::from_hours(2),
        slide: SimDuration::from_hours(2),
        ..sketched_cfg(1)
    };
    let reports = straight_run(&flows, cfg);
    let streamed: HashSet<Ipv4Addr> = reports
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .flat_map(|o| o.suspects.iter().copied())
        .collect();
    let batch = try_find_plotters_table_tier(
        &FlowTable::from_records(&flows),
        internal,
        &FindPlottersConfig::default(),
        ProfileTier::Sketched,
        1,
    )
    .expect("batch run");
    assert_eq!(streamed, batch.suspects);
}

#[test]
fn sketched_tier_holds_the_byte_cap_under_adversarial_fanout() {
    // One host contacting 100k distinct peers with 100k gap samples: the
    // exact representation grows linearly; the sketched one must stay
    // under the compile-time cap.
    let host = Ipv4Addr::new(10, 0, 0, 1);
    let mut exact = ProfileAccumulator::with_tier(ProfileTier::Exact);
    let mut sketched = ProfileAccumulator::with_tier(ProfileTier::Sketched);
    for i in 0..100_000u32 {
        let dst = Ipv4Addr::new(60, (i >> 16) as u8, (i >> 8) as u8, i as u8);
        let f = flow(
            host,
            dst,
            SimTime::from_millis(u64::from(i) * 40),
            600,
            false,
        );
        exact.absorb(&f, host);
        sketched.absorb(&f, host);
        // Revisit an earlier peer so the gap sketch fills too.
        let back = Ipv4Addr::new(60, 0, 0, (i % 200) as u8);
        let g = flow(
            host,
            back,
            SimTime::from_millis(u64::from(i) * 40 + 20),
            600,
            false,
        );
        exact.absorb(&g, host);
        sketched.absorb(&g, host);
    }
    let exact = exact.finish();
    let sketched = sketched.finish();
    let pe = exact.get(host).unwrap();
    let ps = sketched.get(host).unwrap();

    assert!(
        pe.estimated_bytes() > 10 * SKETCHED_BYTES_PER_HOST_CAP,
        "exact profile unexpectedly small: {} bytes",
        pe.estimated_bytes()
    );
    assert!(
        ps.estimated_bytes() <= SKETCHED_BYTES_PER_HOST_CAP,
        "sketched profile {} bytes exceeds the {SKETCHED_BYTES_PER_HOST_CAP}-byte cap",
        ps.estimated_bytes()
    );

    // The approximate count stays within the HLL error regime (5σ of the
    // true cardinality) and the churn fraction stays a valid fraction.
    let true_distinct = pe.distinct_destinations() as f64;
    let est = ps.distinct_destinations() as f64;
    assert!(
        (est - true_distinct).abs() / true_distinct < 5.0 * 1.04 / 32.0,
        "distinct estimate {est} too far from {true_distinct}"
    );
    let churn = ps.new_ip_fraction().unwrap();
    assert!((0.0..=1.0).contains(&churn), "churn out of range: {churn}");

    // Per-host decisions on the *small* hosts of a mixed table are not
    // disturbed by one dense host being present.
    let mut flows = population(48);
    for i in 0..1_000u32 {
        let dst = Ipv4Addr::new(60, 1, (i >> 8) as u8, i as u8);
        flows.push(flow(
            host,
            dst,
            SimTime::from_millis(u64::from(i) * 50),
            600,
            false,
        ));
    }
    flows.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    let table = FlowTable::from_records(&flows);
    let e = extract_profiles_table_par_tier(&table, internal, ProfileTier::Exact, 1);
    let s = extract_profiles_table_par_tier(&table, internal, ProfileTier::Sketched, 1);
    let exact_small = find_plotters_from_table(&e, &FindPlottersConfig::default());
    let sketched_small = find_plotters_from_table(&s, &FindPlottersConfig::default());
    let differs: HashSet<_> = exact_small
        .suspects
        .symmetric_difference(&sketched_small.suspects)
        .copied()
        .collect();
    assert!(
        differs.is_empty() || differs == HashSet::from([host]),
        "small-host verdicts disturbed by a dense host: {differs:?}"
    );
}
