//! The streaming engine's core contract on a seeded campus day: one window
//! covering the whole trace reproduces the batch pipeline's output
//! byte for byte — same suspects, same resolved thresholds — for any
//! thread count, and tumbling replays partition the stream.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use peerwatch::botnet::{generate_storm_trace, StormConfig};
use peerwatch::data::{build_day, overlay_bots, CampusConfig};
use peerwatch::detect::stream::{DetectionEngine, EngineConfig, WindowReport};
use peerwatch::detect::{
    try_find_plotters_table_tier, FindPlottersConfig, PlotterReport, ProfileTier,
};
use peerwatch::flow::{FlowRecord, FlowTable};
use peerwatch::netsim::SimDuration;

struct Fixture {
    flows: Vec<FlowRecord>,
    internal: HashSet<Ipv4Addr>,
}

/// A seeded reduced-scale campus day with a Storm botnet implanted, flows
/// in border-monitor arrival order.
fn campus_day() -> Fixture {
    let campus = CampusConfig {
        seed: 0x5EED,
        n_background: 100,
        n_gnutella: 5,
        n_emule: 4,
        n_bittorrent: 6,
        catalog_files: 150,
        emule_kad_external: 40,
        bt_dht_external: 40,
        duration: SimDuration::from_hours(6),
        ..CampusConfig::default()
    };
    let day = build_day(&campus, 0);
    let storm = generate_storm_trace(
        &StormConfig {
            n_bots: 6,
            external_population: 70,
            duration: campus.duration,
            ..StormConfig::default()
        },
        5,
    );
    let overlaid = overlay_bots(&day, &[&storm], 77);
    let mut flows = overlaid.flows.clone();
    flows.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    let internal: HashSet<Ipv4Addr> = flows
        .iter()
        .flat_map(|f| [f.src, f.dst])
        .filter(|&ip| day.is_internal(ip))
        .collect();
    Fixture { flows, internal }
}

fn stream_whole_day(fixture: &Fixture, threads: usize) -> PlotterReport {
    // The campus monitoring window opens at 09:00, so a 6-hour day reaches
    // sim hour 15; 48 hours comfortably covers any day-scale trace.
    let cfg = EngineConfig {
        window: SimDuration::from_hours(48),
        slide: SimDuration::from_hours(48),
        lateness: SimDuration::from_mins(10),
        threads,
        ..Default::default()
    };
    let internal = &fixture.internal;
    let mut engine = DetectionEngine::new(cfg, |ip| internal.contains(&ip)).expect("valid config");
    let mut reports: Vec<WindowReport> = Vec::new();
    for f in &fixture.flows {
        reports.extend(engine.push(*f).expect("flows arrive in order"));
    }
    reports.extend(engine.finish());
    assert_eq!(reports.len(), 1, "one window covers the whole day");
    reports
        .pop()
        .unwrap()
        .outcome
        .expect("campus day is not degenerate")
}

#[test]
fn full_day_window_is_byte_identical_to_batch() {
    let fixture = campus_day();
    let internal = &fixture.internal;
    let batch = try_find_plotters_table_tier(
        &FlowTable::from_records(&fixture.flows),
        |ip| internal.contains(&ip),
        &FindPlottersConfig::default(),
        ProfileTier::Exact,
        1,
    )
    .expect("every threshold resolves");
    assert!(!batch.all_hosts.is_empty(), "fixture produced no hosts");

    let streamed = stream_whole_day(&fixture, 1);
    assert_eq!(streamed.suspects, batch.suspects);
    assert_eq!(streamed.tau_vol.to_bits(), batch.tau_vol.to_bits());
    assert_eq!(streamed.tau_churn.to_bits(), batch.tau_churn.to_bits());
    assert_eq!(streamed.hm.tau.to_bits(), batch.hm.tau.to_bits());
    assert_eq!(streamed.hm.clusters, batch.hm.clusters);
    assert_eq!(streamed.all_hosts, batch.all_hosts);
    assert_eq!(streamed.after_reduction, batch.after_reduction);
    assert_eq!(streamed.s_vol, batch.s_vol);
    assert_eq!(streamed.s_churn, batch.s_churn);
}

#[test]
fn parallel_streaming_matches_serial_streaming() {
    let fixture = campus_day();
    let serial = stream_whole_day(&fixture, 1);
    for threads in [2usize, 4, 8] {
        let par = stream_whole_day(&fixture, threads);
        assert_eq!(par, serial, "threads={threads}");
    }
}

#[test]
fn parallel_batch_matches_serial_batch() {
    let fixture = campus_day();
    let internal = &fixture.internal;
    let cfg = FindPlottersConfig::default();
    let serial = try_find_plotters_table_tier(
        &FlowTable::from_records(&fixture.flows),
        |ip| internal.contains(&ip),
        &cfg,
        ProfileTier::Exact,
        1,
    )
    .unwrap();
    for threads in [2usize, 6] {
        let par = try_find_plotters_table_tier(
            &FlowTable::from_records(&fixture.flows),
            |ip| internal.contains(&ip),
            &cfg,
            ProfileTier::Exact,
            threads,
        )
        .unwrap();
        assert_eq!(par, serial, "threads={threads}");
    }
}

#[test]
fn hourly_tumbling_windows_partition_the_day() {
    let fixture = campus_day();
    let internal = &fixture.internal;
    let cfg = EngineConfig {
        window: SimDuration::from_hours(1),
        slide: SimDuration::from_hours(1),
        lateness: SimDuration::from_mins(10),
        threads: 2,
        ..Default::default()
    };
    let mut engine = DetectionEngine::new(cfg, |ip| internal.contains(&ip)).expect("valid config");
    let mut reports: Vec<WindowReport> = Vec::new();
    for f in &fixture.flows {
        reports.extend(engine.push(*f).expect("flows arrive in order"));
    }
    reports.extend(engine.finish());
    assert!(
        reports.len() >= 6,
        "six-hour day should yield several windows"
    );
    let total: usize = reports.iter().map(|w| w.flows).sum();
    assert_eq!(
        total,
        fixture.flows.len(),
        "tumbling windows must partition the stream"
    );
    for pair in reports.windows(2) {
        assert!(pair[0].index < pair[1].index);
    }
}
