//! Integration tests for the baseline (TDG) and the extensions (per-port
//! separation, multi-day corroboration) against generated traffic.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use peerwatch::botnet::{generate_storm_trace, StormConfig};
use peerwatch::data::{build_day, overlay_bots, overlay_bots_onto, CampusConfig};
use peerwatch::detect::{
    find_plotters_per_service, tdg_scan, try_find_plotters_table_tier, FindPlottersConfig,
    MultiDayReport, ProfileTier, TdgConfig,
};
use peerwatch::flow::FlowTable;
use peerwatch::netsim::SimDuration;

fn campus() -> CampusConfig {
    CampusConfig {
        seed: 777,
        n_background: 120,
        n_gnutella: 6,
        n_emule: 5,
        n_bittorrent: 7,
        catalog_files: 200,
        emule_kad_external: 50,
        bt_dht_external: 50,
        duration: SimDuration::from_hours(6),
        ..CampusConfig::default()
    }
}

fn storm_cfg(bots: usize) -> StormConfig {
    StormConfig {
        n_bots: bots,
        external_population: 90,
        duration: SimDuration::from_hours(6),
        ..StormConfig::default()
    }
}

#[test]
fn tdg_finds_p2p_participation_but_mixes_traders_and_bots() {
    let cfg = campus();
    let day = build_day(&cfg, 0);
    let storm = generate_storm_trace(&storm_cfg(6), 1);
    let overlaid = overlay_bots(&day, &[&storm], 2);
    let tdg_cfg = TdgConfig {
        min_avg_degree: 1.3,
        min_nodes: 10,
        ..TdgConfig::default()
    };
    let report = tdg_scan(&overlaid.flows, |ip| day.is_internal(ip), &tdg_cfg);

    // It identifies P2P participants…
    assert!(!report.p2p_hosts.is_empty());
    let traders: HashSet<Ipv4Addr> = day.trader_hosts().into_iter().collect();
    let bots: HashSet<Ipv4Addr> = overlaid.implants.keys().copied().collect();
    let traders_found = report.p2p_hosts.intersection(&traders).count();
    let bots_found = report.p2p_hosts.intersection(&bots).count();
    assert!(
        traders_found >= 3,
        "TDG missed the traders: {traders_found}"
    );
    assert!(bots_found >= 3, "TDG missed the bots: {bots_found}");
    // …with good precision (background hosts rarely look P2P).
    let fp = report
        .p2p_hosts
        .iter()
        .filter(|ip| !traders.contains(ip) && !bots.contains(ip))
        .count();
    assert!(
        fp * 4 <= report.p2p_hosts.len(),
        "TDG precision collapsed: {fp}/{}",
        report.p2p_hosts.len()
    );
}

#[test]
fn per_service_split_unmasks_stealth_bots_hiding_on_traders() {
    // The §VI adversarial scenario exactly as `extension_perport` evaluates
    // it at paper scale: a *stealthy* Storm variant implanted only onto
    // active Traders. Percentile thresholds over pseudo-host populations
    // need paper-scale host counts to be stable (see README caveats), so
    // this test runs the full default campus — it is the slowest test in
    // the suite by design.
    let cfg = CampusConfig::default();
    let day = build_day(&cfg, 0);
    let stealth = StormConfig {
        day: 0,
        duration: cfg.duration,
        peer_list_size: 10,
        ping_interval: SimDuration::from_secs(300),
        search_interval: SimDuration::from_secs(1800),
        publicize_interval: SimDuration::from_secs(3600),
        ..StormConfig::default()
    };
    let storm = generate_storm_trace(&stealth, cfg.seed ^ 0x5701);
    let active: HashSet<Ipv4Addr> = day.active_hosts().into_iter().collect();
    let targets: Vec<Ipv4Addr> = day
        .trader_hosts()
        .into_iter()
        .filter(|ip| active.contains(ip))
        .take(storm.bots.len())
        .collect();
    let overlaid = overlay_bots_onto(&day, &[&storm], &targets);
    let bots: HashSet<Ipv4Addr> = targets.iter().copied().collect();

    let per = find_plotters_per_service(
        &overlaid.flows,
        |ip| day.is_internal(ip),
        &FindPlottersConfig::default(),
        25,
    );
    assert!(
        per.pseudo_hosts > day.active_hosts().len(),
        "per-service split produced no extra slices"
    );
    let hits = per.suspects.intersection(&bots).count();
    assert!(
        hits * 2 >= bots.len(),
        "per-service missed the hidden bots: {hits}/{}",
        bots.len()
    );
    // Detection must attribute to the Overnet control-channel slice.
    assert!(
        per.flagged_services
            .iter()
            .any(|(ip, svc)| bots.contains(ip) && svc.port == 7871),
        "no bot flagged on udp/7871"
    );
    // The report's pseudo-host mapping is consistent.
    for pseudo in &per.inner.suspects {
        assert!(per.resolve(*pseudo).is_some());
    }
}

#[test]
fn multiday_corroboration_reduces_false_positives() {
    let cfg = campus();
    let storm = generate_storm_trace(&storm_cfg(5), 5);
    // Fixed infected hosts across three days.
    let day0 = build_day(&cfg, 0);
    let targets: Vec<Ipv4Addr> = day0.active_hosts().into_iter().take(5).collect();
    let positives: HashSet<Ipv4Addr> = targets.iter().copied().collect();

    let mut reports = Vec::new();
    for d in 0..3 {
        let day = build_day(&cfg, d);
        let overlaid = overlay_bots_onto(&day, &[&storm], &targets);
        reports.push(
            try_find_plotters_table_tier(
                &FlowTable::from_records(&overlaid.flows),
                |ip| day.is_internal(ip),
                &FindPlottersConfig::default(),
                ProfileTier::Exact,
                1,
            )
            .expect("every threshold resolves"),
        );
    }
    let md = MultiDayReport::from_reports(reports.iter());
    let r1 = md.rates_at(1, &positives);
    let r3 = md.rates_at(3, &positives);
    // Corroboration can only reduce both counts; FP must shrink strictly
    // unless there were none to begin with.
    assert!(r3.false_positives <= r1.false_positives);
    assert!(r3.true_positives <= r1.true_positives);
    if r1.false_positives > 0 {
        assert!(
            r3.false_positives < r1.false_positives,
            "three-day corroboration did not remove any of the {} FPs",
            r1.false_positives
        );
    }
}
