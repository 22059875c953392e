//! End-to-end integration: campus generation → overlay → detection.
//!
//! These run at a reduced scale so they are debug-build friendly; the
//! paper-scale numbers are produced by the `pw-repro` binaries.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use peerwatch::botnet::{
    generate_nugache_trace, generate_storm_trace, BotFamily, NugacheConfig, StormConfig,
};
use peerwatch::data::{build_day, label_traders_by_payload, overlay_bots, CampusConfig, HostRole};
use peerwatch::detect::{
    extract_profiles_table_par_tier, try_find_plotters_table_tier, FindPlottersConfig, ProfileTier,
    Threshold,
};
use peerwatch::flow::signatures::P2pApp;
use peerwatch::flow::FlowTable;
use peerwatch::netsim::SimDuration;

fn small_campus() -> CampusConfig {
    CampusConfig {
        seed: 1234,
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

#[test]
fn pipeline_detects_implanted_storm_with_bounded_false_positives() {
    let campus = small_campus();
    let day = build_day(&campus, 0);
    let storm = generate_storm_trace(
        &StormConfig {
            n_bots: 8,
            external_population: 90,
            duration: campus.duration,
            ..StormConfig::default()
        },
        5,
    );
    let nugache = generate_nugache_trace(
        &NugacheConfig {
            n_bots: 20,
            duration: campus.duration,
            ..NugacheConfig::default()
        },
        6,
    );
    let overlaid = overlay_bots(&day, &[&storm, &nugache], 77);
    // At this reduced scale the θ_hm stage degenerates under its default
    // percentile threshold: the union survivors collapse into exactly two
    // clusters (diameters ≈1828 s and ≈2741 s), so Percentile(70) always
    // interpolates a cutoff between them and rejects the wider cluster —
    // the one holding the Storm bots — regardless of the data. Pin the
    // diameter cutoff above both so the cluster structure itself (not a
    // two-point interpolation artifact) decides.
    let cfg = FindPlottersConfig {
        tau_hm: Threshold::Absolute(3000.0),
        ..Default::default()
    };
    cfg.validate().expect("valid config");
    let report = try_find_plotters_table_tier(
        &FlowTable::from_records(&overlaid.flows),
        |ip| day.is_internal(ip),
        &cfg,
        ProfileTier::Exact,
        1,
    )
    .expect("every threshold resolves");

    let storm_hosts: HashSet<Ipv4Addr> = overlaid
        .implanted_hosts(BotFamily::Storm)
        .into_iter()
        .collect();
    let hit = report.suspects.intersection(&storm_hosts).count();
    assert!(
        hit * 2 >= storm_hosts.len(),
        "storm detection too low at test scale: {hit}/{}",
        storm_hosts.len()
    );

    let implanted: HashSet<Ipv4Addr> = overlaid.implants.keys().copied().collect();
    let fp = report.suspects.difference(&implanted).count();
    let negatives = report.all_hosts.len() - implanted.len();
    assert!(
        (fp as f64) < 0.25 * negatives as f64,
        "false positives out of control: {fp}/{negatives}"
    );
}

#[test]
fn payload_labelling_agrees_with_generator_ground_truth() {
    let campus = small_campus();
    let day = build_day(&campus, 0);
    let labels = label_traders_by_payload(&day.flows, |ip| day.is_internal(ip), 3);
    let truth: HashSet<Ipv4Addr> = day.trader_hosts().into_iter().collect();

    // Everything the payload scan labels must actually be a trader
    // (background hosts never emit P2P signatures).
    for (ip, app) in &labels {
        assert!(
            truth.contains(ip),
            "payload scan labelled non-trader {ip} as {app}"
        );
        let role = day.hosts[ip].role;
        assert_eq!(role, HostRole::Trader(*app), "protocol mismatch for {ip}");
    }
    // And it must find a decent share of the active traders.
    let active_traders = day
        .trader_hosts()
        .iter()
        .filter(|ip| day.hosts[*ip].active)
        .count();
    assert!(
        labels.len() * 2 >= active_traders,
        "payload scan found only {} of {} active traders",
        labels.len(),
        active_traders
    );
}

#[test]
fn implanted_host_profiles_inherit_bot_features() {
    let campus = small_campus();
    let day = build_day(&campus, 0);
    let storm = generate_storm_trace(
        &StormConfig {
            n_bots: 4,
            external_population: 80,
            duration: campus.duration,
            ..StormConfig::default()
        },
        9,
    );
    let overlaid = overlay_bots(&day, &[&storm], 3);
    let extract = |flows| {
        extract_profiles_table_par_tier(
            &FlowTable::from_records(flows),
            |ip| day.is_internal(ip),
            ProfileTier::Exact,
            1,
        )
    };
    let profiles = extract(&overlaid.flows);
    let base_profiles = extract(&day.flows);

    for host in overlaid.implanted_hosts(BotFamily::Storm) {
        let with_bot = profiles.get(host).expect("implant has a profile");
        // The bot's chatter dominates the host's own traffic volume…
        let base_flows = base_profiles.get(host).map_or(0, |p| p.flows_involving);
        assert!(
            with_bot.flows_involving > base_flows + 500,
            "bot flows missing at {host}: {} vs base {base_flows}",
            with_bot.flows_involving
        );
        // …and drags the average upload per flow down to control-message size.
        assert!(
            with_bot.avg_upload_per_flow().unwrap() < 2_000.0,
            "implanted host volume not bot-like"
        );
    }
}

#[test]
fn trader_dhts_run_on_the_real_overlay() {
    let campus = small_campus();
    let day = build_day(&campus, 0);
    // eMule traders must emit Kad UDP traffic with eDonkey framing; BT
    // traders must emit bencoded Mainline-DHT datagrams.
    let mut kad_flows = 0;
    let mut dht_flows = 0;
    for f in &day.flows {
        if f.proto == peerwatch::flow::Proto::Udp {
            match peerwatch::flow::signatures::classify_flow(f) {
                Some(P2pApp::Emule) => kad_flows += 1,
                Some(P2pApp::BitTorrent) => dht_flows += 1,
                _ => {}
            }
        }
    }
    assert!(kad_flows > 20, "eMule Kad UDP flows missing: {kad_flows}");
    assert!(
        dht_flows > 20,
        "Mainline DHT UDP flows missing: {dht_flows}"
    );
}

#[test]
fn reduction_threshold_is_population_relative() {
    let campus = small_campus();
    let day = build_day(&campus, 0);
    let report = try_find_plotters_table_tier(
        &FlowTable::from_records(&day.flows),
        |ip| day.is_internal(ip),
        &FindPlottersConfig::default(),
        ProfileTier::Exact,
        1,
    )
    .expect("every threshold resolves");
    // Roughly half of eligible hosts survive a median split.
    let all = report.all_hosts.len() as f64;
    let kept = report.after_reduction.len() as f64;
    assert!(
        kept > 0.3 * all && kept < 0.7 * all,
        "median split off: {kept}/{all}"
    );
    assert!(report.reduction_threshold > 0.0 && report.reduction_threshold < 1.0);
}
