//! Reproducibility: every layer of the system is a pure function of its
//! seed, so whole experiments replay bit-for-bit.

use peerwatch::botnet::{generate_nugache_trace, generate_storm_trace, NugacheConfig, StormConfig};
use peerwatch::data::{build_day, overlay_bots, CampusConfig};
use peerwatch::detect::{try_find_plotters_table_tier, FindPlottersConfig, ProfileTier};
use peerwatch::flow::FlowTable;
use peerwatch::netsim::SimDuration;

fn campus(seed: u64) -> CampusConfig {
    CampusConfig {
        seed,
        n_background: 60,
        n_gnutella: 3,
        n_emule: 2,
        n_bittorrent: 3,
        catalog_files: 100,
        emule_kad_external: 40,
        bt_dht_external: 40,
        duration: SimDuration::from_hours(4),
        ..CampusConfig::default()
    }
}

#[test]
fn full_run_is_bit_for_bit_reproducible() {
    let run = || {
        let day = build_day(&campus(42), 0);
        let storm = generate_storm_trace(
            &StormConfig {
                n_bots: 3,
                external_population: 60,
                duration: SimDuration::from_hours(4),
                ..StormConfig::default()
            },
            1,
        );
        let nugache = generate_nugache_trace(
            &NugacheConfig {
                n_bots: 6,
                duration: SimDuration::from_hours(4),
                ..Default::default()
            },
            2,
        );
        let overlaid = overlay_bots(&day, &[&storm, &nugache], 9);
        let report = try_find_plotters_table_tier(
            &FlowTable::from_records(&overlaid.flows),
            |ip| day.is_internal(ip),
            &FindPlottersConfig::default(),
            ProfileTier::Exact,
            1,
        )
        .expect("every threshold resolves");
        (overlaid.flows, overlaid.implants, report.suspects)
    };
    let (flows_a, implants_a, suspects_a) = run();
    let (flows_b, implants_b, suspects_b) = run();
    assert_eq!(flows_a.len(), flows_b.len());
    assert_eq!(flows_a, flows_b);
    assert_eq!(implants_a, implants_b);
    assert_eq!(suspects_a, suspects_b);
}

#[test]
fn different_seeds_produce_different_traffic() {
    let a = build_day(&campus(1), 0);
    let b = build_day(&campus(2), 0);
    assert_ne!(a.flows.len(), b.flows.len());
}

#[test]
fn flow_csv_round_trips_a_generated_day() {
    let day = build_day(&campus(7), 0);
    let mut buf = Vec::new();
    peerwatch::flow::csvio::write_flows(&mut buf, &day.flows).expect("write");
    let back = peerwatch::flow::csvio::read_flows(buf.as_slice()).expect("read");
    assert_eq!(back, day.flows);
}

#[test]
fn detection_is_stable_across_csv_round_trip() {
    // Serializing and re-loading the dataset must not change the verdict.
    let day = build_day(&campus(11), 0);
    let storm = generate_storm_trace(
        &StormConfig {
            n_bots: 3,
            external_population: 60,
            duration: SimDuration::from_hours(4),
            ..StormConfig::default()
        },
        4,
    );
    let overlaid = overlay_bots(&day, &[&storm], 5);
    let direct = try_find_plotters_table_tier(
        &FlowTable::from_records(&overlaid.flows),
        |ip| day.is_internal(ip),
        &FindPlottersConfig::default(),
        ProfileTier::Exact,
        1,
    )
    .expect("every threshold resolves");
    let mut buf = Vec::new();
    peerwatch::flow::csvio::write_flows(&mut buf, &overlaid.flows).expect("write");
    let reloaded = peerwatch::flow::csvio::read_flows(buf.as_slice()).expect("read");
    let indirect = try_find_plotters_table_tier(
        &FlowTable::from_records(&reloaded),
        |ip| day.is_internal(ip),
        &FindPlottersConfig::default(),
        ProfileTier::Exact,
        1,
    )
    .expect("every threshold resolves");
    assert_eq!(direct.suspects, indirect.suspects);
    assert_eq!(direct.tau_vol, indirect.tau_vol);
    assert_eq!(direct.tau_churn, indirect.tau_churn);
}
