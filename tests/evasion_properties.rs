//! Directional properties of the §VI evasion rewrites on real traces.

use peerwatch::botnet::{
    apply_evasion, generate_storm_trace, BotTrace, EvasionConfig, StormConfig,
};
use peerwatch::detect::{extract_profiles_table_par_tier, HostProfile, ProfileTable, ProfileTier};
use peerwatch::flow::FlowTable;
use peerwatch::netsim::SimDuration;

fn trace() -> BotTrace {
    generate_storm_trace(
        &StormConfig {
            n_bots: 4,
            external_population: 70,
            duration: SimDuration::from_hours(4),
            ..StormConfig::default()
        },
        13,
    )
}

fn trace_profiles(t: &BotTrace) -> ProfileTable {
    let ips: std::collections::HashSet<_> = t.bots.iter().map(|b| b.ip).collect();
    let mut flows: Vec<_> = t
        .bots
        .iter()
        .flat_map(|b| b.flows.iter().copied())
        .collect();
    flows.sort_by_key(|f| (f.start, f.src, f.sport, f.dst, f.dport));
    flows.dedup();
    extract_profiles_table_par_tier(
        &FlowTable::from_records(&flows),
        |ip| ips.contains(&ip),
        ProfileTier::Exact,
        1,
    )
}

#[test]
fn volume_multiplier_raises_avg_upload_monotonically() {
    let base = trace();
    let mut last = 0.0;
    for mult in [1.0, 2.0, 4.0, 8.0] {
        let t = apply_evasion(
            &base,
            &EvasionConfig {
                volume_multiplier: mult,
                ..Default::default()
            },
            1,
        );
        let profiles = trace_profiles(&t);
        let mean: f64 = profiles
            .profiles()
            .iter()
            .filter_map(HostProfile::avg_upload_per_flow)
            .sum::<f64>()
            / profiles.len() as f64;
        assert!(mean > last, "not monotone at x{mult}: {mean} <= {last}");
        last = mean;
    }
}

#[test]
fn new_peer_multiplier_raises_churn() {
    let base = trace();
    let base_churn: f64 = {
        let p = trace_profiles(&base);
        p.profiles()
            .iter()
            .filter_map(HostProfile::new_ip_fraction)
            .sum::<f64>()
            / p.len() as f64
    };
    let evaded = apply_evasion(
        &base,
        &EvasionConfig {
            new_peer_multiplier: 3.0,
            ..Default::default()
        },
        2,
    );
    let evaded_churn: f64 = {
        let p = trace_profiles(&evaded);
        p.profiles()
            .iter()
            .filter_map(HostProfile::new_ip_fraction)
            .sum::<f64>()
            / p.len() as f64
    };
    assert!(
        evaded_churn > base_churn + 0.1,
        "churn barely moved: {base_churn} -> {evaded_churn}"
    );
    // The extra probes are failures: failed rate must rise too (the
    // stealth cost the paper predicts).
    let base_failed: f64 = {
        let p = trace_profiles(&base);
        p.profiles()
            .iter()
            .filter_map(HostProfile::failed_rate)
            .sum::<f64>()
            / p.len() as f64
    };
    let evaded_failed: f64 = {
        let p = trace_profiles(&evaded);
        p.profiles()
            .iter()
            .filter_map(HostProfile::failed_rate)
            .sum::<f64>()
            / p.len() as f64
    };
    assert!(evaded_failed > base_failed);
}

#[test]
fn jitter_spreads_interstitial_times() {
    let base = trace();
    let spread = |t: &BotTrace| -> f64 {
        let p = trace_profiles(t);
        let all: Vec<f64> = p
            .profiles()
            .iter()
            .flat_map(|h| h.interstitials().iter().copied())
            .collect();
        pw_analysis_iqr(&all)
    };
    let tight = spread(&base);
    let evaded = apply_evasion(
        &base,
        &EvasionConfig::jitter_only(SimDuration::from_mins(10)),
        3,
    );
    let loose = spread(&evaded);
    assert!(
        loose > tight * 1.5,
        "jitter did not widen the distribution: IQR {tight} -> {loose}"
    );
}

fn pw_analysis_iqr(xs: &[f64]) -> f64 {
    peerwatch::analysis::iqr(xs).unwrap_or(0.0)
}

#[test]
fn jitter_preserves_flow_count_and_volume() {
    let base = trace();
    let evaded = apply_evasion(
        &base,
        &EvasionConfig::jitter_only(SimDuration::from_mins(30)),
        4,
    );
    assert_eq!(base.total_flows(), evaded.total_flows());
    let bytes = |t: &BotTrace| -> u64 {
        t.bots
            .iter()
            .flat_map(|b| b.flows.iter().map(|f| f.src_bytes + f.dst_bytes))
            .sum()
    };
    assert_eq!(bytes(&base), bytes(&evaded));
}
