//! A full paper-scale evaluation day: ~1100-host campus, Storm *and*
//! Nugache implanted, stage-by-stage pipeline report plus ground-truth
//! labelling via payload signatures (the paper's §III method).
//!
//! ```sh
//! cargo run --release --example campus_day
//! ```

use std::collections::HashSet;
use std::net::Ipv4Addr;

use peerwatch::botnet::BotFamily;
use peerwatch::data::{label_traders_by_payload, run_experiment, ExperimentConfig};
use peerwatch::detect::{try_find_plotters_table_tier, FindPlottersConfig, ProfileTier};

fn main() {
    let cfg = ExperimentConfig {
        days: 1,
        ..ExperimentConfig::default()
    };
    println!("building 1 paper-scale day (~1100 hosts, three DHT overlays)…");
    let runs = run_experiment(&cfg);
    let run = &runs[0];
    let overlaid = &run.overlaid;
    let base = &overlaid.base;
    println!("{} border flows", overlaid.flows.len());

    let table = run.flow_table();
    println!("{} distinct hosts interned", table.hosts().len());

    // Ground truth the way the paper builds it: scan the 64 payload bytes.
    let payload_traders = label_traders_by_payload(&overlaid.flows, |ip| base.is_internal(ip), 1);
    println!(
        "\npayload-signature scan labelled {} Trader hosts:",
        payload_traders.len()
    );
    let mut per_app: std::collections::BTreeMap<String, usize> = Default::default();
    for app in payload_traders.values() {
        *per_app.entry(app.to_string()).or_default() += 1;
    }
    for (app, n) in &per_app {
        println!("  {app}: {n}");
    }

    // Run the detector over the table.
    let report = try_find_plotters_table_tier(
        &table,
        |ip| base.is_internal(ip),
        &FindPlottersConfig::default(),
        ProfileTier::Exact,
        1,
    )
    .expect("a campus day resolves every threshold");
    let storm: HashSet<Ipv4Addr> = overlaid
        .implanted_hosts(BotFamily::Storm)
        .into_iter()
        .collect();
    let nugache: HashSet<Ipv4Addr> = overlaid
        .implanted_hosts(BotFamily::Nugache)
        .into_iter()
        .collect();

    let count = |set: &HashSet<Ipv4Addr>, of: &HashSet<Ipv4Addr>| set.intersection(of).count();
    let stages: [(&str, &HashSet<Ipv4Addr>); 5] = [
        ("after data reduction", &report.after_reduction),
        ("S_vol (low volume)", &report.s_vol),
        ("S_churn (low churn)", &report.s_churn),
        ("S_vol ∪ S_churn", &report.union),
        ("suspects (θ_hm)", &report.suspects),
    ];
    println!(
        "\n{:<22} {:>6} {:>6} {:>8}",
        "stage", "hosts", "storm", "nugache"
    );
    println!("{:-<46}", "");
    for (name, set) in stages {
        println!(
            "{name:<22} {:>6} {:>4}/{} {:>6}/{}",
            set.len(),
            count(set, &storm),
            storm.len(),
            count(set, &nugache),
            nugache.len()
        );
    }

    let implanted: HashSet<Ipv4Addr> = overlaid.implants.keys().copied().collect();
    // Sorted, so every run prints the same ten.
    let mut fp: Vec<&Ipv4Addr> = report.suspects.difference(&implanted).collect();
    fp.sort_unstable();
    println!("\nfalse positives: {} hosts", fp.len());
    for ip in fp.iter().take(10) {
        let role = base
            .hosts
            .get(ip)
            .map(|h| format!("{:?}", h.role))
            .unwrap_or_default();
        println!("  {ip} ({role})");
    }
    println!(
        "\nθ_hm clusters kept: τ = {:.1}s over {} clusters",
        report.hm.tau,
        report.hm.clusters.len()
    );
}
