//! Extension experiment (§VI, "ongoing work" in the paper): Plotters that
//! selectively infect Traders so their control traffic hides behind heavy
//! file-sharing, and the per-port traffic-separation countermeasure.
//!
//! Three scenarios per day, comparing whole-host `FindPlotters` with the
//! per-service variant:
//!
//! 1. random implants (the paper's main evaluation setting);
//! 2. adversarial implants — every Storm bot lands on an active Trader;
//! 3. adversarial implants, detected per service.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use peerwatch::outln;
use pw_botnet::{generate_storm_trace, StormConfig};
use pw_data::{build_day, overlay_bots, overlay_bots_onto};
use pw_detect::{
    find_plotters_per_service, try_find_plotters_table_tier, FindPlottersConfig, PlotterReport,
    ProfileTier,
};
use pw_flow::{FlowRecord, FlowTable};
use pw_repro::{table, Scale};

/// Whole-host `FindPlotters` over one day's flows.
fn whole_host(
    flows: &[FlowRecord],
    is_internal: impl Fn(Ipv4Addr) -> bool + Sync,
    cfg: &FindPlottersConfig,
) -> PlotterReport {
    let table = FlowTable::from_records(flows);
    try_find_plotters_table_tier(&table, is_internal, cfg, ProfileTier::Exact, 1)
        .expect("a campus day resolves every threshold")
}

fn main() {
    let scale = Scale::from_env();
    let cfg = scale.config();
    let days = cfg.days.min(4); // per-service runs are ~3× the work
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 6];

    for d in 0..days {
        let day = build_day(&cfg.campus, d);
        // A *stealthy* Storm variant: quarter-rate keepalives and searches,
        // a small peer list — few hundred flows per window, little enough
        // for a heavy Trader's traffic to plausibly bury it.
        let storm_cfg = StormConfig {
            day: d as u64,
            duration: cfg.campus.duration,
            peer_list_size: 10,
            ping_interval: pw_netsim::SimDuration::from_secs(300),
            search_interval: pw_netsim::SimDuration::from_secs(1800),
            publicize_interval: pw_netsim::SimDuration::from_secs(3600),
            ..cfg.storm.clone()
        };
        let storm = generate_storm_trace(&storm_cfg, cfg.campus.seed ^ 0x5701 ^ d as u64);
        let pipeline_cfg = FindPlottersConfig::default();

        // Scenario 1: random implants, whole-host detection.
        let random = overlay_bots(&day, &[&storm], cfg.campus.seed ^ d as u64);
        let storm_hosts_r: HashSet<Ipv4Addr> = random.implants.keys().copied().collect();
        let whole_r = whole_host(&random.flows, |ip| day.is_internal(ip), &pipeline_cfg);
        let tpr_random = whole_r.suspects.intersection(&storm_hosts_r).count() as f64
            / storm_hosts_r.len() as f64;

        // Scenarios 2–3: every bot implanted onto an active Trader.
        let active: HashSet<Ipv4Addr> = day.active_hosts().into_iter().collect();
        let targets: Vec<Ipv4Addr> = day
            .trader_hosts()
            .into_iter()
            .filter(|ip| active.contains(ip))
            .take(storm.bots.len())
            .collect();
        assert!(
            targets.len() == storm.bots.len(),
            "not enough active traders to host every bot"
        );
        let adversarial = overlay_bots_onto(&day, &[&storm], &targets);
        let storm_hosts_a: HashSet<Ipv4Addr> = targets.iter().copied().collect();

        let whole_a = whole_host(&adversarial.flows, |ip| day.is_internal(ip), &pipeline_cfg);
        let tpr_whole = whole_a.suspects.intersection(&storm_hosts_a).count() as f64
            / storm_hosts_a.len() as f64;

        let per = find_plotters_per_service(
            &adversarial.flows,
            |ip| day.is_internal(ip),
            &pipeline_cfg,
            25,
        );
        let tpr_per =
            per.suspects.intersection(&storm_hosts_a).count() as f64 / storm_hosts_a.len() as f64;
        // Per-service FP: non-implanted hosts flagged.
        let fp_per = per.suspects.difference(&storm_hosts_a).count() as f64
            / (whole_a.all_hosts.len() - storm_hosts_a.len()) as f64;
        let fp_whole = whole_a.suspects.difference(&storm_hosts_a).count() as f64
            / (whole_a.all_hosts.len() - storm_hosts_a.len()) as f64;
        let overnet_flagged = per
            .flagged_services
            .iter()
            .filter(|(ip, svc)| storm_hosts_a.contains(ip) && svc.port == 7871)
            .count() as f64
            / storm_hosts_a.len() as f64;

        for (i, v) in [
            tpr_random,
            tpr_whole,
            tpr_per,
            fp_whole,
            fp_per,
            overnet_flagged,
        ]
        .into_iter()
        .enumerate()
        {
            sums[i] += v;
        }
        rows.push(vec![
            d.to_string(),
            table::pct(tpr_random),
            table::pct(tpr_whole),
            table::pct(tpr_per),
            table::pct(fp_whole),
            table::pct(fp_per),
        ]);
    }
    let n = days as f64;
    rows.push(vec![
        "mean".into(),
        table::pct(sums[0] / n),
        table::pct(sums[1] / n),
        table::pct(sums[2] / n),
        table::pct(sums[3] / n),
        table::pct(sums[4] / n),
    ]);
    outln!(
        "{}",
        table::render(
            "§VI extension — Storm hiding on Traders: whole-host vs per-service detection",
            &[
                "day",
                "random TPR",
                "on-trader TPR",
                "per-svc TPR",
                "whole FPR",
                "per-svc FPR"
            ],
            &rows
        )
    );
    outln!(
        "Of the adversarially placed bots, {} were flagged specifically on their",
        table::pct(sums[5] / n)
    );
    outln!("Overnet service slice (udp/7871) — the per-port split attributes the");
    outln!("detection to the control channel itself, not to the Trader's traffic.");
}
