//! Multi-day corroboration (operational extension): how precision improves
//! when a host must be flagged on k of the 8 days before the operator acts.
//!
//! Plotters are persistent — the same infected host is flagged day after
//! day — while the residual false positives are hosts whose timing
//! *coincidentally* clustered, which rarely repeats. (In this experiment
//! the bot stays on the same host across days, modelling a real infection
//! rather than the paper's per-day random re-implant.)

use std::collections::HashSet;
use std::net::Ipv4Addr;

use pw_botnet::{generate_nugache_trace, generate_storm_trace, StormConfig};
use pw_data::{build_day, overlay_bots_onto};
use pw_detect::{try_find_plotters_table_tier, FindPlottersConfig, MultiDayReport, ProfileTier};
use pw_flow::FlowTable;
use pw_repro::{table, Scale};

fn main() {
    let cfg = Scale::from_env().config();
    let total_bots = cfg.storm.n_bots + cfg.nugache.n_bots;

    // Fixed infected hosts for the whole week: take them from day 0's
    // always-active roster.
    let day0 = build_day(&cfg.campus, 0);
    let targets: Vec<Ipv4Addr> = day0.active_hosts().into_iter().take(total_bots).collect();
    let storm_hosts: HashSet<Ipv4Addr> = targets[..cfg.storm.n_bots].iter().copied().collect();
    let nugache_hosts: HashSet<Ipv4Addr> = targets[cfg.storm.n_bots..].iter().copied().collect();
    let positives: HashSet<Ipv4Addr> = targets.iter().copied().collect();

    let mut reports = Vec::new();
    for d in 0..cfg.days {
        let day = build_day(&cfg.campus, d);
        let storm = generate_storm_trace(
            &StormConfig {
                day: d as u64,
                ..cfg.storm.clone()
            },
            cfg.campus.seed ^ 0x5701 ^ d as u64,
        );
        let nugache = generate_nugache_trace(&cfg.nugache, cfg.campus.seed ^ 0x4106 ^ d as u64);
        // Same hosts every day; traces are fresh (the bot keeps running).
        let overlaid = overlay_bots_onto(&day, &[&storm, &nugache], &targets);
        let rep = try_find_plotters_table_tier(
            &FlowTable::from_records(&overlaid.flows),
            |ip| day.is_internal(ip),
            &FindPlottersConfig::default(),
            ProfileTier::Exact,
            1,
        )
        .expect("a campus day resolves every threshold");
        eprintln!(
            "day {d}: storm {}/{} nugache {}/{} suspects {}",
            rep.suspects.intersection(&storm_hosts).count(),
            storm_hosts.len(),
            rep.suspects.intersection(&nugache_hosts).count(),
            nugache_hosts.len(),
            rep.suspects.len()
        );
        reports.push(rep);
    }

    let md = MultiDayReport::from_reports(reports.iter());
    let mut rows = Vec::new();
    for k in 1..=cfg.days {
        let flagged: HashSet<Ipv4Addr> = md.flagged_at_least(k).into_iter().collect();
        let storm_tpr =
            flagged.intersection(&storm_hosts).count() as f64 / storm_hosts.len() as f64;
        let nugache_tpr =
            flagged.intersection(&nugache_hosts).count() as f64 / nugache_hosts.len() as f64;
        let rates = md.rates_at(k, &positives);
        rows.push(vec![
            format!("≥{k} of {}", cfg.days),
            table::pct(storm_tpr),
            table::pct(nugache_tpr),
            table::pct_opt(rates.fpr()),
            flagged.len().to_string(),
        ]);
    }
    println!(
        "{}",
        table::render(
            "Multi-day corroboration — flag a host only if detected on ≥k days",
            &["rule", "storm TPR", "nugache TPR", "FPR", "hosts flagged"],
            &rows
        )
    );
    println!("Two effects compose here. First, single-day θ_hm verdicts are volatile —");
    println!("the bot cluster survives the diameter cut on some days and not others —");
    println!("so any one day can miss everything. Second, background false positives");
    println!("rarely repeat across days (the ≥1 union FPR is several times the per-day");
    println!("rate), while infected hosts are re-flagged every day the cluster survives.");
    println!("A 3-of-8 rule therefore reaches 100% Storm detection at sub-1% FPR at our");
    println!("campus scale — the paper's FP regime — without touching the detector.");
}
