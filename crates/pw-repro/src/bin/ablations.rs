//! Ablation study for the design choices DESIGN.md calls out:
//!
//! 1. Freedman–Diaconis bin width (paper) vs a fixed bin width;
//! 2. Earth Mover's Distance (paper) vs plain L1 histogram distance;
//! 3. minimum kept-cluster size 3 (our documented inference) vs 2;
//! 4. dynamic percentile thresholds (paper) vs fixed absolute thresholds;
//! 5. the top-5 % dendrogram link cut (paper) vs 2 % and 10 %.
//!
//! Each variant runs the full pipeline over every day; the table reports
//! detection and false-positive rates so the contribution of each decision
//! is measurable.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use peerwatch::outln;
use pw_detect::{
    find_plotters_from_table, FindPlottersConfig, HistogramDistance, HmOptions, Threshold,
};
use pw_repro::{build_context, stages, table, Context, Scale};

struct Variant {
    name: &'static str,
    tau_vol: Threshold,
    tau_churn: Threshold,
    hm: HmOptions,
    cut_fraction: f64,
}

fn run_variant(ctx: &Context, v: &Variant) -> (f64, f64, f64) {
    let mut storm_tprs = Vec::new();
    let mut nugache_tprs = Vec::new();
    let mut fprs = Vec::new();
    for day in &ctx.days {
        let (reduced, _) = stages::reduce(&day.profiles);
        let (s_vol, _) = stages::vol(&day.profiles, &reduced, v.tau_vol);
        let (s_churn, _) = stages::churn(&day.profiles, &reduced, v.tau_churn);
        let union: HashSet<Ipv4Addr> = s_vol.union(&s_churn).copied().collect();
        let hm = stages::hm_with_options(
            &day.profiles,
            &union,
            Threshold::Percentile(70.0),
            v.cut_fraction,
            &v.hm,
        );
        storm_tprs.push(
            hm.kept.intersection(&day.storm_hosts).count() as f64
                / day.storm_hosts.len().max(1) as f64,
        );
        nugache_tprs.push(
            hm.kept.intersection(&day.nugache_hosts).count() as f64
                / day.nugache_hosts.len().max(1) as f64,
        );
        let negatives = day.profiles.len() - day.implanted.len();
        fprs.push(hm.kept.difference(&day.implanted).count() as f64 / negatives.max(1) as f64);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&storm_tprs), mean(&nugache_tprs), mean(&fprs))
}

fn main() {
    let ctx = build_context(Scale::from_env());
    let paper = Variant {
        name: "paper (FD + EMD + size≥3 + dynamic τ + 5% cut)",
        tau_vol: Threshold::Percentile(50.0),
        tau_churn: Threshold::Percentile(50.0),
        hm: HmOptions::default(),
        cut_fraction: 0.05,
    };
    let variants = [
        paper,
        Variant {
            name: "fixed 60 s bin width",
            tau_vol: Threshold::Percentile(50.0),
            tau_churn: Threshold::Percentile(50.0),
            hm: HmOptions {
                bin_width: Some(60.0),
                ..Default::default()
            },
            cut_fraction: 0.05,
        },
        Variant {
            name: "L1 distance instead of EMD",
            tau_vol: Threshold::Percentile(50.0),
            tau_churn: Threshold::Percentile(50.0),
            hm: HmOptions {
                distance: HistogramDistance::L1,
                ..Default::default()
            },
            cut_fraction: 0.05,
        },
        Variant {
            name: "min cluster size 2",
            tau_vol: Threshold::Percentile(50.0),
            tau_churn: Threshold::Percentile(50.0),
            hm: HmOptions {
                min_cluster_size: 2,
                ..Default::default()
            },
            cut_fraction: 0.05,
        },
        Variant {
            name: "fixed absolute τ_vol/τ_churn",
            tau_vol: Threshold::Absolute(2_000.0),
            tau_churn: Threshold::Absolute(0.80),
            hm: HmOptions::default(),
            cut_fraction: 0.05,
        },
        Variant {
            name: "dendrogram cut 2% of links",
            tau_vol: Threshold::Percentile(50.0),
            tau_churn: Threshold::Percentile(50.0),
            hm: HmOptions::default(),
            cut_fraction: 0.02,
        },
        Variant {
            name: "dendrogram cut 10% of links",
            tau_vol: Threshold::Percentile(50.0),
            tau_churn: Threshold::Percentile(50.0),
            hm: HmOptions::default(),
            cut_fraction: 0.10,
        },
    ];
    let mut rows = Vec::new();
    for v in &variants {
        let (s, n, f) = run_variant(&ctx, v);
        rows.push(vec![
            v.name.to_string(),
            table::pct(s),
            table::pct(n),
            table::pct(f),
        ]);
    }
    outln!(
        "{}",
        table::render(
            "Ablations — pipeline outcomes per design variant",
            &["variant", "storm TPR", "nugache TPR", "FPR"],
            &rows
        )
    );

    // Also quantify what the volume test alone would do (§I: "examining
    // volume alone yields many false positives").
    let mut rows = Vec::new();
    for p in [50.0, 70.0, 90.0] {
        let mut tprs = Vec::new();
        let mut fprs = Vec::new();
        for day in &ctx.days {
            let (reduced, _) = stages::reduce(&day.profiles);
            let (s_vol, _) = stages::vol(&day.profiles, &reduced, Threshold::Percentile(p));
            let bots: HashSet<Ipv4Addr> =
                day.storm_hosts.union(&day.nugache_hosts).copied().collect();
            tprs.push(s_vol.intersection(&bots).count() as f64 / bots.len() as f64);
            let negatives = day.profiles.len() - bots.len();
            fprs.push(s_vol.difference(&bots).count() as f64 / negatives.max(1) as f64);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        rows.push(vec![
            format!("θ_vol alone @ p{p:.0}"),
            table::pct(mean(&tprs)),
            table::pct(mean(&fprs)),
        ]);
    }
    let full = {
        let mut tprs = Vec::new();
        let mut fprs = Vec::new();
        for day in &ctx.days {
            let report = find_plotters_from_table(&day.profiles, &FindPlottersConfig::default());
            let bots: HashSet<Ipv4Addr> =
                day.storm_hosts.union(&day.nugache_hosts).copied().collect();
            tprs.push(report.suspects.intersection(&bots).count() as f64 / bots.len() as f64);
            let negatives = day.profiles.len() - bots.len();
            fprs.push(report.suspects.difference(&bots).count() as f64 / negatives.max(1) as f64);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        (mean(&tprs), mean(&fprs))
    };
    rows.push(vec![
        "full FindPlotters".into(),
        table::pct(full.0),
        table::pct(full.1),
    ]);
    outln!(
        "{}",
        table::render(
            "Single-test baseline vs the composed pipeline (all bots)",
            &["detector", "TPR", "FPR"],
            &rows
        )
    );
}
