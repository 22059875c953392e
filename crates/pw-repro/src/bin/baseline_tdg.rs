//! Baseline comparison: the Traffic-Dispersion-Graph P2P identifier
//! (related work, §II) versus the paper's failed-connection-rate data
//! reduction, as the "find P2P hosts first" stage.
//!
//! The comparison makes the paper's §II point concrete: TDGs identify P2P
//! *participation* well, but they (a) need a global graph view and (b)
//! cannot separate Plotters from Traders — both land in the same dense
//! graphs — whereas the paper's behavioural tests go on to make exactly
//! that distinction.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use peerwatch::outln;
use pw_detect::{tdg_scan, TdgConfig};
use pw_repro::{build_context, stages, table, Scale};

fn main() {
    let ctx = build_context(Scale::from_env());
    // Campus-scale degree threshold (see pw-detect::tdg docs): density is
    // far below internet-wide TDGs, the structure (InO) is what transfers.
    let tdg_cfg = TdgConfig {
        min_avg_degree: 1.5,
        ..TdgConfig::default()
    };

    let mut rows = Vec::new();
    for (d, day) in ctx.days.iter().enumerate() {
        let base = &day.run.overlaid.base;
        let (reduced, _) = stages::reduce(&day.profiles);
        let report = tdg_scan(&day.run.overlaid.flows, |ip| base.is_internal(ip), &tdg_cfg);

        let p2p_truth: HashSet<Ipv4Addr> = day.traders.union(&day.implanted).copied().collect();
        let recall = |set: &HashSet<Ipv4Addr>| {
            set.intersection(&p2p_truth).count() as f64 / p2p_truth.len().max(1) as f64
        };
        let precision = |set: &HashSet<Ipv4Addr>| {
            if set.is_empty() {
                return 0.0;
            }
            set.intersection(&p2p_truth).count() as f64 / set.len() as f64
        };
        rows.push(vec![
            d.to_string(),
            format!(
                "{} ({:.0}%/{:.0}%)",
                reduced.len(),
                recall(&reduced) * 100.0,
                precision(&reduced) * 100.0
            ),
            format!(
                "{} ({:.0}%/{:.0}%)",
                report.p2p_hosts.len(),
                recall(&report.p2p_hosts) * 100.0,
                precision(&report.p2p_hosts) * 100.0
            ),
        ]);
    }
    outln!(
        "{}",
        table::render(
            "P2P-host identification: failed-rate reduction vs TDG (hosts kept (recall/precision))",
            &["day", "failed-rate reduction", "TDG classifier"],
            &rows
        )
    );

    // The §II punchline: inside the TDG-identified P2P set, Plotters and
    // Traders are indistinguishable — both participate in dense graphs.
    let day = &ctx.days[0];
    let base = &day.run.overlaid.base;
    let report = tdg_scan(&day.run.overlaid.flows, |ip| base.is_internal(ip), &tdg_cfg);
    let bots_in = report.p2p_hosts.intersection(&day.implanted).count();
    let traders_in = report.p2p_hosts.intersection(&day.traders).count();
    outln!(
        "day 0 TDG P2P set: {} hosts, containing {bots_in} Plotters and {traders_in} Traders —",
        report.p2p_hosts.len()
    );
    outln!("the graph alone offers no way to tell which is which; that separation is");
    outln!("precisely what the paper's volume/churn/timing tests contribute.");

    outln!("\nLargest service graphs on day 0:");
    let mut rows = Vec::new();
    for g in report.graphs.iter().take(10) {
        rows.push(vec![
            format!("{}/{}", g.proto, g.port),
            g.nodes.to_string(),
            g.edges.to_string(),
            format!("{:.2}", g.avg_degree),
            table::pct(g.ino_fraction),
            if g.looks_p2p(&tdg_cfg) {
                "P2P".into()
            } else {
                "-".into()
            },
        ]);
    }
    outln!(
        "{}",
        table::render(
            "TDG metrics per service",
            &["service", "nodes", "edges", "avg deg", "InO", "verdict"],
            &rows
        )
    );
}
