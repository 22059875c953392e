//! Figure 10: CDFs of the flow counts of Nugache bots surviving each test
//! (log10 axis in the paper), accumulated over all days.

use peerwatch::outln;
use pw_repro::figures::fig10_nugache_flow_counts;
use pw_repro::{build_context, table, Scale};

fn main() {
    let ctx = build_context(Scale::from_env());
    let stages = fig10_nugache_flow_counts(&ctx);
    let qs = [0.1, 0.25, 0.5, 0.75, 0.9];
    let mut rows = Vec::new();
    for (name, counts) in &stages {
        let mut row = vec![name.clone(), counts.len().to_string()];
        let cdf = pw_analysis::Ecdf::new(counts.clone());
        for q in qs {
            row.push(
                cdf.quantile(q)
                    .map_or_else(|| "-".into(), |v| format!("{v:.0}")),
            );
        }
        rows.push(row);
    }
    outln!(
        "{}",
        table::render(
            "Figure 10 — flow counts of surviving Nugache bots (quantiles)",
            &["stage", "bots", "q10", "q25", "q50", "q75", "q90"],
            &rows
        )
    );
    outln!("Paper shape: each stage preferentially drops the *least* communicative bots,");
    outln!("so surviving bots have higher flow counts than the full population.");
}
