//! Figure 1: CDF of the average flow size (bytes uploaded per flow) per
//! host, for the CMU, Trader, Storm, and Nugache datasets.

use peerwatch::outln;
use pw_repro::figures::fig01_volume_cdfs;
use pw_repro::{build_context, table, Scale};

fn main() {
    let ctx = build_context(Scale::from_env());
    let series = fig01_volume_cdfs(&ctx);
    let qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99];
    let mut rows = Vec::new();
    for s in &series {
        let mut row = vec![s.name.clone(), s.values.len().to_string()];
        for (_, v) in s.quantiles(&qs) {
            row.push(v.map_or_else(|| "-".into(), |x| format!("{x:.0}")));
        }
        rows.push(row);
    }
    outln!(
        "{}",
        table::render(
            "Figure 1 — avg bytes uploaded per flow, per host (quantiles)",
            &["dataset", "hosts", "q10", "q25", "q50", "q75", "q90", "q99"],
            &rows
        )
    );
    outln!("Paper shape: Plotters (Storm, Nugache) far left of CMU; Traders far right.");
}
