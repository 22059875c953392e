//! Figure 5: CDF of the percentage of failed connections per host.

use peerwatch::outln;
use pw_repro::figures::fig05_failed_cdfs;
use pw_repro::{build_context, table, Scale};

fn main() {
    let ctx = build_context(Scale::from_env());
    let series = fig05_failed_cdfs(&ctx);
    let qs = [0.1, 0.25, 0.5, 0.75, 0.9];
    let mut rows = Vec::new();
    for s in &series {
        let mut row = vec![s.name.clone(), s.values.len().to_string()];
        for (_, v) in s.quantiles(&qs) {
            row.push(v.map_or_else(|| "-".into(), table::pct));
        }
        row.push(table::pct(1.0 - s.fraction_below(0.65)));
        rows.push(row);
    }
    outln!(
        "{}",
        table::render(
            "Figure 5 — failed-connection rate per host (quantiles)",
            &[
                "dataset",
                "hosts",
                "q10",
                "q25",
                "q50",
                "q75",
                "q90",
                ">65% failed"
            ],
            &rows
        )
    );
    outln!("Paper shape: CMU\\Trader low; Trader high; almost all Nugache bots above 65%.");
}
