//! Figure 11: per-day detection thresholds versus the median Plotter — how
//! much behaviour change evading θ_vol / θ_churn would take.

use peerwatch::outln;
use pw_repro::figures::fig11_evasion_margins;
use pw_repro::{build_context, table, Scale};

fn main() {
    let ctx = build_context(Scale::from_env());
    let (vol, churn) = fig11_evasion_margins(&ctx);
    let rows: Vec<Vec<String>> = vol
        .iter()
        .map(|r| {
            vec![
                r.day.to_string(),
                format!("{:.0}", r.tau),
                format!("{:.0}", r.storm_median),
                format!("{:.0}", r.nugache_median),
                format!("{:.2}×", r.storm_factor),
                format!("{:.2}×", r.nugache_factor),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(
            "Figure 11a — τ_vol vs median Plotter avg bytes/flow",
            &[
                "day",
                "τ_vol",
                "storm med",
                "nugache med",
                "storm ×",
                "nugache ×"
            ],
            &rows
        )
    );
    let rows: Vec<Vec<String>> = churn
        .iter()
        .map(|r| {
            vec![
                r.day.to_string(),
                table::pct(r.tau),
                table::pct(r.storm_median),
                table::pct(r.nugache_median),
                format!("{:.2}×", r.storm_factor),
                format!("{:.2}×", r.nugache_factor),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(
            "Figure 11b — τ_churn vs median Plotter new-IP fraction",
            &[
                "day",
                "τ_churn",
                "storm med",
                "nugache med",
                "storm ×",
                "nugache ×"
            ],
            &rows
        )
    );
    outln!("Paper shape: median Storm needs ≈5× its per-flow volume, Nugache ≈1.3×;");
    outln!("churn evasion needs ≥1.5× more new hosts.");
}
