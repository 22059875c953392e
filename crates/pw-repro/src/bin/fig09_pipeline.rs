//! Figure 9: hosts surviving each stage of FindPlotters, with the headline
//! detection numbers (87.50% Storm / 30% Nugache TP at 0.81% FP in the
//! paper).

use peerwatch::outln;
use pw_repro::figures::fig09_pipeline;
use pw_repro::{build_context, table, Scale};

fn main() {
    let ctx = build_context(Scale::from_env());
    let fig = fig09_pipeline(&ctx);
    let rows: Vec<Vec<String>> = fig
        .stages
        .iter()
        .map(|s| {
            vec![
                s.stage.clone(),
                format!("{:.1}", s.hosts),
                format!("{:.2}", s.storm),
                format!("{:.2}", s.nugache),
                format!("{:.2}", s.traders),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(
            "Figure 9 — mean hosts surviving each stage",
            &["stage", "hosts", "storm", "nugache", "traders"],
            &rows
        )
    );
    let cmp = vec![
        vec![
            "Storm TPR".into(),
            "87.50%".into(),
            table::pct(fig.storm_tpr),
        ],
        vec![
            "Nugache TPR".into(),
            "30.00%".into(),
            table::pct(fig.nugache_tpr),
        ],
        vec![
            "False-positive rate".into(),
            "0.81%".into(),
            table::pct(fig.fpr),
        ],
        vec![
            "Traders remaining".into(),
            "5.40%".into(),
            table::pct(fig.traders_remaining),
        ],
        vec![
            "Trader share of output".into(),
            "7.11%".into(),
            table::pct(fig.trader_share_of_output),
        ],
    ];
    outln!(
        "{}",
        table::render("Headline numbers", &["metric", "paper", "measured"], &cmp)
    );
}
