//! Figure 7: ROC of the peer-churn test θ_churn, averaged over all days.

use peerwatch::outln;
use pw_repro::figures::fig07_roc_churn;
use pw_repro::{build_context, table, Scale};

fn main() {
    let ctx = build_context(Scale::from_env());
    for c in fig07_roc_churn(&ctx) {
        let rows: Vec<Vec<String>> = c
            .points()
            .iter()
            .map(|p| vec![p.label.clone(), table::pct(p.fpr), table::pct(p.tpr)])
            .collect();
        outln!(
            "{}",
            table::render(
                &format!(
                    "Figure 7 — θ_churn ROC [{}]  (AUC≈{:.3})",
                    c.name(),
                    pw_analysis::auc(&c)
                ),
                &["τ percentile", "FPR", "TPR"],
                &rows
            )
        );
    }
    outln!("Paper shape: Storm reaches high TPR at mid thresholds; Nugache lower throughout.");
}
