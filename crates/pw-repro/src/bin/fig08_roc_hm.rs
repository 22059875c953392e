//! Figure 8: ROC of the human-vs-machine test θ_hm; input is
//! S_vol ∪ S_churn at the 50th percentile.

use peerwatch::outln;
use pw_repro::figures::fig08_roc_hm;
use pw_repro::{build_context, table, Scale};

fn main() {
    let ctx = build_context(Scale::from_env());
    for c in fig08_roc_hm(&ctx) {
        let rows: Vec<Vec<String>> = c
            .points()
            .iter()
            .map(|p| vec![p.label.clone(), table::pct(p.fpr), table::pct(p.tpr)])
            .collect();
        outln!(
            "{}",
            table::render(
                &format!(
                    "Figure 8 — θ_hm ROC [{}]  (AUC≈{:.3})",
                    c.name(),
                    pw_analysis::auc(&c)
                ),
                &["τ percentile", "FPR", "TPR"],
                &rows
            )
        );
    }
    outln!("Paper shape: very low FPR at all thresholds; Storm ≫ Nugache TPR.");
}
