//! Figure 6: ROC of the volume test θ_vol (thresholds at the
//! 10/30/50/70/90th percentiles), averaged over all days.

use peerwatch::outln;
use pw_repro::figures::fig06_roc_volume;
use pw_repro::{build_context, table, Scale};

fn main() {
    let ctx = build_context(Scale::from_env());
    print_roc("Figure 6 — θ_vol ROC", &fig06_roc_volume(&ctx));
    outln!("Paper shape: Storm dominates Nugache; high TPR needs generous FPR (coarse test).");
}

pub(crate) fn print_roc(title: &str, curves: &[pw_analysis::RocCurve]) {
    for c in curves {
        let rows: Vec<Vec<String>> = c
            .points()
            .iter()
            .map(|p| vec![p.label.clone(), table::pct(p.fpr), table::pct(p.tpr)])
            .collect();
        outln!(
            "{}",
            table::render(
                &format!("{title} [{}]  (AUC≈{:.3})", c.name(), pw_analysis::auc(c)),
                &["τ percentile", "FPR", "TPR"],
                &rows
            )
        );
    }
}
