//! Figure 12: pipeline TPR as Plotters add ±d random delay to repeat-peer
//! connections, d from 30 s to 3 h.

use peerwatch::outln;
use pw_repro::figures::fig12_jitter_sweep;
use pw_repro::{build_context, table, Scale};

fn main() {
    let ctx = build_context(Scale::from_env());
    let rows: Vec<Vec<String>> = fig12_jitter_sweep(&ctx)
        .iter()
        .map(|r| {
            vec![
                if r.d_secs == 0 {
                    "none".into()
                } else {
                    format!("±{}s", r.d_secs)
                },
                table::pct(r.storm_tpr),
                table::pct(r.nugache_tpr),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(
            "Figure 12 — TPR under interstitial jitter",
            &["jitter d", "storm TPR", "nugache TPR"],
            &rows
        )
    );
    outln!("Paper shape: minutes-scale jitter is needed before TPR decays substantially.");
}
