//! Headline reproduction summary (§V of the paper): the FindPlotters
//! operating point, paper vs measured, plus the `θ_hm` stage wall-clock
//! profile of day 0 (the [`ThetaHmConfig::profile`] switch surfaced here
//! instead of hand-pasted bench numbers).

use peerwatch::outln;
use pw_detect::{find_plotters_from_table, FindPlottersConfig, ThetaHmConfig};
use pw_repro::figures::{fig05_failed_cdfs, fig09_pipeline};
use pw_repro::{build_context, table, Scale};

fn main() {
    let ctx = build_context(Scale::from_env());
    let fig = fig09_pipeline(&ctx);
    let failed = fig05_failed_cdfs(&ctx);
    let rows = vec![
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
            "Traders remaining after all tests".into(),
            "5.40%".into(),
            table::pct(fig.traders_remaining),
        ],
        vec![
            "Traders as share of output".into(),
            "7.11%".into(),
            table::pct(fig.trader_share_of_output),
        ],
        vec![
            "Nugache bots >65% failed conns".into(),
            "~100%".into(),
            table::pct(1.0 - failed[3].fraction_below(0.65)),
        ],
    ];
    outln!(
        "{}",
        table::render(
            "Reproduction summary (paper §V)",
            &["metric", "paper", "measured"],
            &rows
        )
    );

    // θ_hm stage profile of day 0 under the profiled exact path.
    let cfg = FindPlottersConfig {
        theta_hm: ThetaHmConfig {
            profile: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let report = find_plotters_from_table(&ctx.days[0].profiles, &cfg);
    if let Some(p) = report.hm.profile {
        let ms = |d: std::time::Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
        let rows = vec![
            vec!["hosts clustered".into(), format!("{}", p.hosts)],
            vec!["histograms + digests".into(), ms(p.histograms)],
            vec!["distance fill".into(), ms(p.distance_fill)],
            vec!["NN-chain linkage".into(), ms(p.linkage)],
            vec!["cut + diameters".into(), ms(p.cut_and_diameters)],
        ];
        outln!(
            "{}",
            table::render("θ_hm stage profile (day 0, ms)", &["stage", "value"], &rows)
        );
    }
}
