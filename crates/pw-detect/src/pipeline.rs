//! The `FindPlotters` algorithm (Figure 4 of the paper) and its staged
//! report.
//!
//! Three entry points run it:
//!
//! - [`try_find_plotters_table_tier`] extracts profiles from a
//!   [`FlowTable`] and runs the pipeline — the batch path;
//! - [`try_find_plotters_from_table`] runs it over an extracted
//!   [`ProfileTable`] — the streaming engine's window close;
//! - [`find_plotters_from_table`] is the lenient form of the latter: a
//!   stage whose percentile threshold cannot be resolved comes back empty
//!   instead of as an [`Error`], which is what per-service slices and
//!   threshold sweeps need.
//!
//! [`extract_profiles_table_par_tier`] is the extraction step on its own.
//! Whenever a strict run returns `Ok`, its report equals the lenient one.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use pw_flow::FlowTable;

use crate::detectors::{
    theta_churn_view, theta_hm_view, theta_vol_view, HmOptions, HmOutcome, ThetaHmConfig,
    ThetaHmMode, Threshold,
};
use crate::error::{ConfigError, Error};
use crate::features::{
    extract_profiles_table_par_tier, HostMask, ProfileTable, ProfileTier, ProfileView,
};
use crate::reduction::initial_reduction_view;
use crate::stream::MAX_THREADS;

/// Configuration of the full pipeline. Defaults are the paper's §V-B
/// operating point: data reduction at the median failed-connection rate,
/// `τ_vol` and `τ_churn` at the 50th percentile, `τ_hm` at the 70th
/// percentile of cluster diameters, dendrogram cut at the top 5 % of links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FindPlottersConfig {
    /// Whether to run the §V-A data-reduction step first.
    pub with_reduction: bool,
    /// Volume-test threshold.
    pub tau_vol: Threshold,
    /// Churn-test threshold.
    pub tau_churn: Threshold,
    /// Cluster-diameter threshold for `θ_hm`.
    pub tau_hm: Threshold,
    /// Fraction of heaviest dendrogram links removed when forming clusters.
    pub cut_fraction: f64,
    /// `θ_hm` clustering mode, fill tuning, and stage-profile switch. The
    /// default ([`ThetaHmMode::Exact`], stock tuning, profile off) keeps
    /// the pipeline byte-identical to its historical output.
    pub theta_hm: ThetaHmConfig,
}

impl Default for FindPlottersConfig {
    fn default() -> Self {
        Self {
            with_reduction: true,
            tau_vol: Threshold::Percentile(50.0),
            tau_churn: Threshold::Percentile(50.0),
            tau_hm: Threshold::Percentile(70.0),
            cut_fraction: 0.05,
            theta_hm: ThetaHmConfig::default(),
        }
    }
}

fn validate_threshold(t: Threshold, which: &'static str) -> Result<(), ConfigError> {
    match t {
        Threshold::Percentile(p) if !(0.0..=100.0).contains(&p) => {
            Err(ConfigError::Percentile { which, value: p })
        }
        Threshold::Absolute(v) if !v.is_finite() => Err(ConfigError::NonFiniteThreshold { which }),
        _ => Ok(()),
    }
}

impl FindPlottersConfig {
    /// Starts a validated builder seeded with the paper's defaults.
    ///
    /// # Examples
    ///
    /// ```
    /// use pw_detect::{FindPlottersConfig, Threshold};
    ///
    /// let cfg = FindPlottersConfig::builder()
    ///     .tau_hm(Threshold::Percentile(80.0))
    ///     .cut_fraction(0.1)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.cut_fraction, 0.1);
    /// assert!(FindPlottersConfig::builder().cut_fraction(1.5).build().is_err());
    /// ```
    pub fn builder() -> FindPlottersConfigBuilder {
        FindPlottersConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Checks every knob; struct-literal construction remains possible, so
    /// the `try_*` entry points re-validate before running.
    pub fn validate(&self) -> Result<(), ConfigError> {
        validate_threshold(self.tau_vol, "tau_vol")?;
        validate_threshold(self.tau_churn, "tau_churn")?;
        validate_threshold(self.tau_hm, "tau_hm")?;
        if !self.cut_fraction.is_finite() || self.cut_fraction <= 0.0 || self.cut_fraction >= 1.0 {
            return Err(ConfigError::CutFraction(self.cut_fraction));
        }
        self.theta_hm.validate()?;
        Ok(())
    }
}

/// Builder for [`FindPlottersConfig`] whose [`build`](Self::build) rejects
/// out-of-range knobs instead of letting them skew a detection run.
#[derive(Debug, Clone, Copy)]
pub struct FindPlottersConfigBuilder {
    cfg: FindPlottersConfig,
}

impl FindPlottersConfigBuilder {
    /// Toggles the §V-A data-reduction step.
    pub fn with_reduction(mut self, on: bool) -> Self {
        self.cfg.with_reduction = on;
        self
    }

    /// Sets the volume-test threshold.
    pub fn tau_vol(mut self, t: Threshold) -> Self {
        self.cfg.tau_vol = t;
        self
    }

    /// Sets the churn-test threshold.
    pub fn tau_churn(mut self, t: Threshold) -> Self {
        self.cfg.tau_churn = t;
        self
    }

    /// Sets the cluster-diameter threshold for `θ_hm`.
    pub fn tau_hm(mut self, t: Threshold) -> Self {
        self.cfg.tau_hm = t;
        self
    }

    /// Sets the fraction of heaviest dendrogram links cut.
    pub fn cut_fraction(mut self, f: f64) -> Self {
        self.cfg.cut_fraction = f;
        self
    }

    /// Replaces the whole `θ_hm` configuration (mode + tuning + profile).
    pub fn theta_hm(mut self, t: ThetaHmConfig) -> Self {
        self.cfg.theta_hm = t;
        self
    }

    /// Sets just the `θ_hm` clustering mode, keeping tuning defaults.
    pub fn theta_hm_mode(mut self, mode: ThetaHmMode) -> Self {
        self.cfg.theta_hm.mode = mode;
        self
    }

    /// Toggles the `θ_hm` stage profile
    /// ([`ThetaHmProfile`](crate::detectors::ThetaHmProfile)).
    pub fn hm_profile(mut self, on: bool) -> Self {
        self.cfg.theta_hm.profile = on;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<FindPlottersConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Everything `FindPlotters` decided, stage by stage — the material of the
/// paper's Figure 9.
#[derive(Debug, Clone, PartialEq)]
pub struct PlotterReport {
    /// Hosts observed in the window (the set `S`).
    pub all_hosts: HashSet<Ipv4Addr>,
    /// Hosts surviving the §V-A data reduction (input to the tests).
    pub after_reduction: HashSet<Ipv4Addr>,
    /// The failed-rate threshold used by the reduction.
    pub reduction_threshold: f64,
    /// Hosts kept by the volume test.
    pub s_vol: HashSet<Ipv4Addr>,
    /// Resolved `τ_vol` in bytes per flow.
    pub tau_vol: f64,
    /// Hosts kept by the churn test.
    pub s_churn: HashSet<Ipv4Addr>,
    /// Resolved `τ_churn` as a fraction.
    pub tau_churn: f64,
    /// `S_vol ∪ S_churn` — the input to `θ_hm`.
    pub union: HashSet<Ipv4Addr>,
    /// Full outcome of the `θ_hm` test.
    pub hm: HmOutcome,
    /// The pipeline's verdict: suspected Plotters.
    pub suspects: HashSet<Ipv4Addr>,
}

/// The staged pipeline shared by every entry point. In strict mode an
/// empty window or an unresolvable percentile threshold is an [`Error`];
/// in lenient mode ([`find_plotters_from_table`]) those stages degrade to
/// an empty set with threshold `0.0` and the run continues.
pub(crate) fn run_stages(
    view: &ProfileView<'_>,
    cfg: &FindPlottersConfig,
    threads: usize,
    strict: bool,
) -> Result<PlotterReport, Error> {
    if strict && view.is_empty() {
        return Err(Error::EmptyWindow);
    }
    let all_hosts = HostMask::full(view.len());
    let (after_reduction, reduction_threshold) = if cfg.with_reduction {
        initial_reduction_view(view)
    } else {
        (all_hosts.clone(), 0.0)
    };
    let resolve = |out: Option<(HostMask, f64)>, stage| match out {
        Some(v) => Ok(v),
        None if strict => Err(Error::ThresholdUnresolvable { stage }),
        None => Ok((HostMask::empty(view.len()), 0.0)),
    };
    let (s_vol, tau_vol) = resolve(
        theta_vol_view(view, &after_reduction, cfg.tau_vol, threads),
        "theta_vol",
    )?;
    let (s_churn, tau_churn) = resolve(
        theta_churn_view(view, &after_reduction, cfg.tau_churn, threads),
        "theta_churn",
    )?;
    let union = s_vol.union(&s_churn);
    let hm = theta_hm_view(
        view,
        &union,
        cfg.tau_hm,
        cfg.cut_fraction,
        &HmOptions {
            threads,
            theta: cfg.theta_hm,
            ..Default::default()
        },
    );
    let suspects = hm.kept.clone();
    Ok(PlotterReport {
        all_hosts: all_hosts.to_ips(view),
        after_reduction: after_reduction.to_ips(view),
        reduction_threshold,
        s_vol: s_vol.to_ips(view),
        tau_vol,
        s_churn: s_churn.to_ips(view),
        tau_churn,
        union: union.to_ips(view),
        hm,
        suspects,
    })
}

/// Refuses a worker thread count outside `1..=`[`MAX_THREADS`].
pub(crate) fn check_threads(threads: usize) -> Result<(), ConfigError> {
    match threads {
        0 => Err(ConfigError::ZeroThreads),
        n if n > MAX_THREADS => Err(ConfigError::TooManyThreads(n)),
        _ => Ok(()),
    }
}

/// Runs `FindPlotters` over a pre-extracted [`ProfileTable`] on one
/// thread, leniently: an empty window or a stage whose percentile
/// threshold cannot be resolved yields empty sets instead of an error.
/// Lets callers extract once and sweep configurations, as the ROC harness
/// does.
pub fn find_plotters_from_table(
    profiles: &ProfileTable,
    cfg: &FindPlottersConfig,
) -> PlotterReport {
    run_stages(&ProfileView::from_table(profiles), cfg, 1, false)
        .expect("lenient pipeline is infallible")
}

/// Extracts profiles from `table` at the given [`ProfileTier`] and runs
/// `FindPlotters` over them, with validated configuration, typed failures,
/// and host-sharded parallelism across `threads` scoped workers.
///
/// `is_internal` identifies monitored hosts (the administrator knows the
/// monitored address space). Output is identical for any thread count (the
/// percentile thresholds only see the — order-independent — multiset of
/// per-host metrics). [`ProfileTier::Sketched`] holds a fixed byte budget
/// per host (see [`crate::features::ProfileRepr`]) at the cost of
/// approximate counts on very large hosts. `threads` must lie in
/// `1..=`[`MAX_THREADS`], or the call fails with
/// [`ConfigError::ZeroThreads`] or [`ConfigError::TooManyThreads`] before
/// any thread is spawned.
pub fn try_find_plotters_table_tier<F>(
    table: &FlowTable,
    is_internal: F,
    cfg: &FindPlottersConfig,
    tier: ProfileTier,
    threads: usize,
) -> Result<PlotterReport, Error>
where
    F: Fn(Ipv4Addr) -> bool + Sync,
{
    check_threads(threads)?;
    cfg.validate()?;
    let profiles = extract_profiles_table_par_tier(table, is_internal, tier, threads);
    run_stages(&ProfileView::from_table(&profiles), cfg, threads, true)
}

/// [`find_plotters_from_table`] with validated configuration, typed
/// failures, and host-sharded parallelism — the streaming engine's
/// window-close path. `threads` is checked as in
/// [`try_find_plotters_table_tier`].
pub fn try_find_plotters_from_table(
    profiles: &ProfileTable,
    cfg: &FindPlottersConfig,
    threads: usize,
) -> Result<PlotterReport, Error> {
    check_threads(threads)?;
    cfg.validate()?;
    run_stages(&ProfileView::from_table(profiles), cfg, threads, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_flow::{FlowRecord, FlowState, Payload, Proto};
    use pw_netsim::{SimDuration, SimTime};

    fn internal(ip: Ipv4Addr) -> bool {
        ip.octets()[0] == 10
    }

    fn profiles(flows: &[FlowRecord], threads: usize) -> ProfileTable {
        let table = FlowTable::from_records(flows);
        extract_profiles_table_par_tier(&table, internal, ProfileTier::Exact, threads)
    }

    fn lenient(flows: &[FlowRecord], cfg: &FindPlottersConfig) -> PlotterReport {
        find_plotters_from_table(&profiles(flows, 1), cfg)
    }

    fn flow(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        start: SimTime,
        up: u64,
        down: u64,
        failed: bool,
    ) -> FlowRecord {
        FlowRecord {
            start,
            end: start + SimDuration::from_secs(1),
            src,
            sport: 999,
            dst,
            dport: 80,
            proto: Proto::Tcp,
            src_pkts: 1,
            src_bytes: up,
            dst_pkts: 1,
            dst_bytes: down,
            state: if failed {
                FlowState::SynNoAnswer
            } else {
                FlowState::Established
            },
            payload: Payload::empty(),
        }
    }

    /// Synthesizes a miniature network: several bot-like hosts (tiny
    /// periodic flows to a fixed peer set, many failures), several
    /// trader-like hosts (large transfers to ever-new peers, many
    /// failures), several normal hosts (few failures).
    fn mini_world() -> Vec<FlowRecord> {
        let mut flows = Vec::new();
        // Bots: 10.1.0.1-3, ping 6 fixed peers every 300 s; half fail.
        for b in 0..3u8 {
            let bot = Ipv4Addr::new(10, 1, 0, 1 + b);
            for round in 0..100u64 {
                for peer in 0..6u8 {
                    let dst = Ipv4Addr::new(60, 1, b, peer + 1);
                    let t = SimTime::from_secs(round * 300 + peer as u64);
                    flows.push(flow(bot, dst, t, 80, 60, peer % 2 == 0));
                }
            }
        }
        // Traders: 10.1.0.10-12, contact 40 peers spread over the day,
        // huge transfers, 40% failures, each peer contacted once or twice.
        for tr in 0..3u8 {
            let trader = Ipv4Addr::new(10, 1, 0, 10 + tr);
            for p in 0..40u64 {
                let dst = Ipv4Addr::new(70, 2, tr, (p + 1) as u8);
                let t = SimTime::from_secs(300 + p * 2000 + (p * p * 37) % 1500);
                let failed = p % 5 < 2;
                flows.push(flow(
                    trader,
                    dst,
                    t,
                    if failed { 120 } else { 900_000 },
                    2_000_000,
                    failed,
                ));
            }
        }
        // Normal hosts: 10.2.0.x, web-like: few failures, medium flows,
        // human-irregular times.
        for n in 0..14u8 {
            let host = Ipv4Addr::new(10, 2, 0, 1 + n);
            for k in 0..60u64 {
                let dst = Ipv4Addr::new(80, 3, (k % 9) as u8, 1);
                let t = SimTime::from_secs(400 + k * 1300 + (k * k * 131 + n as u64 * 997) % 1100);
                flows.push(flow(host, dst, t, 600, 20_000, k % 25 == 0));
            }
        }
        flows
    }

    #[test]
    fn pipeline_finds_bots_not_traders_or_normals() {
        let flows = mini_world();
        let report = lenient(&flows, &FindPlottersConfig::default());
        for b in 1..=3u8 {
            assert!(
                report.suspects.contains(&Ipv4Addr::new(10, 1, 0, b)),
                "bot {b} missed; suspects {:?}",
                report.suspects
            );
        }
        for t in 10..=12u8 {
            assert!(
                !report.suspects.contains(&Ipv4Addr::new(10, 1, 0, t)),
                "trader {t} flagged"
            );
        }
        for n in 1..=14u8 {
            assert!(
                !report.suspects.contains(&Ipv4Addr::new(10, 2, 0, n)),
                "normal host {n} flagged"
            );
        }
    }

    #[test]
    fn reduction_removes_low_failure_hosts() {
        let flows = mini_world();
        let report = lenient(&flows, &FindPlottersConfig::default());
        assert!(report.after_reduction.len() < report.all_hosts.len());
        // Normal hosts (4% failures) fall below the median.
        assert!(!report.after_reduction.contains(&Ipv4Addr::new(10, 2, 0, 1)));
        // Bots and traders survive.
        assert!(report.after_reduction.contains(&Ipv4Addr::new(10, 1, 0, 1)));
        assert!(report
            .after_reduction
            .contains(&Ipv4Addr::new(10, 1, 0, 10)));
    }

    #[test]
    fn stage_sets_nest_properly() {
        let flows = mini_world();
        let report = lenient(&flows, &FindPlottersConfig::default());
        assert!(report.s_vol.is_subset(&report.after_reduction));
        assert!(report.s_churn.is_subset(&report.after_reduction));
        assert!(report.union.is_superset(&report.s_vol));
        assert!(report.suspects.is_subset(&report.union));
    }

    #[test]
    fn disabling_reduction_widens_input() {
        let flows = mini_world();
        let cfg = FindPlottersConfig {
            with_reduction: false,
            ..Default::default()
        };
        let report = lenient(&flows, &cfg);
        assert_eq!(report.after_reduction, report.all_hosts);
    }

    #[test]
    fn empty_input_is_safe() {
        let report = lenient(&[], &FindPlottersConfig::default());
        assert!(report.all_hosts.is_empty());
        assert!(report.suspects.is_empty());
    }

    #[test]
    fn builder_validates_knobs() {
        assert!(FindPlottersConfig::builder().build().is_ok());
        let cfg = FindPlottersConfig::builder()
            .with_reduction(false)
            .tau_vol(Threshold::Absolute(1000.0))
            .tau_hm(Threshold::Percentile(80.0))
            .cut_fraction(0.1)
            .build()
            .unwrap();
        assert!(!cfg.with_reduction);
        assert_eq!(cfg.tau_vol, Threshold::Absolute(1000.0));

        assert_eq!(
            FindPlottersConfig::builder().cut_fraction(0.0).build(),
            Err(ConfigError::CutFraction(0.0))
        );
        assert_eq!(
            FindPlottersConfig::builder().cut_fraction(1.0).build(),
            Err(ConfigError::CutFraction(1.0))
        );
        assert!(matches!(
            FindPlottersConfig::builder()
                .tau_churn(Threshold::Percentile(101.0))
                .build(),
            Err(ConfigError::Percentile {
                which: "tau_churn",
                ..
            })
        ));
        assert!(matches!(
            FindPlottersConfig::builder()
                .tau_vol(Threshold::Absolute(f64::NAN))
                .build(),
            Err(ConfigError::NonFiniteThreshold { which: "tau_vol" })
        ));
        // Struct literals still work and are re-validated by try_*.
        let bad = FindPlottersConfig {
            cut_fraction: 2.0,
            ..Default::default()
        };
        assert_eq!(
            try_find_plotters_from_table(&ProfileTable::default(), &bad, 1),
            Err(Error::Config(ConfigError::CutFraction(2.0)))
        );
    }

    #[test]
    fn try_pipeline_matches_lenient_and_any_thread_count() {
        let flows = mini_world();
        let table = FlowTable::from_records(&flows);
        let cfg = FindPlottersConfig::default();
        let lenient = lenient(&flows, &cfg);
        for threads in [1usize, 2, 5, 16] {
            let strict =
                try_find_plotters_table_tier(&table, internal, &cfg, ProfileTier::Exact, threads)
                    .unwrap();
            let from_profiles =
                try_find_plotters_from_table(&profiles(&flows, threads), &cfg, threads).unwrap();
            for report in [&strict, &from_profiles] {
                assert_eq!(report.suspects, lenient.suspects, "threads={threads}");
                assert_eq!(report.after_reduction, lenient.after_reduction);
                assert_eq!(report.tau_vol.to_bits(), lenient.tau_vol.to_bits());
                assert_eq!(report.tau_churn.to_bits(), lenient.tau_churn.to_bits());
                assert_eq!(report.hm.tau.to_bits(), lenient.hm.tau.to_bits());
                assert_eq!(report.hm.clusters, lenient.hm.clusters);
                assert_eq!(*report, lenient, "threads={threads}");
            }
        }
    }

    #[test]
    fn try_pipeline_surfaces_degenerate_inputs() {
        let cfg = FindPlottersConfig::default();
        assert_eq!(
            try_find_plotters_from_table(&ProfileTable::default(), &cfg, 1),
            Err(Error::EmptyWindow)
        );
        let table = FlowTable::from_records(&mini_world());
        assert_eq!(
            try_find_plotters_table_tier(&table, internal, &cfg, ProfileTier::Exact, 0),
            Err(Error::Config(ConfigError::ZeroThreads))
        );
    }

    #[test]
    fn thread_counts_above_the_cap_are_refused_before_spawning() {
        let cfg = FindPlottersConfig::default();
        let flows = mini_world();
        let table = FlowTable::from_records(&flows);
        let profiles = profiles(&flows, 1);
        for threads in [MAX_THREADS + 1, 50_000] {
            let refused = Err(Error::Config(ConfigError::TooManyThreads(threads)));
            assert_eq!(
                try_find_plotters_table_tier(&table, internal, &cfg, ProfileTier::Exact, threads),
                refused
            );
            assert_eq!(
                try_find_plotters_from_table(&profiles, &cfg, threads),
                refused
            );
        }
        assert!(try_find_plotters_from_table(&profiles, &cfg, MAX_THREADS).is_ok());
    }
}
