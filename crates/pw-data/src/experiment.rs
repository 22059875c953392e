//! Multi-day experiment orchestration (the paper evaluates over eight
//! days).

use pw_botnet::{
    generate_nugache_trace, generate_storm_trace, BotTrace, NugacheConfig, StormConfig,
};
use pw_flow::FlowTable;

use crate::campus::{build_day, CampusConfig};
use crate::overlay::{overlay_bots, OverlaidDay};

/// Configuration of a full multi-day run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Campus composition.
    pub campus: CampusConfig,
    /// Storm honeynet parameters.
    pub storm: StormConfig,
    /// Nugache honeynet parameters.
    pub nugache: NugacheConfig,
    /// Number of days (the paper uses 8).
    pub days: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        let campus = CampusConfig::default();
        // The honeynet bots run throughout the campus collection window
        // (the paper overlays 24 h traces onto 6 h collection days; only
        // the overlapping traffic is observable, which is what we model).
        let storm = StormConfig {
            duration: campus.duration,
            ..StormConfig::default()
        };
        let nugache = NugacheConfig {
            duration: campus.duration,
            ..NugacheConfig::default()
        };
        Self {
            campus,
            storm,
            nugache,
            days: 8,
        }
    }
}

impl ExperimentConfig {
    /// A scaled-down configuration for tests and quick demos.
    pub fn small() -> Self {
        Self {
            campus: CampusConfig::small(),
            storm: StormConfig {
                n_bots: 5,
                external_population: 100,
                ..StormConfig::default()
            },
            nugache: NugacheConfig {
                n_bots: 10,
                ..NugacheConfig::default()
            },
            days: 2,
        }
    }
}

/// One evaluated day: campus + implanted bots + the traces used.
#[derive(Debug, Clone)]
pub struct DayRun {
    /// The overlaid traffic and implant ground truth.
    pub overlaid: OverlaidDay,
    /// The day's Storm trace (fresh bots each day, like re-recorded
    /// honeynet captures).
    pub storm: BotTrace,
    /// The day's Nugache trace.
    pub nugache: BotTrace,
}

impl DayRun {
    /// Interns the day's overlaid flows into a [`FlowTable`], the index
    /// batch detection walks; row `i` is `overlaid.flows[i]`.
    pub fn flow_table(&self) -> FlowTable {
        FlowTable::from_records(&self.overlaid.flows)
    }
}

/// Builds every day of the experiment: campus day `d`, fresh Storm and
/// Nugache traces for day `d`, overlaid onto random active hosts.
///
/// Fully deterministic in `cfg`.
pub fn run_experiment(cfg: &ExperimentConfig) -> Vec<DayRun> {
    (0..cfg.days)
        .map(|d| {
            let day = build_day(&cfg.campus, d);
            let storm_cfg = StormConfig {
                day: d as u64,
                ..cfg.storm.clone()
            };
            let storm = generate_storm_trace(&storm_cfg, cfg.campus.seed ^ 0x5701 ^ d as u64);
            let nugache = generate_nugache_trace(&cfg.nugache, cfg.campus.seed ^ 0x4106 ^ d as u64);
            let overlaid = overlay_bots(&day, &[&storm, &nugache], cfg.campus.seed ^ d as u64);
            DayRun {
                overlaid,
                storm,
                nugache,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_botnet::BotFamily;
    use pw_netsim::SimDuration;

    fn fast_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::small();
        cfg.campus.duration = SimDuration::from_hours(4);
        cfg.campus.n_background = 25;
        cfg.storm.duration = SimDuration::from_hours(4);
        cfg.storm.external_population = 60;
        cfg.storm.n_bots = 3;
        cfg.nugache.duration = SimDuration::from_hours(4);
        cfg.nugache.n_bots = 5;
        cfg.days = 2;
        cfg
    }

    #[test]
    fn experiment_produces_all_days_with_implants() {
        let runs = run_experiment(&fast_cfg());
        assert_eq!(runs.len(), 2);
        for run in &runs {
            assert_eq!(run.overlaid.implanted_hosts(BotFamily::Storm).len(), 3);
            assert_eq!(run.overlaid.implanted_hosts(BotFamily::Nugache).len(), 5);
            assert!(!run.overlaid.flows.is_empty());
        }
    }

    #[test]
    fn days_have_different_implant_choices_or_traffic() {
        let runs = run_experiment(&fast_cfg());
        assert_ne!(runs[0].overlaid.flows.len(), runs[1].overlaid.flows.len());
    }

    #[test]
    fn flow_table_round_trips_the_day() {
        let run = &run_experiment(&fast_cfg())[0];
        let flows = &run.overlaid.flows;
        let table = run.flow_table();
        assert_eq!(table.len(), flows.len());
        let mut sorted = flows.clone();
        sorted.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
        let walked: Vec<_> = table.rows_in_order().map(|row| flows[row]).collect();
        assert_eq!(walked, sorted);
    }

    #[test]
    fn deterministic_end_to_end() {
        let a = run_experiment(&fast_cfg());
        let b = run_experiment(&fast_cfg());
        assert_eq!(a[0].overlaid.flows, b[0].overlaid.flows);
        assert_eq!(a[1].overlaid.implants, b[1].overlaid.implants);
    }
}
