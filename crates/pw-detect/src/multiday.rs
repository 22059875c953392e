//! Multi-day corroboration of per-day verdicts.
//!
//! The paper evaluates `FindPlotters` on single-day windows (`D` = one
//! day) and averages its *rates* across eight days. An operator, though,
//! acts on hosts, and a Plotter is persistent by nature (§IV-B) while the
//! residual false positives are benign hosts whose timing *coincidentally*
//! clustered — a coincidence that rarely repeats. Requiring a host to be
//! flagged on `k` of `n` days therefore trades a little single-day recall
//! for a large precision gain. This module implements that corroboration
//! step as the natural operational wrapper around the paper's detector.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use pw_flow::HostInterner;

use crate::pipeline::PlotterReport;

/// Aggregated multi-day verdicts.
#[derive(Debug, Clone)]
pub struct MultiDayReport {
    /// Number of days aggregated.
    pub days: usize,
    /// For every host flagged at least once: on how many days.
    pub flag_counts: HashMap<Ipv4Addr, usize>,
    /// For every host observed at all: on how many days.
    pub seen_counts: HashMap<Ipv4Addr, usize>,
}

impl MultiDayReport {
    /// Aggregates per-day pipeline reports.
    ///
    /// Hosts recur across days, so they are interned once and the per-day
    /// tallies land in dense id-indexed tables; the public map fields are
    /// materialized at the end.
    pub fn from_reports<'a, I: IntoIterator<Item = &'a PlotterReport>>(reports: I) -> Self {
        let mut hosts = HostInterner::new();
        let mut seen: Vec<usize> = Vec::new();
        let mut flagged: Vec<usize> = Vec::new();
        let mut days = 0;
        for report in reports {
            days += 1;
            // Sorted iteration keeps intern order — and so HostId
            // assignment — identical across runs, not just the
            // materialized maps.
            let mut all: Vec<_> = report.all_hosts.iter().copied().collect();
            all.sort_unstable();
            for ip in all {
                let idx = hosts.intern(ip).index();
                if idx >= seen.len() {
                    seen.push(0);
                    flagged.push(0);
                }
                seen[idx] += 1;
            }
            let mut sus: Vec<_> = report.suspects.iter().copied().collect();
            sus.sort_unstable();
            for ip in sus {
                let idx = hosts.intern(ip).index();
                if idx >= seen.len() {
                    seen.push(0);
                    flagged.push(0);
                }
                flagged[idx] += 1;
            }
        }
        let materialize = |counts: &[usize]| {
            hosts
                .ips()
                .iter()
                .zip(counts)
                .filter(|&(_, &n)| n > 0)
                .map(|(&ip, &n)| (ip, n))
                .collect()
        };
        Self {
            days,
            flag_counts: materialize(&flagged),
            seen_counts: materialize(&seen),
        }
    }

    /// Hosts flagged on at least `k` days (sorted).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the number of aggregated days.
    pub fn flagged_at_least(&self, k: usize) -> Vec<Ipv4Addr> {
        assert!(k >= 1 && k <= self.days.max(1), "k must be in 1..=days");
        let mut v: Vec<Ipv4Addr> = self
            .flag_counts
            .iter()
            .filter(|&(_, &n)| n >= k)
            .map(|(ip, _)| *ip)
            .collect();
        v.sort();
        v
    }

    /// Precision/recall of the `k`-day rule against ground-truth positives.
    pub fn rates_at(&self, k: usize, positives: &HashSet<Ipv4Addr>) -> crate::rates::Rates {
        let flagged: HashSet<Ipv4Addr> = self.flagged_at_least(k).into_iter().collect();
        let population: HashSet<Ipv4Addr> = self.seen_counts.keys().copied().collect();
        crate::rates::rates_against(&flagged, &population, positives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::HmOutcome;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn report(all: &[u8], suspects: &[u8]) -> PlotterReport {
        let to_set = |xs: &[u8]| xs.iter().map(|&i| ip(i)).collect::<HashSet<_>>();
        PlotterReport {
            all_hosts: to_set(all),
            after_reduction: to_set(all),
            reduction_threshold: 0.2,
            s_vol: to_set(suspects),
            tau_vol: 100.0,
            s_churn: to_set(suspects),
            tau_churn: 0.5,
            union: to_set(suspects),
            hm: HmOutcome {
                kept: to_set(suspects),
                clusters: Vec::new(),
                tau: 0.0,
                no_samples: 0,
                profile: None,
            },
            suspects: to_set(suspects),
        }
    }

    #[test]
    fn counts_accumulate_across_days() {
        let days = [
            report(&[1, 2, 3, 4], &[1, 2]),
            report(&[1, 2, 3, 4], &[1]),
            report(&[1, 2, 3], &[1, 3]),
        ];
        let md = MultiDayReport::from_reports(days.iter());
        assert_eq!(md.days, 3);
        assert_eq!(md.flag_counts[&ip(1)], 3);
        assert_eq!(md.flag_counts[&ip(2)], 1);
        assert_eq!(md.flag_counts[&ip(3)], 1);
        assert_eq!(md.seen_counts[&ip(4)], 2);
    }

    #[test]
    fn k_day_rule_filters_one_offs() {
        let days = [
            report(&[1, 2, 3], &[1, 2]),
            report(&[1, 2, 3], &[1]),
            report(&[1, 2, 3], &[1, 3]),
        ];
        let md = MultiDayReport::from_reports(days.iter());
        assert_eq!(md.flagged_at_least(1).len(), 3);
        assert_eq!(md.flagged_at_least(2), vec![ip(1)]);
        assert_eq!(md.flagged_at_least(3), vec![ip(1)]);
    }

    #[test]
    fn rates_at_computes_precision_material() {
        let days = [report(&[1, 2, 3], &[1, 2]), report(&[1, 2, 3], &[1])];
        let md = MultiDayReport::from_reports(days.iter());
        let positives: HashSet<Ipv4Addr> = [ip(1)].into_iter().collect();
        let r1 = md.rates_at(1, &positives);
        assert_eq!(r1.true_positives, 1);
        assert_eq!(r1.false_positives, 1); // host 2 flagged once
        let r2 = md.rates_at(2, &positives);
        assert_eq!(r2.true_positives, 1);
        assert_eq!(r2.false_positives, 0); // corroboration removed host 2
    }

    #[test]
    #[should_panic(expected = "1..=days")]
    fn rejects_zero_k() {
        let md = MultiDayReport::from_reports(std::iter::empty::<&PlotterReport>());
        md.flagged_at_least(0);
    }
}
