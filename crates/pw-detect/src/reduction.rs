//! The §V-A initial data-reduction step.
//!
//! "As a data-reduction step to filter out those hosts who are likely *not*
//! involved in P2P activities … we use the median value among hosts …
//! (that initiated successful flows) as the threshold … Hosts with failed
//! connection rates higher than the threshold are selected as 'possibly
//! P2P'."

use pw_analysis::median;
use pw_flow::HostId;

use crate::features::{HostMask, ProfileView};

/// The data-reduction core over a dense profile view: survivors as a
/// [`HostMask`] plus the failed-rate threshold, the form every later
/// pipeline stage consumes.
///
/// Only hosts that initiated at least one successful flow are eligible at
/// all; of those, hosts whose failed-connection rate exceeds the median are
/// retained. Returns an empty mask and threshold `0.0` for an empty input.
pub fn initial_reduction_view(view: &ProfileView<'_>) -> (HostMask, f64) {
    let eligible: Vec<(HostId, Option<f64>)> = view
        .ids()
        .filter(|&id| view.profile(id).initiated_successfully())
        .map(|id| (id, view.profile(id).failed_rate()))
        .collect();
    let rates: Vec<f64> = eligible.iter().filter_map(|&(_, r)| r).collect();
    let Some(threshold) = median(&rates) else {
        return (HostMask::empty(view.len()), 0.0);
    };
    let mut survivors = HostMask::empty(view.len());
    for &(id, r) in &eligible {
        if r.is_some_and(|r| r > threshold) {
            survivors.insert(id);
        }
    }
    (survivors, threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{HostProfile, ProfileRepr, ProfileTable};
    use pw_netsim::SimTime;
    use std::collections::{HashMap, HashSet};
    use std::net::Ipv4Addr;

    /// Reduction over hand-built profiles, with survivors as addresses.
    fn initial_reduction(profiles: &HashMap<Ipv4Addr, HostProfile>) -> (HashSet<Ipv4Addr>, f64) {
        let table = ProfileTable::from_map(profiles.clone());
        let view = ProfileView::from_table(&table);
        let (survivors, threshold) = initial_reduction_view(&view);
        (survivors.to_ips(&view), threshold)
    }

    fn profile(ip_last: u8, initiated: u64, failed: u64) -> HostProfile {
        HostProfile {
            ip: Ipv4Addr::new(10, 1, 0, ip_last),
            flows_involving: initiated,
            bytes_uploaded: 0,
            initiated,
            initiated_failed: failed,
            first_activity: Some(SimTime::ZERO),
            repr: ProfileRepr::Exact {
                destinations: 0,
                early_destinations: 0,
                interstitials: Vec::new(),
            },
        }
    }

    fn as_map(ps: Vec<HostProfile>) -> HashMap<Ipv4Addr, HostProfile> {
        ps.into_iter().map(|p| (p.ip, p)).collect()
    }

    #[test]
    fn median_split_keeps_high_failed_hosts() {
        // Rates: 0.1, 0.2, 0.3, 0.6, 0.7 → median 0.3; survivors 0.6, 0.7.
        let m = as_map(vec![
            profile(1, 10, 1),
            profile(2, 10, 2),
            profile(3, 10, 3),
            profile(4, 10, 6),
            profile(5, 10, 7),
        ]);
        let (s, thr) = initial_reduction(&m);
        assert!((thr - 0.3).abs() < 1e-9);
        assert_eq!(s.len(), 2);
        assert!(s.contains(&Ipv4Addr::new(10, 1, 0, 4)));
        assert!(s.contains(&Ipv4Addr::new(10, 1, 0, 5)));
    }

    #[test]
    fn hosts_without_successful_flows_excluded_entirely() {
        // A host with 100% failures is not eligible (never initiated a
        // successful flow) and must not skew the median either.
        let m = as_map(vec![
            profile(1, 10, 10),
            profile(2, 10, 1),
            profile(3, 10, 5),
        ]);
        let (s, thr) = initial_reduction(&m);
        // Median over eligible {0.1, 0.5} = 0.3; survivor: .3 < 0.5 → host 3.
        assert!((thr - 0.3).abs() < 1e-9);
        assert_eq!(s.len(), 1);
        assert!(s.contains(&Ipv4Addr::new(10, 1, 0, 3)));
    }

    #[test]
    fn empty_input() {
        let (s, thr) = initial_reduction(&HashMap::new());
        assert!(s.is_empty());
        assert_eq!(thr, 0.0);
    }

    #[test]
    fn ties_at_median_are_dropped() {
        let m = as_map(vec![
            profile(1, 10, 3),
            profile(2, 10, 3),
            profile(3, 10, 3),
        ]);
        let (s, thr) = initial_reduction(&m);
        assert!((thr - 0.3).abs() < 1e-9);
        assert!(s.is_empty(), "strictly-greater comparison");
    }
}
