//! Per-port traffic separation — the extension §VI of the paper proposes.
//!
//! The paper's stated limitation: a Plotter that infects a *Trader* can
//! hide behind the Trader's heavy traffic. Its proposed remedy: "One
//! method of distinguishing between Plotter and Trader traffic on a host
//! might be to separate traffic by application, such as determined using
//! port numbers. Traffic from each port, or a group of associated ports,
//! can then be applied individually to the tests in §IV."
//!
//! [`find_plotters_per_service`] implements exactly that: each internal
//! host's flows are partitioned into per-service slices (keyed by the
//! transport protocol and the host-side application port), every
//! `(host, service)` slice becomes its own pseudo-host, and the unchanged
//! `FindPlotters` pipeline runs over the pseudo-host population. A host is
//! flagged if *any* of its services is flagged — the bot's control channel
//! can no longer shelter under the file-sharing traffic sharing its host.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use pw_flow::{FlowRecord, FlowTable, HostId, Proto};

use crate::features::{border_host, extract_profiles_table_par_tier, internal_flags, ProfileTier};
use crate::pipeline::{find_plotters_from_table, FindPlottersConfig};

/// The application slice a flow belongs to, from the monitored host's
/// perspective.
///
/// For flows the host initiates, the service is the remote `(proto,
/// dport)` — ephemeral client ports would shred one application into
/// thousands of slices. For flows the host receives, it is the local
/// `(proto, dport)` the application listens on. Either way the key is the
/// *well-known* side of the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceKey {
    /// Transport protocol.
    pub proto: Proto,
    /// The service port (remote for initiated flows, local for received).
    pub port: u16,
}

impl std::fmt::Display for ServiceKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.proto, self.port)
    }
}

/// The service slice of `flow` relative to `host`.
///
/// # Panics
///
/// Panics if `host` is not an endpoint of the flow.
pub fn service_of(flow: &FlowRecord, host: Ipv4Addr) -> ServiceKey {
    assert!(flow.involves(host), "host not an endpoint");
    ServiceKey {
        proto: flow.proto,
        port: flow.dport,
    }
}

/// Report of the per-service pipeline run.
#[derive(Debug, Clone)]
pub struct PerServiceReport {
    /// Hosts with at least one flagged service.
    pub suspects: HashSet<Ipv4Addr>,
    /// The flagged `(host, service)` slices, sorted.
    pub flagged_services: Vec<(Ipv4Addr, ServiceKey)>,
    /// Number of `(host, service)` pseudo-hosts evaluated.
    pub pseudo_hosts: usize,
    /// The underlying pipeline report over pseudo-hosts (each pseudo-host
    /// address resolves via [`PerServiceReport::resolve`]); exposed for
    /// stage-level diagnostics.
    pub inner: crate::pipeline::PlotterReport,
    /// Pseudo-address → `(host, service)` mapping.
    pub pseudo_map: HashMap<Ipv4Addr, (Ipv4Addr, ServiceKey)>,
}

impl PerServiceReport {
    /// Resolves a pseudo-host address back to its `(host, service)` slice.
    pub fn resolve(&self, pseudo: Ipv4Addr) -> Option<(Ipv4Addr, ServiceKey)> {
        self.pseudo_map.get(&pseudo).copied()
    }
}

/// Runs `FindPlotters` over per-service traffic slices (§VI's proposed
/// refinement).
///
/// Slices with fewer than `min_flows` flows are merged into a catch-all
/// "other" slice per host (tiny slices carry no statistical signal and
/// would flood the percentile populations).
pub fn find_plotters_per_service<F>(
    flows: &[FlowRecord],
    is_internal: F,
    cfg: &FindPlottersConfig,
    min_flows: usize,
) -> PerServiceReport
where
    F: Fn(Ipv4Addr) -> bool,
{
    // Intern endpoints once; the internality oracle runs per distinct host
    // and slice counting indexes a dense per-host table.
    let table = FlowTable::from_records(flows);
    let flags = internal_flags(&table, &is_internal);
    let mut slices: Vec<HashMap<ServiceKey, usize>> = vec![HashMap::new(); table.hosts().len()];
    for row in 0..table.len() {
        if let Some(host) = border_host(&table, row, &flags) {
            let svc = ServiceKey {
                proto: table.proto(row),
                port: table.dport(row),
            };
            *slices[host.index()].entry(svc).or_insert(0) += 1;
        }
    }

    // Assign each surviving slice a pseudo-address in 127.0.0.0/8 (never a
    // real border endpoint), remembering the mapping.
    const OTHER: ServiceKey = ServiceKey {
        proto: Proto::Tcp,
        port: 0,
    };
    let mut keys: Vec<(Ipv4Addr, ServiceKey)> = Vec::new();
    for (idx, per_svc) in slices.iter().enumerate() {
        let host = table.hosts().resolve(HostId::from_index(idx));
        let mut pooled = false;
        for (&svc, &n) in per_svc {
            if n >= min_flows {
                keys.push((host, svc));
            } else {
                pooled = true;
            }
        }
        if pooled {
            keys.push((host, OTHER));
        }
    }
    keys.sort();
    keys.dedup(); // a real port-0 slice may coincide with the pool
    assert!(keys.len() < 0xFF_FF_FF, "pseudo-address space exhausted");
    let pseudo_of: HashMap<(Ipv4Addr, ServiceKey), Ipv4Addr> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let i = i as u32 + 1;
            (k, Ipv4Addr::from(0x7F00_0000u32 | i))
        })
        .collect();
    let real_of: HashMap<Ipv4Addr, (Ipv4Addr, ServiceKey)> =
        pseudo_of.iter().map(|(&k, &p)| (p, k)).collect();

    // Rewrite each border flow's internal endpoint to its slice's pseudo
    // address, then run the standard pipeline unchanged.
    let mut rewritten: Vec<FlowRecord> = Vec::with_capacity(table.len());
    for row in 0..table.len() {
        let Some(host_id) = border_host(&table, row, &flags) else {
            continue;
        };
        let host = table.hosts().resolve(host_id);
        let mut svc = ServiceKey {
            proto: table.proto(row),
            port: table.dport(row),
        };
        if slices[host_id.index()][&svc] < min_flows {
            svc = OTHER;
        }
        let pseudo = pseudo_of[&(host, svc)];
        let mut g = table.record(row);
        if table.src(row) == host_id {
            g.src = pseudo;
        } else {
            g.dst = pseudo;
        }
        rewritten.push(g);
    }
    let pseudo_table = FlowTable::from_records(&rewritten);
    let profiles = extract_profiles_table_par_tier(
        &pseudo_table,
        |ip| u32::from(ip) >> 24 == 0x7F,
        ProfileTier::Exact,
        1,
    );
    let report = find_plotters_from_table(&profiles, cfg);

    let mut flagged_services: Vec<(Ipv4Addr, ServiceKey)> =
        report.suspects.iter().map(|p| real_of[p]).collect();
    flagged_services.sort();
    let suspects = flagged_services.iter().map(|&(h, _)| h).collect();
    PerServiceReport {
        suspects,
        flagged_services,
        pseudo_hosts: keys.len(),
        inner: report,
        pseudo_map: real_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_flow::{FlowState, Payload};
    use pw_netsim::{SimDuration, SimTime};

    fn internal(ip: Ipv4Addr) -> bool {
        ip.octets()[0] == 10
    }

    fn flow(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        dport: u16,
        start: SimTime,
        up: u64,
        failed: bool,
    ) -> FlowRecord {
        FlowRecord {
            start,
            end: start + SimDuration::from_secs(1),
            src,
            sport: 40_000,
            dst,
            dport,
            proto: Proto::Tcp,
            src_pkts: 1,
            src_bytes: up,
            dst_pkts: 1,
            dst_bytes: 100,
            state: if failed {
                FlowState::SynNoAnswer
            } else {
                FlowState::Established
            },
            payload: Payload::empty(),
        }
    }

    #[test]
    fn service_key_uses_well_known_side() {
        let host = Ipv4Addr::new(10, 1, 0, 1);
        let ext = Ipv4Addr::new(9, 9, 9, 9);
        let outbound = flow(host, ext, 80, SimTime::ZERO, 10, false);
        assert_eq!(
            service_of(&outbound, host),
            ServiceKey {
                proto: Proto::Tcp,
                port: 80
            }
        );
        let inbound = flow(ext, host, 6346, SimTime::ZERO, 10, false);
        assert_eq!(
            service_of(&inbound, host),
            ServiceKey {
                proto: Proto::Tcp,
                port: 6346
            }
        );
    }

    /// A bot hiding on a heavy-Trader host: combined, the host's average
    /// upload is huge (vol test misses it); per-service, the bot's port-8
    /// slice is tiny, periodic, failure-ridden — and flagged.
    #[test]
    fn per_service_unmasks_bot_on_trader_host() {
        let mut flows = Vec::new();
        let ext = |i: u32| Ipv4Addr::new(60, (i / 250) as u8, (i % 250) as u8, 9);

        // Several infected trader-like hosts: big transfers on 6346 plus a
        // periodic low-volume bot channel on port 8 to a fixed peer set.
        for h in 0..4u8 {
            let host = Ipv4Addr::new(10, 1, 0, 1 + h);
            for k in 0..40u64 {
                let t = SimTime::from_secs(200 + k * 500 + (k * k * 37) % 400);
                flows.push(flow(
                    host,
                    ext(1000 + k as u32),
                    6346,
                    t,
                    2_000_000,
                    k % 3 == 0,
                ));
            }
            for k in 0..200u64 {
                let t = SimTime::from_secs(k * 100);
                for p in 0..3u32 {
                    flows.push(flow(
                        host,
                        ext(h as u32 * 8 + p),
                        8,
                        t + SimDuration::from_secs(p as u64),
                        90,
                        p == 1,
                    ));
                }
            }
        }
        // Background hosts: human-ish web traffic.
        for h in 0..20u8 {
            let host = Ipv4Addr::new(10, 2, 0, 1 + h);
            for k in 0..60u64 {
                let t = SimTime::from_secs(100 + k * 330 + (k * k * 131 + h as u64 * 777) % 290);
                flows.push(flow(host, ext((k % 11) as u32), 80, t, 700, k % 9 == 0));
            }
        }

        // Whole-host pipeline: infected hosts' volume is dominated by the
        // transfers, so the volume test misses them.
        let whole = crate::pipeline::try_find_plotters_table_tier(
            &FlowTable::from_records(&flows),
            internal,
            &Default::default(),
            ProfileTier::Exact,
            1,
        )
        .unwrap();
        let (whole_s_vol, _) = (whole.s_vol.clone(), ());
        for h in 0..4u8 {
            assert!(
                !whole_s_vol.contains(&Ipv4Addr::new(10, 1, 0, 1 + h)),
                "host-level volume test should be blinded by trader bytes"
            );
        }

        // Per-service pipeline: the port-8 slice gives the bots away.
        let per = find_plotters_per_service(&flows, internal, &Default::default(), 10);
        for h in 0..4u8 {
            let host = Ipv4Addr::new(10, 1, 0, 1 + h);
            assert!(
                per.suspects.contains(&host),
                "per-service run missed infected host {host}"
            );
            assert!(
                per.flagged_services
                    .iter()
                    .any(|&(ip, svc)| ip == host && svc.port == 8),
                "flagged the wrong slice: {:?}",
                per.flagged_services
            );
        }
        // Background hosts stay clean.
        for h in 0..20u8 {
            assert!(!per.suspects.contains(&Ipv4Addr::new(10, 2, 0, 1 + h)));
        }
    }

    #[test]
    fn tiny_slices_pool_into_other() {
        let host = Ipv4Addr::new(10, 1, 0, 1);
        let ext = Ipv4Addr::new(9, 9, 9, 9);
        let mut flows = Vec::new();
        for port in 0..30u16 {
            flows.push(flow(
                host,
                ext,
                1000 + port,
                SimTime::from_secs(port as u64),
                10,
                false,
            ));
        }
        let per = find_plotters_per_service(&flows, internal, &Default::default(), 10);
        // 30 one-flow slices pool into a single "other" pseudo-host.
        assert_eq!(per.pseudo_hosts, 1);
    }

    #[test]
    #[should_panic(expected = "endpoint")]
    fn service_of_requires_endpoint() {
        let f = flow(
            Ipv4Addr::new(10, 1, 0, 1),
            Ipv4Addr::new(9, 9, 9, 9),
            80,
            SimTime::ZERO,
            1,
            false,
        );
        service_of(&f, Ipv4Addr::new(10, 9, 9, 9));
    }
}
