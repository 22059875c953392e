//! The columnar profile extraction against an independent extractor
//! written in the paper's terms: one address-keyed map entry per host,
//! both internality checks per flow, flows visited in the table's
//! canonical `(start, src, dst, sport, dport)` order.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use peerwatch::botnet::{generate_nugache_trace, generate_storm_trace, NugacheConfig, StormConfig};
use peerwatch::data::{build_day, overlay_bots, CampusConfig};
use peerwatch::detect::{
    extract_profiles_table_par_tier, internal_endpoint, HostProfile, ProfileRepr, ProfileTable,
    ProfileTier,
};
use peerwatch::flow::{FlowRecord, FlowTable};
use peerwatch::netsim::SimTime;

/// §IV features of every internal host, accumulated record by record.
fn oracle_profiles<F>(flows: &[FlowRecord], is_internal: F) -> HashMap<Ipv4Addr, HostProfile>
where
    F: Fn(Ipv4Addr) -> bool,
{
    let mut ordered: Vec<&FlowRecord> = flows.iter().collect();
    ordered.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    let mut profiles: HashMap<Ipv4Addr, HostProfile> = HashMap::new();
    let mut last_to: HashMap<(Ipv4Addr, Ipv4Addr), SimTime> = HashMap::new();
    for f in ordered {
        let Some(host) = internal_endpoint(f, &is_internal) else {
            continue;
        };
        let p = profiles.entry(host).or_insert_with(|| HostProfile {
            ip: host,
            flows_involving: 0,
            bytes_uploaded: 0,
            initiated: 0,
            initiated_failed: 0,
            first_activity: None,
            repr: ProfileRepr::Exact {
                first_contact: BTreeMap::new(),
                interstitials: Vec::new(),
            },
        });
        // Volume: bytes the host sent, over every flow it took part in.
        p.flows_involving += 1;
        p.bytes_uploaded += if f.src == host {
            f.src_bytes
        } else {
            f.dst_bytes
        };
        if f.src != host {
            continue;
        }
        // Failed-connection rate, churn and interstitials: initiated flows.
        p.initiated += 1;
        if f.is_failed() {
            p.initiated_failed += 1;
        }
        p.first_activity.get_or_insert(f.start);
        let ProfileRepr::Exact {
            first_contact,
            interstitials,
        } = &mut p.repr
        else {
            unreachable!("the oracle builds exact profiles only");
        };
        first_contact.entry(f.dst).or_insert(f.start);
        if let Some(prev) = last_to.insert((host, f.dst), f.start) {
            interstitials.push((f.start - prev).as_secs_f64());
        }
    }
    profiles
}

#[test]
fn table_extraction_matches_the_record_oracle() {
    let campus = CampusConfig::small();
    let day = build_day(&campus, 0);
    let storm = generate_storm_trace(
        &StormConfig {
            n_bots: 4,
            duration: campus.duration,
            ..StormConfig::default()
        },
        7,
    );
    let nugache = generate_nugache_trace(
        &NugacheConfig {
            n_bots: 3,
            duration: campus.duration,
            ..NugacheConfig::default()
        },
        8,
    );
    let overlaid = overlay_bots(&day, &[&storm, &nugache], 9);
    let is_internal = |ip| day.is_internal(ip);

    let oracle = ProfileTable::from_map(oracle_profiles(&overlaid.flows, is_internal));
    assert!(oracle.len() > 50, "a campus day profiles many hosts");
    for host in overlaid.implants.keys() {
        assert!(oracle.get(*host).is_some(), "implant {host} profiled");
    }
    let table = FlowTable::from_records(&overlaid.flows);
    for threads in [1, 4] {
        let got = extract_profiles_table_par_tier(&table, is_internal, ProfileTier::Exact, threads);
        assert!(
            got == oracle,
            "threads={threads}: table path diverged from the oracle"
        );
    }
}
