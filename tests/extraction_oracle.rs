//! Profile extraction against an independent extractor written in the
//! paper's terms: one address-keyed map entry per host, one map entry per
//! (host, destination) pair, both internality checks per flow, flows
//! visited in canonical `(start, src, dst, sport, dport)` order. Both
//! feeders of the extraction kernel are checked: the `FlowTable` walk at
//! one and four threads, and `ProfileAccumulator` fed record by record.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use peerwatch::botnet::{generate_nugache_trace, generate_storm_trace, NugacheConfig, StormConfig};
use peerwatch::data::{build_day, overlay_bots, CampusConfig};
use peerwatch::detect::{
    extract_profiles_table_par_tier, internal_endpoint, HostProfile, ProfileAccumulator,
    ProfileRepr, ProfileTable, ProfileTier,
};
use peerwatch::flow::{FlowRecord, FlowState, FlowTable, Payload, Proto};
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

/// Checks both kernel feeders against the oracle on `flows`; returns the
/// oracle's profiles.
fn matches_the_oracle<F>(flows: &[FlowRecord], is_internal: F) -> ProfileTable
where
    F: Fn(Ipv4Addr) -> bool + Sync,
{
    let oracle = ProfileTable::from_map(oracle_profiles(flows, &is_internal));
    let table = FlowTable::from_records(flows);
    for threads in [1, 4] {
        let got =
            extract_profiles_table_par_tier(&table, &is_internal, ProfileTier::Exact, threads);
        assert!(
            got == oracle,
            "threads={threads}: table path diverged from the oracle"
        );
    }
    let mut ordered = flows.to_vec();
    ordered.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    let mut acc = ProfileAccumulator::new();
    for f in &ordered {
        if let Some(host) = internal_endpoint(f, &is_internal) {
            acc.absorb(f, host);
        }
    }
    assert!(
        acc.finish() == oracle,
        "the record accumulator diverged from the oracle"
    );
    oracle
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

    let oracle = matches_the_oracle(&overlaid.flows, is_internal);
    assert!(oracle.len() > 50, "a campus day profiles many hosts");
    for host in overlaid.implants.keys() {
        assert!(oracle.get(*host).is_some(), "implant {host} profiled");
    }
}

fn flow(src: Ipv4Addr, dst: Ipv4Addr, secs: u64, failed: bool) -> FlowRecord {
    FlowRecord {
        start: SimTime::from_secs(secs),
        end: SimTime::from_secs(secs + 2),
        src,
        sport: 4000 + (secs % 1000) as u16,
        dst,
        dport: 6881,
        proto: Proto::Tcp,
        src_pkts: 3,
        src_bytes: 300 + secs,
        dst_pkts: 2,
        dst_bytes: 90,
        state: if failed {
            FlowState::SynNoAnswer
        } else {
            FlowState::Established
        },
        payload: Payload::empty(),
    }
}

/// Internal hosts sharing external peers at interleaved times, so a
/// contact key that drops the host or the destination mixes up gaps; and
/// a host that comes back to its first peer over an hour after moving on
/// to others, so a first-contact list that records the revisit moves that
/// peer's first contact and the host's churn.
#[test]
fn shared_peers_and_revisits_match_the_record_oracle() {
    let hosts = [1, 2, 3].map(|h| Ipv4Addr::new(10, 1, 0, h));
    let peers = [1, 2, 3, 4].map(|p| Ipv4Addr::new(80, 0, 0, p));
    let mut flows = Vec::new();
    // Every host calls every peer in turn, offset by a few seconds, round
    // after round: the same peers, interleaved across hosts.
    for round in 0..6u64 {
        for (h, &host) in hosts.iter().enumerate() {
            for (p, &peer) in peers.iter().enumerate().skip(h) {
                let t = round * 400 + (p * 37 + h * 11) as u64;
                flows.push(flow(host, peer, t, (round + p as u64).is_multiple_of(3)));
            }
        }
    }
    // The revisit: the first host returns to a peer it had left.
    let (revisit, late_peer) = (2 * 3600, Ipv4Addr::new(90, 0, 0, 1));
    flows.push(flow(hosts[0], peers[0], revisit, false));
    flows.push(flow(hosts[0], late_peer, revisit + 5, false));
    // Inbound flows count for volume only.
    flows.push(flow(peers[1], hosts[1], 123, false));
    flows.push(flow(peers[2], hosts[2], 456, true));

    let oracle = matches_the_oracle(&flows, |ip: Ipv4Addr| ip.octets()[0] == 10);
    let first = oracle.get(hosts[0]).expect("profiled");
    assert_eq!(
        first.first_contact().expect("exact tier")[&peers[0]],
        SimTime::ZERO
    );
    assert_eq!(first.new_ip_fraction(), Some(0.2));
    for (h, &host) in hosts.iter().enumerate() {
        let p = oracle.get(host).expect("profiled");
        assert_eq!(
            p.distinct_destinations(),
            peers.len() - h + usize::from(h == 0)
        );
        assert!(p.has_interstitials());
    }
}
