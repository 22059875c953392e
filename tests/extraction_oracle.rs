//! Profile extraction against an independent extractor written in the
//! paper's terms: one address-keyed map entry per host, one map entry per
//! (host, destination) pair, both internality checks per flow, flows
//! visited in canonical `(start, src, dst, sport, dport)` order. Both
//! feeders of the extraction kernel are checked: the `FlowTable` walk at
//! one and four threads, and `ProfileAccumulator` fed record by record.
//! The oracle keeps each destination's first contact and counts the
//! destinations, and the new ones among them, only when it is done, so it
//! checks the counts that detection reads.
//!
//! The first-hour boundary of §IV-B is also checked at both tiers through
//! every feeder, the streaming engine's included, and at the end of the
//! clock.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use peerwatch::botnet::{generate_nugache_trace, generate_storm_trace, NugacheConfig, StormConfig};
use peerwatch::data::{build_day, overlay_bots, CampusConfig};
use peerwatch::detect::stream::{DetectionEngine, EngineConfig, WindowReport};
use peerwatch::detect::{
    extract_profiles_table_par_tier, internal_endpoint, FindPlottersConfig, HostProfile,
    ProfileAccumulator, ProfileRepr, ProfileTable, ProfileTier,
};
use peerwatch::flow::{FlowRecord, FlowState, FlowTable, Payload, Proto};
use peerwatch::netsim::{SimDuration, SimTime};

/// §IV features of every internal host, accumulated record by record.
fn oracle_profiles<F>(flows: &[FlowRecord], is_internal: F) -> HashMap<Ipv4Addr, HostProfile>
where
    F: Fn(Ipv4Addr) -> bool,
{
    let mut ordered: Vec<&FlowRecord> = flows.iter().collect();
    ordered.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    let mut profiles: HashMap<Ipv4Addr, HostProfile> = HashMap::new();
    let mut first_contact: HashMap<Ipv4Addr, BTreeMap<Ipv4Addr, SimTime>> = HashMap::new();
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
                destinations: 0,
                early_destinations: 0,
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
        let ProfileRepr::Exact { interstitials, .. } = &mut p.repr else {
            unreachable!("the oracle builds exact profiles only");
        };
        first_contact
            .entry(host)
            .or_default()
            .entry(f.dst)
            .or_insert(f.start);
        if let Some(prev) = last_to.insert((host, f.dst), f.start) {
            interstitials.push((f.start - prev).as_secs_f64());
        }
    }
    // Churn: a destination is new if first contacted more than an hour
    // after the host's first activity.
    for (host, firsts) in first_contact {
        let p = profiles
            .get_mut(&host)
            .expect("an initiating host is profiled");
        let first = p
            .first_activity
            .expect("an initiating host has a first activity");
        let new = firsts
            .values()
            .filter(|&&t| t.since(first) > SimDuration::from_hours(1))
            .count();
        let ProfileRepr::Exact {
            destinations,
            early_destinations,
            ..
        } = &mut p.repr
        else {
            unreachable!("the oracle builds exact profiles only");
        };
        *destinations = firsts.len() as u64;
        *early_destinations = (firsts.len() - new) as u64;
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
    // Of five destinations only the late peer is new: the revisit leaves
    // the first peer's first contact at the start.
    assert!(matches!(
        first.repr,
        ProfileRepr::Exact {
            destinations: 5,
            early_destinations: 4,
            ..
        }
    ));
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

fn internal(ip: Ipv4Addr) -> bool {
    ip.octets()[0] == 10
}

/// `τ_churn` of every window that profiled a host, as bits. Each such
/// window here profiles one host, so `τ_churn` is that host's new-IP
/// fraction.
fn window_churn(reports: &[WindowReport]) -> Vec<(u64, u64)> {
    reports
        .iter()
        .filter(|w| w.hosts > 0)
        .map(|w| {
            let report = w.outcome.as_ref().expect("a window with a host is scored");
            (w.index, report.tau_churn.to_bits())
        })
        .collect()
}

/// The first hour of §IV-B ends exactly one hour after a host's first
/// initiated flow: a destination first contacted then is old, one first
/// contacted a millisecond later is new. Checked bit for bit at both
/// tiers through the table walk at one and four threads,
/// `ProfileAccumulator`, and sliding engine windows on both paths into the
/// extraction kernel: the watermark feed and the catch-up of a `finish`
/// flush.
#[test]
fn the_first_hour_ends_exactly_one_hour_after_first_activity() {
    let host = Ipv4Addr::new(10, 1, 0, 1);
    let [old, at_cutoff, past_cutoff] = [1, 2, 3].map(|p| Ipv4Addr::new(80, 0, 0, p));
    let first = SimTime::from_secs(70 * 60);
    let after = |ms: u64| SimTime::from_millis(first.as_millis() + ms);
    let hour = 3_600_000;
    // In canonical order: the first activity, the last early first
    // contact, the first new one, and a revisit that is no destination.
    let flows = [
        (old, 0),
        (at_cutoff, hour),
        (past_cutoff, hour + 1),
        (old, hour + 5),
    ]
    .map(|(dst, ms)| FlowRecord {
        start: after(ms),
        end: after(ms + 2000),
        ..flow(host, dst, 0, false)
    });
    // A border monitor sees nothing of this flow: it only moves the
    // watermark past every window above.
    let clock = flow(Ipv4Addr::new(80, 9, 0, 1), old, 10 * 3600, false);
    let third = (1.0f64 / 3.0).to_bits();
    // Two-hour windows sliding by an hour: window 1 (1–3 h) holds all four
    // flows; window 0 only the first, window 2 all but the first, so both
    // see early destinations only.
    let windows = [(0, 0.0f64.to_bits()), (1, third), (2, 0.0f64.to_bits())];

    let table = FlowTable::from_records(&flows);
    for tier in [ProfileTier::Exact, ProfileTier::Sketched] {
        for threads in [1, 4] {
            let profiles = extract_profiles_table_par_tier(&table, internal, tier, threads);
            let churn = profiles.get(host).and_then(HostProfile::new_ip_fraction);
            assert_eq!(
                churn.map(f64::to_bits),
                Some(third),
                "{tier:?}, {threads} threads"
            );
        }
        let mut acc = ProfileAccumulator::with_tier(tier);
        for f in &flows {
            acc.absorb(f, host);
        }
        let churn = acc
            .finish()
            .get(host)
            .and_then(HostProfile::new_ip_fraction);
        assert_eq!(
            churn.map(f64::to_bits),
            Some(third),
            "{tier:?}, accumulator"
        );

        let cfg = EngineConfig {
            window: SimDuration::from_hours(2),
            slide: SimDuration::from_hours(1),
            lateness: SimDuration::ZERO,
            tier,
            detect: FindPlottersConfig {
                with_reduction: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let engine = |cfg| DetectionEngine::new(cfg, internal).expect("valid engine config");

        // Every window takes in each flow as the watermark logs it, and
        // closes on the clock's push.
        let mut fed = engine(cfg);
        let mut closed = Vec::new();
        for f in flows.iter().chain([&clock]) {
            closed.extend(fed.push(*f).expect("in order"));
        }
        assert_eq!(window_churn(&closed), windows, "{tier:?}, watermark feed");

        // Half an hour of lateness: windows 0 and 1 have taken in the first
        // flow when `finish` logs the other three for their closes.
        let mut lagging = engine(EngineConfig {
            lateness: SimDuration::from_mins(30),
            ..cfg
        });
        for f in &flows {
            assert!(lagging.push(*f).expect("in order").is_empty());
        }
        assert_eq!((lagging.buffered(), lagging.open_windows()), (3, 2));
        let closed = lagging.finish();
        assert_eq!(window_churn(&closed), windows, "{tier:?}, flush catch-up");
    }
}

/// A host first active 100 s before the clock ends: its first hour runs
/// past the end, so every destination is early, at both tiers.
#[test]
fn the_first_hour_ends_at_the_end_of_the_clock() {
    let host = Ipv4Addr::new(10, 1, 0, 1);
    let [e1, e2] = [1, 2].map(|p| Ipv4Addr::new(80, 0, 0, p));
    let flows = [(e1, 100_000), (e2, 50_000), (e1, 0)].map(|(dst, before_end)| {
        let start = SimTime::from_millis(u64::MAX - before_end);
        FlowRecord {
            start,
            end: start,
            ..flow(host, dst, 0, false)
        }
    });
    let table = FlowTable::from_records(&flows);
    for tier in [ProfileTier::Exact, ProfileTier::Sketched] {
        let profiles = extract_profiles_table_par_tier(&table, internal, tier, 1);
        let p = profiles.get(host).expect("profiled");
        assert_eq!(p.distinct_destinations(), 2, "{tier:?}");
        assert_eq!(p.new_ip_fraction(), Some(0.0), "{tier:?}");
        assert_eq!(p.interstitials(), &[100.0], "{tier:?}");
    }
}
