//! Property tests pinning the streaming/batch equivalence: for arbitrary
//! flow sets, the sharded extractors and the windowed engine must agree
//! with the serial batch path byte for byte.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use pw_detect::stream::{DetectionEngine, EngineConfig};
use pw_detect::{
    extract_profiles_table_par_tier, find_plotters_from_table, FindPlottersConfig, ProfileTier,
};
use pw_flow::{FlowRecord, FlowState, FlowTable, Payload, Proto};
use pw_netsim::{SimDuration, SimTime};

fn internal(ip: Ipv4Addr) -> bool {
    ip.octets()[0] == 10
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Expands one seed into a flow. A third of the flows are non-border
/// (external↔external) so filtering is exercised; hosts collide often so
/// interstitials and first-contact maps fill up.
fn flow_from_seed(seed: u64) -> FlowRecord {
    let h = mix(seed);
    let host = Ipv4Addr::new(10, 1, 0, (h & 0x07) as u8 + 1);
    let peer = Ipv4Addr::new(60, 1, 0, ((h >> 3) & 0x0F) as u8 + 1);
    let (src, dst) = if h & 0x100 == 0 {
        (host, peer)
    } else {
        (peer, host)
    };
    let src = if h.is_multiple_of(3) {
        Ipv4Addr::new(70, 2, 0, (h & 0x1F) as u8 + 1)
    } else {
        src
    };
    let start = SimTime::from_millis((h >> 16) % 3_600_000);
    let failed = h & 0x200 == 0;
    FlowRecord {
        start,
        end: start + SimDuration::from_secs(1),
        src,
        sport: 1024 + ((h >> 9) & 0x3F) as u16,
        dst,
        dport: 80,
        proto: Proto::Tcp,
        src_pkts: 1 + (h & 0x3),
        src_bytes: (h >> 40) & 0xFFFF,
        dst_pkts: 1,
        dst_bytes: (h >> 24) & 0xFFFF,
        state: if failed {
            FlowState::SynNoAnswer
        } else {
            FlowState::Established
        },
        payload: Payload::empty(),
    }
}

fn flows_from(seeds: &[u64]) -> Vec<FlowRecord> {
    let mut flows: Vec<FlowRecord> = seeds.iter().map(|&s| flow_from_seed(s)).collect();
    flows.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    flows
}

proptest! {
    #[test]
    fn sharded_extraction_matches_serial(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..200),
        threads in 1usize..9,
    ) {
        let flows = flows_from(&seeds);
        let table = FlowTable::from_records(&flows);
        let serial = extract_profiles_table_par_tier(&table, internal, ProfileTier::Exact, 1);
        let sharded = extract_profiles_table_par_tier(&table, internal, ProfileTier::Exact, threads);
        prop_assert_eq!(serial, sharded);
    }

    #[test]
    fn one_streaming_window_matches_batch(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..200),
        threads in 1usize..5,
    ) {
        let flows = flows_from(&seeds);
        let profiles = extract_profiles_table_par_tier(
            &FlowTable::from_records(&flows),
            internal,
            ProfileTier::Exact,
            1,
        );
        let batch = find_plotters_from_table(&profiles, &FindPlottersConfig::default());

        let cfg = EngineConfig {
            window: SimDuration::from_hours(2),
            slide: SimDuration::from_hours(2),
            lateness: SimDuration::from_hours(2),
            threads,
            ..Default::default()
        };
        let mut engine = DetectionEngine::new(cfg, internal).unwrap();
        for f in &flows {
            let closed = engine.push(*f).unwrap();
            prop_assert!(closed.is_empty(), "window closed early");
        }
        let mut reports = engine.finish();
        prop_assert_eq!(reports.len(), 1);
        let report = reports.pop().unwrap();
        match report.outcome {
            Ok(streamed) => {
                prop_assert_eq!(&streamed.suspects, &batch.suspects);
                prop_assert_eq!(streamed.tau_vol.to_bits(), batch.tau_vol.to_bits());
                prop_assert_eq!(streamed.tau_churn.to_bits(), batch.tau_churn.to_bits());
                prop_assert_eq!(streamed.hm.tau.to_bits(), batch.hm.tau.to_bits());
                prop_assert_eq!(&streamed.hm.clusters, &batch.hm.clusters);
                prop_assert_eq!(&streamed.all_hosts, &batch.all_hosts);
                prop_assert_eq!(&streamed.after_reduction, &batch.after_reduction);
            }
            Err(pw_detect::Error::EmptyWindow) => {
                prop_assert!(batch.all_hosts.is_empty());
            }
            Err(pw_detect::Error::ThresholdUnresolvable { stage }) => {
                // Strict mode refuses what the lenient batch path papers
                // over as an empty stage with threshold 0.0.
                match stage {
                    "theta_vol" => {
                        prop_assert!(batch.s_vol.is_empty());
                        prop_assert_eq!(batch.tau_vol, 0.0);
                    }
                    _ => {
                        prop_assert!(batch.s_churn.is_empty());
                        prop_assert_eq!(batch.tau_churn, 0.0);
                    }
                }
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    #[test]
    fn tumbling_windows_partition_any_stream(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..150),
    ) {
        let flows = flows_from(&seeds);
        let cfg = EngineConfig {
            window: SimDuration::from_mins(10),
            slide: SimDuration::from_mins(10),
            lateness: SimDuration::ZERO,
            ..Default::default()
        };
        let mut engine = DetectionEngine::new(cfg, internal).unwrap();
        let mut reports = Vec::new();
        for f in &flows {
            reports.extend(engine.push(*f).unwrap());
        }
        reports.extend(engine.finish());
        let total: usize = reports.iter().map(|w| w.flows).sum();
        prop_assert_eq!(total, flows.len());
        for w in &reports {
            prop_assert_eq!(w.end.as_millis() - w.start.as_millis(), 600_000);
        }
    }
}
