//! Property tests for the interned data plane: `HostInterner` id↔ip
//! round trips and the columns and order `FlowTable` keeps of its flows.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use pw_flow::{FlowRecord, FlowState, FlowTable, HostId, HostInterner, Payload, Proto};
use pw_netsim::{SimDuration, SimTime};

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn ip_from_seed(seed: u64) -> Ipv4Addr {
    let h = mix(seed);
    // A small space so duplicates are common and re-interning is exercised.
    Ipv4Addr::new(10, (h & 1) as u8, ((h >> 1) & 0x3) as u8, (h >> 3) as u8)
}

fn flow_from_seed(seed: u64) -> FlowRecord {
    let h = mix(seed);
    let start = SimTime::from_millis((h >> 16) % 600_000);
    FlowRecord {
        start,
        end: start + SimDuration::from_secs(1 + (h & 0xF)),
        src: ip_from_seed(seed ^ 0xA),
        sport: 1024 + ((h >> 9) & 0xFF) as u16,
        dst: ip_from_seed(seed ^ 0xB),
        dport: 80,
        proto: if h & 0x400 == 0 {
            Proto::Tcp
        } else {
            Proto::Udp
        },
        src_pkts: 1 + (h & 0x3),
        src_bytes: (h >> 40) & 0xFFFF,
        dst_pkts: 1,
        dst_bytes: (h >> 24) & 0xFFFF,
        state: if h & 0x200 == 0 {
            FlowState::SynNoAnswer
        } else {
            FlowState::Established
        },
        payload: Payload::empty(),
    }
}

proptest! {
    #[test]
    fn interner_round_trips_and_is_idempotent(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..300),
    ) {
        let ips: Vec<Ipv4Addr> = seeds.iter().map(|&s| ip_from_seed(s)).collect();
        let mut interner = HostInterner::new();
        let ids: Vec<HostId> = ips.iter().map(|&ip| interner.intern(ip)).collect();

        // resolve ∘ intern is the identity on addresses.
        for (&ip, &id) in ips.iter().zip(&ids) {
            prop_assert_eq!(interner.resolve(id), ip);
            prop_assert_eq!(interner.get(ip), Some(id));
        }
        // Interning is injective on distinct addresses and idempotent:
        // re-interning everything changes nothing.
        let distinct: HashSet<Ipv4Addr> = ips.iter().copied().collect();
        prop_assert_eq!(interner.len(), distinct.len());
        let before = interner.len();
        for (&ip, &id) in ips.iter().zip(&ids) {
            prop_assert_eq!(interner.intern(ip), id);
        }
        prop_assert_eq!(interner.len(), before);
        // Ids are dense: ips()[id.index()] inverts resolve.
        for &id in &ids {
            prop_assert_eq!(interner.ips()[id.index()], interner.resolve(id));
        }
    }

    #[test]
    fn table_build_preserves_flows_and_order_is_a_permutation(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..200),
    ) {
        let flows: Vec<FlowRecord> = seeds.iter().map(|&s| flow_from_seed(s)).collect();
        let table = FlowTable::from_records(&flows);

        prop_assert_eq!(table.len(), flows.len());
        // Row `i` holds the columns of `flows[i]`, in input order.
        for (row, f) in flows.iter().enumerate() {
            prop_assert_eq!(table.start(row), f.start);
            prop_assert_eq!(table.hosts().resolve(table.src(row)), f.src);
            prop_assert_eq!(table.hosts().resolve(table.dst(row)), f.dst);
            prop_assert_eq!(table.src_bytes(row), f.src_bytes);
            prop_assert_eq!(table.dst_bytes(row), f.dst_bytes);
            prop_assert_eq!(table.is_failed(row), f.is_failed());
        }
        // The sorted index is the stable argsort of the canonical key, so
        // rows with equal keys keep their input order.
        let mut expected: Vec<u32> = (0..flows.len() as u32).collect();
        expected.sort_by_key(|&i| {
            let f = &flows[i as usize];
            (f.start, f.src, f.dst, f.sport, f.dport)
        });
        prop_assert_eq!(table.order(), expected.as_slice());
        // The interner covers exactly the endpoint addresses.
        let endpoints: HashSet<Ipv4Addr> =
            flows.iter().flat_map(|f| [f.src, f.dst]).collect();
        let interned: HashSet<Ipv4Addr> = table.hosts().ips().iter().copied().collect();
        prop_assert_eq!(interned, endpoints);
    }
}
