//! Property-based tests for the Argus substrate.

mod oracle;

use proptest::prelude::*;
use pw_flow::synth::{emit_connection, ConnOutcome, ConnSpec};
use pw_flow::{ArgusAggregator, FlowRecord, Packet, PacketSink, Payload, Proto, TcpFlags};
use pw_netsim::{SimDuration, SimTime};
use std::net::Ipv4Addr;

fn ip_strategy() -> impl Strategy<Value = Ipv4Addr> {
    (1u8..250, 0u8..250, 0u8..250, 1u8..250).prop_map(|(a, b, c, d)| Ipv4Addr::new(a, b, c, d))
}

fn outcome_strategy() -> impl Strategy<Value = ConnOutcome> {
    prop_oneof![
        (0u64..2_000_000, 0u64..2_000_000).prop_map(|(u, d)| ConnOutcome::Established {
            bytes_up: u,
            bytes_down: d
        }),
        Just(ConnOutcome::NoAnswer),
        Just(ConnOutcome::Rejected),
    ]
}

fn udp_outcome_strategy() -> impl Strategy<Value = ConnOutcome> {
    // Datagrams above the MSS fragment into multiple packets, so the
    // packet-count assertion below holds only for single-MTU payloads.
    prop_oneof![
        (0u64..1_400, 0u64..1_400).prop_map(|(u, d)| ConnOutcome::UdpExchange {
            bytes_up: u,
            bytes_down: d
        }),
        (0u64..1_400, 0u32..3).prop_map(|(u, r)| ConnOutcome::UdpNoReply {
            bytes_up: u,
            retries: r
        }),
    ]
}

proptest! {
    /// Any synthesized TCP connection aggregates to exactly one flow whose
    /// byte totals cover the requested application bytes.
    #[test]
    fn tcp_connection_aggregates_to_one_flow(
        src in ip_strategy(),
        dst in ip_strategy(),
        sport in 1024u16..65000,
        dport in 1u16..1024,
        outcome in outcome_strategy(),
        start_s in 0u64..20_000,
        dur_s in 1u64..600,
    ) {
        prop_assume!(src != dst);
        let spec = ConnSpec::tcp(SimTime::from_secs(start_s), src, sport, dst, dport)
            .outcome(outcome)
            .duration(SimDuration::from_secs(dur_s));
        let mut agg = ArgusAggregator::default();
        emit_connection(&mut agg, &spec);
        let flows = agg.finish(SimTime::from_secs(start_s + dur_s + 7200));
        prop_assert_eq!(flows.len(), 1);
        let f = &flows[0];
        prop_assert_eq!(f.src, src);
        prop_assert_eq!(f.dst, dst);
        prop_assert_eq!(f.proto, Proto::Tcp);
        match outcome {
            ConnOutcome::Established { bytes_up, bytes_down } => {
                prop_assert!(!f.is_failed());
                prop_assert!(f.src_bytes >= bytes_up);
                prop_assert!(f.dst_bytes >= bytes_down);
            }
            ConnOutcome::NoAnswer | ConnOutcome::Rejected => prop_assert!(f.is_failed()),
            _ => unreachable!("tcp outcomes only"),
        }
        prop_assert!(f.end >= f.start);
    }

    /// UDP variants: reply iff the outcome exchanges data both ways.
    #[test]
    fn udp_connection_failure_state_matches_outcome(
        src in ip_strategy(),
        dst in ip_strategy(),
        sport in 1024u16..65000,
        outcome in udp_outcome_strategy(),
    ) {
        prop_assume!(src != dst);
        let spec = ConnSpec::udp(SimTime::ZERO, src, sport, dst, 53).outcome(outcome);
        let mut agg = ArgusAggregator::default();
        emit_connection(&mut agg, &spec);
        let flows = agg.finish(SimTime::from_secs(3600));
        prop_assert_eq!(flows.len(), 1);
        match outcome {
            ConnOutcome::UdpExchange { .. } => prop_assert!(!flows[0].is_failed()),
            ConnOutcome::UdpNoReply { retries, .. } => {
                prop_assert!(flows[0].is_failed());
                prop_assert_eq!(flows[0].src_pkts, retries as u64 + 1);
            }
            _ => unreachable!("udp outcomes only"),
        }
    }

    /// Aggregation conserves packets and bytes regardless of interleaving.
    #[test]
    fn aggregation_conserves_totals(specs in prop::collection::vec(
        (ip_strategy(), ip_strategy(), 1024u16..65000, outcome_strategy(), 0u64..5_000),
        1..20,
    )) {
        let mut packets: Vec<Packet> = Vec::new();
        for (i, (src, dst, sport, outcome, t)) in specs.iter().enumerate() {
            prop_assume!(src != dst);
            let spec = ConnSpec::tcp(SimTime::from_secs(*t), *src, *sport, *dst, 80 + i as u16)
                .outcome(*outcome);
            emit_connection(&mut packets, &spec);
        }
        let (mut pk, mut by) = (0u64, 0u64);
        let mut agg = ArgusAggregator::default();
        for p in &packets {
            pk += p.pkts as u64;
            by += p.bytes;
            agg.emit(*p);
        }
        let flows = agg.finish(SimTime::from_secs(20_000));
        let fpk: u64 = flows.iter().map(|f| f.src_pkts + f.dst_pkts).sum();
        let fby: u64 = flows.iter().map(|f| f.src_bytes + f.dst_bytes).sum();
        prop_assert_eq!(pk, fpk);
        prop_assert_eq!(by, fby);
    }

    /// CSV persistence round-trips arbitrary flow records.
    #[test]
    fn csv_round_trip(records in prop::collection::vec(
        (
            ip_strategy(), ip_strategy(), 1u16..65000, 1u16..65000,
            0u64..86_400_000, 0u64..600_000,
            0u64..1_000, 0u64..10_000_000, 0u64..1_000, 0u64..10_000_000,
            prop::collection::vec(any::<u8>(), 0..64),
            0usize..6,
        ),
        0..25,
    )) {
        use pw_flow::FlowState;
        let states = [
            FlowState::Established,
            FlowState::SynNoAnswer,
            FlowState::Rejected,
            FlowState::ResetAfterData,
            FlowState::UdpReplied,
            FlowState::UdpSilent,
        ];
        let flows: Vec<FlowRecord> = records
            .into_iter()
            .map(|(src, dst, sport, dport, start, dur, sp, sb, dp, db, payload, st)| FlowRecord {
                start: SimTime::from_millis(start),
                end: SimTime::from_millis(start + dur),
                src,
                sport,
                dst,
                dport,
                proto: if st >= 4 { Proto::Udp } else { Proto::Tcp },
                src_pkts: sp,
                src_bytes: sb,
                dst_pkts: dp,
                dst_bytes: db,
                state: states[st],
                payload: Payload::capture(&payload),
            })
            .collect();
        let mut buf = Vec::new();
        pw_flow::csvio::write_flows(&mut buf, &flows).unwrap();
        // Byte for byte what the `format!`-based reference writes.
        let mut want = format!("{}\n", pw_flow::csvio::HEADER);
        for f in &flows {
            let mut row = String::new();
            pw_flow::csvio::push_flow(&mut row, f);
            prop_assert_eq!(&row, &oracle::format_flow(f));
            want.push_str(&row);
            want.push('\n');
        }
        prop_assert_eq!(buf.as_slice(), want.as_bytes());
        let (back, bad) = pw_flow::csvio::read_flows_lossy(buf.as_slice()).unwrap();
        prop_assert!(bad.is_empty());
        prop_assert_eq!(back, flows);
    }

    /// Payload capture truncates at 64 bytes and round-trips content.
    #[test]
    fn payload_capture_prefix(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let p = Payload::capture(&data);
        let expect = &data[..data.len().min(64)];
        prop_assert_eq!(p.as_bytes(), expect);
    }

    /// TCP flag algebra: union contains both operands.
    #[test]
    fn flag_union_contains_operands(a in 0u8..5, b in 0u8..5) {
        let flags = [TcpFlags::SYN, TcpFlags::ACK, TcpFlags::FIN, TcpFlags::RST, TcpFlags::PSH];
        let u = flags[a as usize] | flags[b as usize];
        prop_assert!(u.contains(flags[a as usize]));
        prop_assert!(u.contains(flags[b as usize]));
    }
}

#[test]
fn sink_trait_object_works() {
    let spec = ConnSpec::udp(
        SimTime::ZERO,
        Ipv4Addr::new(1, 1, 1, 1),
        9,
        Ipv4Addr::new(2, 2, 2, 2),
        53,
    );
    let mut v: Vec<Packet> = Vec::new();
    let sink: &mut dyn PacketSink = &mut v;
    emit_connection(sink, &spec);
    assert!(!v.is_empty());
}
