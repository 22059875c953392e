//! Differential tests: the byte-level flow-row codec and slicing-by-8
//! CRC32 against the reference implementations in `oracle/`.

mod oracle;

use std::io::BufReader;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use pw_flow::csvio::{read_flows, read_flows_lossy, write_flows, ParseFlowError};
use pw_flow::{frame, FlowRecord, FlowState, Payload, Proto};
use pw_netsim::SimTime;

const STATES: [FlowState; 6] = [
    FlowState::Established,
    FlowState::SynNoAnswer,
    FlowState::Rejected,
    FlowState::ResetAfterData,
    FlowState::UdpReplied,
    FlowState::UdpSilent,
];

/// A flow as a campus day has them: an internal initiator, a monitoring
/// window starting at 09:00, a well-known or random responder port, and an
/// empty, protocol-like or arbitrary payload prefix.
fn campus_flow() -> impl Strategy<Value = FlowRecord> {
    (
        (1u8..3, 0u8..255, 1u8..255),
        (1u8..224, 0u8..255, 0u8..255, 1u8..255),
        1024u16..65535,
        prop_oneof![Just(53u16), Just(80), Just(6881), Just(4662), 1u16..65535],
        32_400_000u64..54_000_000,
        0u64..600_000,
        (0u64..40, 0u64..60_000, 0u64..40, 0u64..2_000_000),
        0usize..6,
        prop_oneof![
            Just(Vec::new()),
            Just(b"GNUTELLA CONNECT/0.6\r\n".to_vec()),
            Just(b"\xe3\x20rest-of-frame".to_vec()),
            prop::collection::vec(any::<u8>(), 0..80),
        ],
    )
        .prop_map(
            |((b, c, d), (e, f, g, h), sport, dport, start, dur, counts, st, payload)| {
                let (src_pkts, src_bytes, dst_pkts, dst_bytes) = counts;
                FlowRecord {
                    start: SimTime::from_millis(start),
                    end: SimTime::from_millis(start + dur),
                    src: Ipv4Addr::new(10, b, c, d),
                    sport,
                    dst: Ipv4Addr::new(e, f, g, h),
                    dport,
                    proto: if st >= 4 { Proto::Udp } else { Proto::Tcp },
                    src_pkts,
                    src_bytes,
                    dst_pkts,
                    dst_bytes,
                    state: STATES[st],
                    payload: Payload::capture(&payload),
                }
            },
        )
}

/// One seeded damage to a CSV file. Positions are taken modulo the
/// file's length when applied.
#[derive(Debug, Clone)]
enum Edit {
    FlipBit { at: usize, bit: u8 },
    Truncate { at: usize },
    Splice { from: usize, len: usize, to: usize },
    Insert { at: usize, bytes: Vec<u8> },
    Overwrite { at: usize, byte: u8 },
}

fn edit() -> impl Strategy<Value = Edit> {
    let inserted = prop_oneof![
        Just(b"\r".to_vec()),
        Just(b",".to_vec()),
        Just(b"+".to_vec()),
        Just(b"\n".to_vec()),
        Just("é".as_bytes().to_vec()),
        prop::collection::vec(any::<u8>(), 1..4),
    ];
    prop_oneof![
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Edit::FlipBit { at, bit }),
        any::<usize>().prop_map(|at| Edit::Truncate { at }),
        (any::<usize>(), 1usize..40, any::<usize>()).prop_map(|(from, len, to)| Edit::Splice {
            from,
            len,
            to
        }),
        (any::<usize>(), inserted).prop_map(|(at, bytes)| Edit::Insert { at, bytes }),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Edit::Overwrite { at, byte }),
    ]
}

impl Edit {
    fn apply(&self, file: &mut Vec<u8>) {
        let n = file.len();
        match self {
            Edit::FlipBit { at, bit } if n > 0 => file[at % n] ^= 1 << bit,
            Edit::Truncate { at } => file.truncate(at % (n + 1)),
            Edit::Splice { from, len, to } if n > 0 => {
                let from = from % n;
                let piece = file[from..(from + len).min(n)].to_vec();
                let to = to % (n + 1);
                file.splice(to..to, piece);
            }
            Edit::Insert { at, bytes } => {
                let at = at % (n + 1);
                file.splice(at..at, bytes.iter().copied());
            }
            Edit::Overwrite { at, byte } if n > 0 => file[at % n] = *byte,
            _ => {}
        }
    }
}

/// Reads `file` through a `capacity`-byte buffer with both readers. They
/// must not panic; wherever the reference does not panic either, they must
/// agree with it record for record and error for error.
fn check_against_reference(file: &[u8], capacity: usize) {
    let lossy = read_flows_lossy(BufReader::with_capacity(capacity, file));
    let strict = read_flows(BufReader::with_capacity(capacity, file));
    // The reference panics on a hex pair that splits a multi-byte
    // character; there the readers only have to survive.
    let Ok(want) = std::panic::catch_unwind(|| oracle::read_flows_lossy(file)) else {
        return;
    };
    match (lossy, strict, want) {
        (Ok(got), strict, Ok((ok, bad))) => {
            let want_strict = match bad.first() {
                None => Ok(ok.clone()),
                Some(e) => Err(e.clone()),
            };
            let got_strict = strict.map_err(|e| match e {
                ParseFlowError::Row(e) => e,
                other => panic!("strict read failed outside a row: {other}"),
            });
            assert_eq!(got, (ok, bad));
            assert_eq!(got_strict, want_strict);
        }
        (
            Err(ParseFlowError::BadHeader { found }),
            Err(ParseFlowError::BadHeader {
                found: strict_found,
            }),
            Err(want),
        ) => {
            assert_eq!(found, want);
            assert_eq!(strict_found, want);
        }
        (lossy, strict, want) => {
            panic!("readers disagree with the reference: {lossy:?} / {strict:?} / {want:?}")
        }
    }
}

proptest! {
    /// Sixteen sets of seeded damage to each campus-shaped file, read
    /// through a buffer of 1–300 bytes so that lines straddle refills.
    #[test]
    fn damaged_files_read_as_the_reference_reads_them(
        flows in prop::collection::vec(campus_flow(), 1..12),
        damage in prop::collection::vec(prop::collection::vec(edit(), 1..6), 16..17),
        capacity in 1usize..=300,
    ) {
        let mut clean = Vec::new();
        write_flows(&mut clean, &flows).unwrap();
        for edits in &damage {
            let mut file = clean.clone();
            for e in edits {
                e.apply(&mut file);
            }
            check_against_reference(&file, capacity);
        }
    }

    /// Slicing-by-8 CRC32 agrees with the bitwise reference on buffers of
    /// 0–4,100 bytes, at every length remainder mod 8.
    #[test]
    fn crc32_matches_the_bitwise_reference(data in prop::collection::vec(any::<u8>(), 0..4101)) {
        for cut in 0..8.min(data.len() + 1) {
            let prefix = &data[..data.len() - cut];
            prop_assert_eq!(frame::crc32(prefix), oracle::crc32(prefix));
        }
    }
}

#[test]
fn crc32_check_value() {
    assert_eq!(oracle::crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(frame::crc32(b"123456789"), 0xCBF4_3926);
}
