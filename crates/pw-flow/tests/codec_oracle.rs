//! Differential tests: the byte-level flow-row codec and slicing-by-8
//! CRC32 against the reference implementations in `oracle/`.

mod oracle;

use std::io::{BufRead, BufReader};
use std::net::Ipv4Addr;

use proptest::prelude::*;
use pw_flow::csvio::{read_flows_lossy, write_flows, ParseFlowError};
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

/// Reads `file` through a reader `open` makes. The read must not panic;
/// wherever the reference does not panic either, it must agree with it
/// record for record and error for error. Returns whether the reference
/// ran.
fn check_against_reference<R: BufRead>(file: &[u8], open: impl Fn() -> R) -> bool {
    let got = read_flows_lossy(open());
    // The reference panics on a hex pair that splits a multi-byte
    // character; there the reader only has to survive.
    let Ok(want) = std::panic::catch_unwind(|| oracle::read_flows_lossy(file)) else {
        return false;
    };
    match (got, want) {
        (Ok(got), Ok(want)) => assert_eq!(got, want),
        (Err(ParseFlowError::BadHeader { found }), Err(want)) => assert_eq!(found, want),
        (got, want) => panic!("the reader disagrees with the reference: {got:?} / {want:?}"),
    }
    true
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
            check_against_reference(&file, || BufReader::with_capacity(capacity, &file[..]));
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

/// SplitMix64: the seeded stream the tiled cases draw flows and damage
/// from, below `n`.
fn draw(state: &mut u64, n: u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % n
}

/// A flow over the ranges [`campus_flow`] draws from.
fn seeded_flow(state: &mut u64) -> FlowRecord {
    let mut byte = |lo: u64, hi: u64| (lo + draw(state, hi - lo)) as u8;
    let (src, dst) = (
        Ipv4Addr::new(10, byte(1, 3), byte(0, 255), byte(1, 255)),
        Ipv4Addr::new(byte(1, 224), byte(0, 255), byte(0, 255), byte(1, 255)),
    );
    let st = draw(state, 6) as usize;
    let start = 32_400_000 + draw(state, 21_600_000);
    let payload: Vec<u8> = match draw(state, 4) {
        0 => Vec::new(),
        1 => b"GNUTELLA CONNECT/0.6\r\n".to_vec(),
        2 => b"\xe3\x20rest-of-frame".to_vec(),
        _ => (0..draw(state, 80))
            .map(|_| draw(state, 256) as u8)
            .collect(),
    };
    FlowRecord {
        start: SimTime::from_millis(start),
        end: SimTime::from_millis(start + draw(state, 600_000)),
        src,
        sport: 1024 + draw(state, 64_511) as u16,
        dst,
        dport: [53, 80, 6881, 4662, 1 + draw(state, 65_534) as u16][draw(state, 5) as usize],
        proto: if st >= 4 { Proto::Udp } else { Proto::Tcp },
        src_pkts: draw(state, 40),
        src_bytes: draw(state, 60_000),
        dst_pkts: draw(state, 40),
        dst_bytes: draw(state, 2_000_000),
        state: STATES[st],
        payload: Payload::capture(&payload),
    }
}

/// One seeded damage that keeps a file ASCII, so the reference never
/// panics on it.
fn seeded_edit(state: &mut u64) -> Edit {
    let at = draw(state, u64::MAX) as usize;
    match draw(state, 5) {
        0 => Edit::FlipBit {
            at,
            bit: draw(state, 7) as u8,
        },
        1 => Edit::Truncate { at },
        2 => Edit::Splice {
            from: at,
            len: 1 + draw(state, 39) as usize,
            to: draw(state, u64::MAX) as usize,
        },
        3 => Edit::Insert {
            at,
            bytes: vec![b"\r,+\nx9."[draw(state, 7) as usize]],
        },
        _ => Edit::Overwrite {
            at,
            byte: draw(state, 128) as u8,
        },
    }
}

/// Campus-shaped rows tiled past the 2 MiB a block needs to be cut across
/// cores, behind one header: clean copies to past 1.25 MiB, so that on two
/// cores or more the first damage falls in the second piece, then damaged
/// ones. Read as one slice and through a 300-byte buffer, the split and
/// the line-at-a-time path must both read it as the reference does.
#[test]
fn damaged_files_past_the_split_size_read_as_the_reference_reads_them() {
    for seed in 0..4 {
        let mut state = seed;
        let flows: Vec<FlowRecord> = (0..12).map(|_| seeded_flow(&mut state)).collect();
        let mut file = Vec::new();
        write_flows(&mut file, &flows).unwrap();
        let rows = file.split_off(file.iter().position(|&b| b == b'\n').unwrap() + 1);
        let mut damaged = rows.clone();
        for _ in 0..=draw(&mut state, 5) {
            seeded_edit(&mut state).apply(&mut damaged);
        }
        while file.len() <= (5 << 18) + draw(&mut state, 1 << 18) as usize {
            file.extend_from_slice(&rows);
        }
        while file.len() <= 2 << 20 {
            file.extend_from_slice(&damaged);
        }
        assert!(
            check_against_reference(&file, || &file[..])
                && check_against_reference(&file, || BufReader::with_capacity(300, &file[..])),
            "seed {seed}: the reference panicked"
        );
    }
}

#[test]
fn crc32_check_value() {
    assert_eq!(oracle::crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(frame::crc32(b"123456789"), 0xCBF4_3926);
}
