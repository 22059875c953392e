//! Mutation campaign over the decoders that read untrusted bytes in one
//! version each: engine checkpoints, server checkpoints and PWFS, the
//! binary exporter protocol. Seeded damage — bit flips, truncations,
//! splices, digit runs inserted into counts and arbitrary bytes — must
//! decode to `Ok` or a typed `CheckpointError`/`FrameError`: never a
//! panic, and never an allocation sized by a forged count.
//!
//! Checkpoint bodies are re-sealed with `append_checksum_trailer` after
//! the damage, as anyone can do, so the damage reaches the line parser
//! instead of stopping at the checksum.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use peerwatch::detect::checkpoint::{append_checksum_trailer, EngineCheckpoint};
use peerwatch::detect::stream::{DetectionEngine, EngineConfig};
use peerwatch::flow::frame::{self, decode_flow, Frame, Hello, HelloAck, FLOW_WIRE_LEN};
use peerwatch::flow::{FlowRecord, FlowState, Payload, Proto};
use peerwatch::netsim::{SimDuration, SimTime};
use peerwatch::server::ServerCheckpoint;
use proptest::prelude::*;

fn internal(ip: Ipv4Addr) -> bool {
    ip.octets()[0] == 10
}

fn flow(k: u64) -> FlowRecord {
    FlowRecord {
        start: SimTime::from_secs(k * 40),
        end: SimTime::from_secs(k * 40 + 1),
        src: Ipv4Addr::new(10, 1, 0, (k % 3) as u8 + 1),
        sport: 40_000 + k as u16,
        dst: Ipv4Addr::new(60, 0, (k % 5) as u8, 1),
        dport: 80,
        proto: Proto::Tcp,
        src_pkts: 3,
        src_bytes: 100 + k,
        dst_pkts: 2,
        dst_bytes: 4_000,
        state: if k.is_multiple_of(4) {
            FlowState::SynNoAnswer
        } else {
            FlowState::Established
        },
        payload: Payload::capture(b"GET /"),
    }
}

/// A snapshot holding both a reorder buffer and open windows.
fn snapshot() -> EngineCheckpoint {
    let cfg = EngineConfig {
        window: SimDuration::from_mins(10),
        slide: SimDuration::from_mins(5),
        lateness: SimDuration::from_mins(3),
        ..Default::default()
    };
    let mut engine = DetectionEngine::new(cfg, internal as fn(Ipv4Addr) -> bool).unwrap();
    for k in 0..24 {
        let _ = engine.push(flow(k));
    }
    let snap = engine.checkpoint();
    assert!(!snap.buffer.is_empty() && !snap.open.is_empty());
    snap
}

/// A serialized checkpoint without its trailer line.
fn body_of(text: &str) -> String {
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let end = trimmed.rfind('\n').map_or(0, |i| i + 1);
    text[..end].to_owned()
}

fn engine_body() -> String {
    body_of(&snapshot().serialize())
}

fn server_body() -> String {
    let exporters = BTreeMap::from([(1u32, 4_023u64), (7, 911)]);
    let ckpt = ServerCheckpoint {
        exporters,
        engine: snapshot(),
    };
    body_of(&ckpt.serialize())
}

/// Offsets where the decimal count of a `buffer N`, `window I N` or
/// `exporters N` line begins.
fn text_count_slots(text: &[u8]) -> Vec<usize> {
    let mut slots = Vec::new();
    let mut start = 0;
    for line in text.split(|&b| b == b'\n') {
        for tag in [&b"buffer "[..], b"exporters "] {
            if line.starts_with(tag) {
                slots.push(start + tag.len());
            }
        }
        if line.starts_with(b"window ") {
            if let Some(sp) = line[7..].iter().position(|&b| b == b' ') {
                slots.push(start + 7 + sp + 1);
            }
        }
        start += line.len() + 1;
    }
    slots
}

/// A hello followed by a session's frames, and the offset of every
/// frame's length prefix.
fn pwfs_stream() -> (Vec<u8>, Vec<usize>) {
    let mut wire = Vec::new();
    frame::write_hello(&mut wire, Hello::new(42)).unwrap();
    let mut slots = Vec::new();
    let frames = (0..4)
        .map(|k| Frame::Flow {
            seq: k,
            flow: flow(k),
        })
        .chain([Frame::Tick { now_ms: 9_000 }, Frame::Bye]);
    for f in frames {
        slots.push(wire.len());
        frame::write_frame(&mut wire, &f).unwrap();
    }
    (wire, slots)
}

fn pwfs_ack() -> Vec<u8> {
    let mut wire = Vec::new();
    frame::write_hello_ack(&mut wire, HelloAck::new(9_000)).unwrap();
    wire
}

/// One seeded damage. Positions are taken modulo the input's length, and
/// count slots modulo the number of counts, when applied.
#[derive(Debug, Clone)]
enum Edit {
    FlipBit { at: usize, bit: u8 },
    Truncate { at: usize },
    Splice { from: usize, len: usize, to: usize },
    DigitRun { slot: usize, digits: Vec<u8> },
    Insert { at: usize, bytes: Vec<u8> },
    Overwrite { at: usize, byte: u8 },
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Edit::FlipBit { at, bit }),
        any::<usize>().prop_map(|at| Edit::Truncate { at }),
        (any::<usize>(), 1usize..200, any::<usize>()).prop_map(|(from, len, to)| Edit::Splice {
            from,
            len,
            to
        }),
        (any::<usize>(), prop::collection::vec(0u8..10, 1..24)).prop_map(|(slot, d)| {
            Edit::DigitRun {
                slot,
                digits: d.into_iter().map(|d| b'0' + d).collect(),
            }
        }),
        (any::<usize>(), prop::collection::vec(any::<u8>(), 1..8))
            .prop_map(|(at, bytes)| Edit::Insert { at, bytes }),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Edit::Overwrite { at, byte }),
    ]
}

impl Edit {
    fn apply(&self, input: &mut Vec<u8>, counts: &[usize]) {
        let n = input.len();
        match self {
            Edit::FlipBit { at, bit } if n > 0 => input[at % n] ^= 1 << bit,
            Edit::Truncate { at } => input.truncate(at % (n + 1)),
            Edit::Splice { from, len, to } if n > 0 => {
                let from = from % n;
                let piece = input[from..(from + len).min(n)].to_vec();
                let to = to % (n + 1);
                input.splice(to..to, piece);
            }
            Edit::DigitRun { slot, digits } if !counts.is_empty() => {
                let at = counts[slot % counts.len()].min(n);
                input.splice(at..at, digits.iter().copied());
            }
            Edit::Insert { at, bytes } => {
                let at = at % (n + 1);
                input.splice(at..at, bytes.iter().copied());
            }
            Edit::Overwrite { at, byte } if n > 0 => input[at % n] = *byte,
            _ => {}
        }
    }
}

fn damaged(clean: &[u8], counts: &[usize], edits: &[Edit]) -> Vec<u8> {
    let mut input = clean.to_vec();
    for e in edits {
        e.apply(&mut input, counts);
    }
    input
}

/// `body` as text both as it is and re-sealed with a fresh trailer.
fn sealed_and_not(body: &[u8]) -> [String; 2] {
    let text = String::from_utf8_lossy(body).into_owned();
    let mut sealed = text.clone();
    append_checksum_trailer(&mut sealed);
    [text, sealed]
}

/// Whatever the engine parser accepts must serialize back to text it
/// accepts again, and must restore or be refused with a typed error.
fn check_engine(text: &str) {
    if let Ok(snap) = EngineCheckpoint::parse(text) {
        let again = snap.serialize();
        let back = EngineCheckpoint::parse(&again).expect("re-serialized checkpoint parses");
        assert_eq!(back.serialize(), again);
        let _ = DetectionEngine::restore(&snap, internal as fn(Ipv4Addr) -> bool);
    }
}

fn check_server(text: &str) {
    if let Ok(ckpt) = ServerCheckpoint::parse(text) {
        let again = ckpt.serialize();
        let back = ServerCheckpoint::parse(&again).expect("re-serialized checkpoint parses");
        assert_eq!(back.serialize(), again);
    }
}

/// Reads a hello and then frames until a clean end or the first error,
/// through both the plain and the sniffed-magic handshake paths.
fn check_pwfs_stream(wire: &[u8]) {
    let sniffed = wire.get(..4).map(|m| (m, &wire[4..]));
    let plain = Some((&[][..], wire));
    for (first, mut rest) in [plain, sniffed].into_iter().flatten() {
        if frame::read_hello(&mut rest, first).is_err() {
            continue;
        }
        // Every successful read consumes at least a length prefix.
        for _ in 0..=wire.len() / 4 {
            match frame::read_frame(&mut rest) {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }
}

/// Frame bodies and flow records straight into the body decoders, past
/// the CRC that would refuse nearly all of them on the wire.
fn check_frame_bodies(wire: &[u8], slots: &[usize]) {
    for &at in slots {
        let Some(len) = wire.get(at..at + 4) else {
            continue;
        };
        let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
        let body = &wire[(at + 4).min(wire.len())..(at + 4 + len).min(wire.len())];
        if let Ok(Frame::Flow { flow, .. }) = Frame::decode(body) {
            let mut again = Vec::new();
            Frame::Flow { seq: 0, flow }.encode(&mut again);
            assert!(Frame::decode(&again[4..]).is_ok());
        }
        let _ = decode_flow(body.get(9..).unwrap_or(&[]));
    }
    let _ = decode_flow(&wire[..wire.len().min(FLOW_WIRE_LEN)]);
}

proptest! {
    /// Sixteen sets of seeded damage to an engine checkpoint body.
    #[test]
    fn damaged_engine_checkpoints_decode_or_refuse(
        damage in prop::collection::vec(prop::collection::vec(edit(), 1..6), 16..17),
    ) {
        let clean = engine_body().into_bytes();
        let counts = text_count_slots(&clean);
        for edits in &damage {
            for text in sealed_and_not(&damaged(&clean, &counts, edits)) {
                check_engine(&text);
            }
        }
    }

    /// Sixteen sets of seeded damage to a server checkpoint body, whose
    /// engine section keeps its own (now stale or re-sealed) trailer.
    #[test]
    fn damaged_server_checkpoints_decode_or_refuse(
        damage in prop::collection::vec(prop::collection::vec(edit(), 1..6), 16..17),
    ) {
        let clean = server_body().into_bytes();
        let counts = text_count_slots(&clean);
        for edits in &damage {
            for text in sealed_and_not(&damaged(&clean, &counts, edits)) {
                check_server(&text);
            }
        }
    }

    /// Sixteen sets of seeded damage to a hello-and-frames stream and to a
    /// hello-ack; "counts" here are the frames' length prefixes.
    #[test]
    fn damaged_pwfs_streams_decode_or_refuse(
        damage in prop::collection::vec(prop::collection::vec(edit(), 1..6), 16..17),
    ) {
        let (stream, slots) = pwfs_stream();
        let ack = pwfs_ack();
        for edits in &damage {
            let wire = damaged(&stream, &slots, edits);
            check_pwfs_stream(&wire);
            check_frame_bodies(&wire, &slots);
            let _ = frame::read_hello_ack(&mut damaged(&ack, &[6], edits).as_slice());
        }
    }

    /// Arbitrary bytes, bare and behind each format's header.
    #[test]
    fn arbitrary_bytes_decode_or_refuse(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let tail = String::from_utf8_lossy(&bytes);
        for header in ["", "peerwatch-checkpoint v3\n", "peerwatch-server-checkpoint v2\n"] {
            for text in sealed_and_not(format!("{header}{tail}").as_bytes()) {
                check_engine(&text);
                check_server(&text);
            }
        }
        let mut wire = Vec::new();
        frame::write_hello(&mut wire, Hello::new(1)).unwrap();
        wire.extend_from_slice(&bytes);
        check_pwfs_stream(&bytes);
        check_pwfs_stream(&wire);
        check_frame_bodies(&bytes, &[0]);
        let _ = frame::read_hello_ack(&mut bytes.as_slice());
    }
}

#[test]
fn clean_inputs_decode() {
    let mut engine = engine_body();
    append_checksum_trailer(&mut engine);
    assert_eq!(EngineCheckpoint::parse(&engine).unwrap(), snapshot());
    let mut server = server_body();
    append_checksum_trailer(&mut server);
    assert!(ServerCheckpoint::parse(&server).is_ok());
    assert_eq!(
        text_count_slots(engine.as_bytes()).len(),
        1 + snapshot().open.len()
    );
    assert_eq!(
        text_count_slots(server.as_bytes()).len(),
        2 + snapshot().open.len()
    );

    let (wire, slots) = pwfs_stream();
    let mut r = wire.as_slice();
    assert_eq!(frame::read_hello(&mut r, &[]).unwrap(), Hello::new(42));
    for _ in &slots {
        assert!(frame::read_frame(&mut r).unwrap().is_some());
    }
    assert!(frame::read_frame(&mut r).unwrap().is_none());
    assert_eq!(
        frame::read_hello_ack(&mut pwfs_ack().as_slice()).unwrap(),
        HelloAck::new(9_000)
    );
}
