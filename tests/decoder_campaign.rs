//! Mutation campaign over the decoders that read untrusted bytes in one
//! version each: engine checkpoints, server checkpoints and PWFS, the
//! binary exporter protocol. Seeded damage — bit flips, truncations,
//! splices, digit runs inserted into counts and arbitrary bytes — must
//! decode to `Ok` or a typed `CheckpointError`/`FrameError`: never a
//! panic, and never an allocation sized by a forged count. PWFS batch
//! frames also get targeted damage to their flow count, their payload
//! lengths and their length prefix, re-sealed so it reaches the decoder.
//!
//! Checkpoint bodies are re-sealed with `append_checksum_trailer` after
//! the damage, as anyone can do, so the damage reaches the line parser
//! instead of stopping at the checksum. Every engine checkpoint that still
//! parses is restored and finished, so a parse that lets through a state
//! the engine cannot hold shows up as a panic.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use peerwatch::detect::checkpoint::{append_checksum_trailer, EngineCheckpoint, MAGIC};
use peerwatch::detect::stream::{DetectionEngine, EngineConfig};
use peerwatch::flow::frame::{
    self, crc32, Frame, FrameError, Hello, HelloAck, MAX_BATCH, MAX_FRAME_LEN, RECORD_FIXED_LEN,
};
use peerwatch::flow::{FlowRecord, FlowState, Payload, Proto};
use peerwatch::netsim::{SimDuration, SimTime};
use peerwatch::server::checkpoint::SERVER_MAGIC;
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

/// A snapshot holding a reorder buffer, a log of flows in overlapping
/// open windows, and the counts of a late flow awaiting the next report.
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
    assert!(engine.push(flow(1)).is_err());
    assert!(engine.open_windows() > 1);
    let snap = engine.checkpoint();
    assert!(!snap.buffer().is_empty() && !snap.log().is_empty() && snap.window_late == 1);
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

/// An engine checkpoint body cut into its sections, so rows can move
/// between them with every count kept right.
struct Sections {
    /// The magic and the `engine` to `deltas` lines.
    head: Vec<String>,
    buffer: Vec<String>,
    log: Vec<String>,
}

impl Sections {
    fn of(body: &str) -> Self {
        let mut lines = body.lines().map(str::to_owned);
        let head: Vec<String> = lines.by_ref().take(6).collect();
        let mut rows = |tag: &str| -> Vec<String> {
            let header = lines.next().unwrap();
            let count: usize = header.strip_prefix(tag).unwrap().parse().unwrap();
            lines.by_ref().take(count).collect()
        };
        let (buffer, log) = (rows("buffer "), rows("log "));
        assert_eq!(lines.next().as_deref(), Some("end"));
        Self { head, buffer, log }
    }

    fn body(&self) -> String {
        let mut out: Vec<String> = self.head.clone();
        out.push(format!("buffer {}", self.buffer.len()));
        out.extend(self.buffer.iter().cloned());
        out.push(format!("log {}", self.log.len()));
        out.extend(self.log.iter().cloned());
        out.push("end".to_owned());
        out.iter().map(|l| format!("{l}\n")).collect()
    }

    /// Sets the `state` line's `applied_to_ms`.
    fn applied_to(&mut self, ms: u64) {
        let state = &mut self.head[3];
        let (before, rest) = state.split_once("applied_to_ms=").unwrap();
        let after = rest.split_once(' ').map_or("", |(_, after)| after);
        *state = format!("{before}applied_to_ms={ms} {after}");
    }
}

/// Engine checkpoint bodies in layouts no engine writes: the first
/// buffered flow moved into the log, the last logged flow moved into the
/// buffer, and `applied_to` moved back past the last logged flow or on
/// past the first buffered one.
fn moved_layouts() -> Vec<String> {
    let snap = snapshot();
    let mut layouts = Vec::new();

    let mut s = Sections::of(&engine_body());
    let first = s.buffer.remove(0);
    s.log.push(first);
    layouts.push(s.body());

    let mut s = Sections::of(&engine_body());
    let last = s.log.pop().unwrap();
    s.buffer.insert(0, last);
    layouts.push(s.body());

    for applied_ms in [
        snap.log().last().unwrap().start.as_millis(),
        snap.buffer()[0].start.as_millis() + 1,
    ] {
        let mut s = Sections::of(&engine_body());
        s.applied_to(applied_ms);
        layouts.push(s.body());
    }

    assert_eq!(Sections::of(&engine_body()).body(), engine_body());
    layouts
}

/// Offsets where the decimal count of a `buffer N`, `log N` or
/// `exporters N` line begins.
fn text_count_slots(text: &[u8]) -> Vec<usize> {
    let mut slots = Vec::new();
    let mut start = 0;
    for line in text.split(|&b| b == b'\n') {
        for tag in [&b"buffer "[..], b"log ", b"exporters "] {
            if line.starts_with(tag) {
                slots.push(start + tag.len());
            }
        }
        start += line.len() + 1;
    }
    slots
}

/// A hello followed by a session's frames — three batches, the last of
/// one flow, and a bye — and the offset of every frame's length prefix.
fn pwfs_stream() -> (Vec<u8>, Vec<usize>) {
    let mut wire = Vec::new();
    frame::write_hello(&mut wire, Hello::new(42)).unwrap();
    let mut slots = Vec::new();
    let batch = |seqs: std::ops::Range<u64>| Frame::Flows {
        first_seq: seqs.start,
        flows: seqs.map(flow).collect(),
    };
    let frames = [batch(0..3), batch(3..5), batch(5..6), Frame::Bye];
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
/// accepts again, and must restore and finish, or be refused with a typed
/// error.
fn check_engine(text: &str) {
    if let Ok(snap) = EngineCheckpoint::parse(text) {
        let again = snap.serialize();
        let back = EngineCheckpoint::parse(&again).expect("re-serialized checkpoint parses");
        assert_eq!(back.serialize(), again);
        restore_and_finish(&snap);
    }
}

fn check_server(text: &str) {
    if let Ok(ckpt) = ServerCheckpoint::parse(text) {
        let again = ckpt.serialize();
        let back = ServerCheckpoint::parse(&again).expect("re-serialized checkpoint parses");
        assert_eq!(back.serialize(), again);
        restore_and_finish(&ckpt.engine);
    }
}

/// Revives `snap` and closes every window it holds: the engine's flow
/// accounting must come out even whatever the parser let through.
fn restore_and_finish(snap: &EngineCheckpoint) {
    let Ok(mut engine) = DetectionEngine::restore(snap, internal as fn(Ipv4Addr) -> bool) else {
        return;
    };
    // Buffered flows may open more windows on their way in.
    let windows = engine.open_windows();
    assert!(engine.finish().len() >= windows);
    assert_eq!(
        (
            engine.held_flows(),
            engine.buffered(),
            engine.open_windows()
        ),
        (0, 0, 0)
    );
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

/// Frame bodies straight into the body decoder, past the CRC that would
/// refuse nearly all of them on the wire. Whatever decodes must encode
/// back to a body that decodes to the same frame.
fn check_frame_bodies(wire: &[u8], slots: &[usize]) {
    let check = |body: &[u8]| {
        if let Ok(frame) = Frame::decode(body) {
            let mut again = Vec::new();
            frame.encode(&mut again);
            assert_eq!(Frame::decode(&again[4..]).unwrap(), frame);
        }
    };
    for &at in slots {
        let Some(len) = wire.get(at..at + 4) else {
            continue;
        };
        let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
        check(&wire[(at + 4).min(wire.len())..(at + 4 + len).min(wire.len())]);
    }
    check(wire);
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
        for header in [String::new(), format!("{MAGIC}\n"), format!("{SERVER_MAGIC}\n")] {
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

/// The first batch frame of [`pwfs_stream`]: its offset, and its body
/// after the length prefix.
fn first_batch() -> (Vec<u8>, usize, Vec<u8>) {
    let (wire, slots) = pwfs_stream();
    let at = slots[0];
    let len = u32::from_le_bytes(wire[at..at + 4].try_into().unwrap()) as usize;
    let body = wire[at + 4..at + 4 + len].to_vec();
    (wire, at, body)
}

/// The stream with the first batch's body replaced by `body`, under a
/// matching length prefix and a fresh CRC, read back to that batch.
fn read_resealed(body: &[u8]) -> Result<Option<Frame>, FrameError> {
    let (wire, at, clean) = first_batch();
    let mut out = wire[..at].to_vec();
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(&wire[at + 4 + clean.len() + 4..]);
    let mut r = out.as_slice();
    frame::read_hello(&mut r, &[]).unwrap();
    frame::read_frame(&mut r)
}

#[test]
fn damaged_batches_are_refused_with_typed_errors() {
    let (wire, at, body) = first_batch();
    assert!(matches!(
        read_resealed(&body),
        Ok(Some(Frame::Flows { first_seq: 0, ref flows })) if flows.len() == 3
    ));
    // Tag, then `first_seq` u64, then the count u16; 5-byte payloads.
    let count_at = 1 + 8;
    let record = |k: usize| 1 + 8 + 2 + k * (RECORD_FIXED_LEN + 5);
    let rest = body.len() - 1;

    // Zero, above the cap, the largest a u16 holds (refused before any
    // allocation), and one off either way from the three flows the body
    // holds.
    for count in [0u16, MAX_BATCH as u16 + 1, u16::MAX, 2, 4] {
        let mut bad = body.clone();
        bad[count_at..count_at + 2].copy_from_slice(&count.to_le_bytes());
        let got = read_resealed(&bad);
        assert!(
            matches!(got, Err(FrameError::BadBatch { count: c, body: b }) if c == count && b == rest),
            "count {count}: {got:?}"
        );
    }

    // A payload length that runs past the end of the body, and one past
    // the 64-byte payload cap.
    let mut bad = body.clone();
    bad[record(2) + 62] = 64;
    assert!(matches!(
        read_resealed(&bad),
        Err(FrameError::BadBatch { count: 3, .. })
    ));
    bad[record(2) + 62] = 65;
    assert!(matches!(
        read_resealed(&bad),
        Err(FrameError::BadPayloadLen(65))
    ));

    // A body cut inside its header.
    assert!(matches!(
        read_resealed(&body[..7]),
        Err(FrameError::BadLength { tag: 0x01, .. })
    ));

    // A length prefix above the largest legal batch is refused before
    // the body is read or allocated.
    for len in [MAX_FRAME_LEN + 1, u32::MAX] {
        let mut bad = wire.clone();
        bad[at..at + 4].copy_from_slice(&len.to_le_bytes());
        let mut r = bad.as_slice();
        frame::read_hello(&mut r, &[]).unwrap();
        assert!(matches!(
            frame::read_frame(&mut r),
            Err(FrameError::Oversized(l)) if l == len
        ));
    }
}

#[test]
fn moved_rows_and_bounds_decode_or_refuse() {
    for mut text in moved_layouts() {
        append_checksum_trailer(&mut text);
        check_engine(&text);
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
    assert_eq!(text_count_slots(engine.as_bytes()).len(), 2);
    assert_eq!(text_count_slots(server.as_bytes()).len(), 3);

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
