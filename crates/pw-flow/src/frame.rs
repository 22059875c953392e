//! Binary wire format for streaming flow records to a detection server.
//!
//! A border exporter ships its flows to the long-running `pw-server`
//! process over one TCP connection. The wire format is deliberately
//! boring — little-endian, fixed layouts, explicit version gate, no
//! serialization dependency — so an exporter can be implemented in a few
//! dozen lines of any language:
//!
//! ```text
//! exporter → server   [`Hello`]      "PWFS" + version u16 + exporter_id u32 [+ crc32 u32]
//! server → exporter   [`HelloAck`]   "PWFS" + version u16 + next_seq u64   [+ crc32 u32]
//! exporter → server   frame*         len u32 (body bytes) + body           [+ crc32 u32]
//! ```
//!
//! The bracketed CRC32 trailers exist only on version-2 sessions: the
//! exporter picks the version in its [`Hello`] and both sides append an
//! IEEE CRC32 ([`crc32`]) of the preceding message bytes (frame CRCs
//! cover the body only, not the length prefix). A failed check surfaces
//! as the typed [`FrameError::CrcMismatch`] instead of a silent decode of
//! garbage. Version-1 peers are still spoken to without trailers, so old
//! exporters interoperate with a hardened server and vice versa.
//!
//! Each frame body starts with a tag byte:
//!
//! | tag | frame | body after the tag |
//! |-----|-------|---------------------|
//! | `0x01` | [`Frame::Flow`] | `seq` u64 + 127-byte flow record |
//! | `0x02` | [`Frame::Tick`] | feed-clock `now_ms` u64 |
//! | `0x03` | [`Frame::Bye`]  | empty |
//!
//! `seq` is the exporter's own monotone counter, starting at 0. The
//! server acknowledges the next sequence it expects in [`HelloAck`], so a
//! reconnecting exporter (or one replaying after a server restart) knows
//! exactly where to resume — flows below `next_seq` are already applied
//! and must be skipped, which is what makes delivery exactly-once without
//! any application-level dedup.
//!
//! The flow record layout is fixed at [`FLOW_WIRE_LEN`] bytes: times as
//! millisecond u64s, addresses as 4 network-order octets, ports u16,
//! proto and state as single bytes, the four counters u64, and the
//! payload prefix as a length byte plus [`Payload::MAX`] raw bytes
//! (zero-padded). Everything multi-byte is little-endian.
//!
//! [`read_frame`]/[`write_frame`] adapt the codec to blocking
//! [`io::Read`]/[`io::Write`] streams; `decode`/`encode` work on byte
//! slices for tests and non-blocking transports.

use std::io::{self, Read, Write};
use std::net::Ipv4Addr;

use pw_netsim::SimTime;

use crate::packet::{Payload, Proto};
use crate::record::{FlowRecord, FlowState};

/// First bytes of every connection in either direction.
pub const MAGIC: [u8; 4] = *b"PWFS";

/// Current protocol version, gated in the handshake. Version 2 appends a
/// CRC32 integrity trailer to the handshake messages and every frame.
pub const VERSION: u16 = 2;

/// Legacy protocol version without CRC trailers; still accepted on both
/// sides of the handshake so old exporters keep working.
pub const VERSION_V1: u16 = 1;

/// Slicing-by-8 tables: `t[0]` is the classic byte-at-a-time table, and
/// `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
/// lookups advance the CRC by eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE 802.3 CRC32 (the zlib/PNG polynomial), implemented locally so the
/// wire format and the checkpoint trailer share one checksum with no
/// dependency. Standard check value: `crc32(b"123456789") == 0xCBF43926`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn version_ok(version: u16) -> Result<u16, FrameError> {
    if version == VERSION || version == VERSION_V1 {
        Ok(version)
    } else {
        Err(FrameError::UnsupportedVersion(version))
    }
}

/// Serialized size of one flow record inside a [`Frame::Flow`] body.
pub const FLOW_WIRE_LEN: usize = 8 + 8 + 4 + 2 + 4 + 2 + 1 + 1 + 8 + 8 + 8 + 8 + 1 + Payload::MAX;

/// Upper bound on a frame body; lengths beyond this are rejected before
/// any allocation, so a garbage length prefix cannot balloon memory.
pub const MAX_FRAME_LEN: u32 = 4096;

/// Frame body tags.
const TAG_FLOW: u8 = 0x01;
const TAG_TICK: u8 = 0x02;
const TAG_BYE: u8 = 0x03;

/// Why a handshake or frame failed to decode.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport error (includes unexpected EOF mid-frame).
    Io(io::Error),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// A version this implementation does not speak.
    UnsupportedVersion(u16),
    /// A frame body with an unknown tag byte.
    UnknownTag(u8),
    /// A length prefix above [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// A frame body whose length does not match its tag's layout.
    BadLength {
        /// The tag whose layout was violated.
        tag: u8,
        /// Bytes the layout requires.
        expected: usize,
        /// Bytes the body actually had.
        got: usize,
    },
    /// An unknown protocol byte in a flow record.
    BadProto(u8),
    /// An unknown flow-state byte in a flow record.
    BadState(u8),
    /// A payload length byte above [`Payload::MAX`].
    BadPayloadLen(u8),
    /// A version-2 message whose CRC32 trailer does not match its bytes:
    /// the frame was corrupted in transit and must not be applied.
    CrcMismatch {
        /// CRC computed over the received bytes.
        expected: u32,
        /// CRC carried by the trailer.
        got: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected \"PWFS\")"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            FrameError::Oversized(n) => write!(f, "frame length {n} exceeds {MAX_FRAME_LEN}"),
            FrameError::BadLength { tag, expected, got } => {
                write!(
                    f,
                    "tag {tag:#04x} body: expected {expected} bytes, got {got}"
                )
            }
            FrameError::BadProto(b) => write!(f, "unknown proto byte {b:#04x}"),
            FrameError::BadState(b) => write!(f, "unknown flow-state byte {b:#04x}"),
            FrameError::BadPayloadLen(n) => {
                write!(f, "payload length {n} exceeds {}", Payload::MAX)
            }
            FrameError::CrcMismatch { expected, got } => {
                write!(
                    f,
                    "crc mismatch: computed {expected:#010x}, trailer {got:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Exporter's opening message: identifies the connection's exporter so
/// the server can resume its sequence, and picks the protocol version
/// (and with it whether CRC trailers are in effect) for the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Stable identifier of the border exporter (survives reconnects).
    pub exporter_id: u32,
    /// Protocol version this session will speak ([`VERSION`] or
    /// [`VERSION_V1`]).
    pub version: u16,
}

impl Hello {
    /// A current-version hello for `exporter_id`.
    pub fn new(exporter_id: u32) -> Self {
        Hello {
            exporter_id,
            version: VERSION,
        }
    }
}

/// Server's handshake reply: the next flow sequence number it expects
/// from this exporter. Flows below it are already applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// First sequence number the server has not yet applied.
    pub next_seq: u64,
    /// Echo of the session version the server will speak.
    pub version: u16,
}

impl HelloAck {
    /// A current-version ack expecting `next_seq`.
    pub fn new(next_seq: u64) -> Self {
        HelloAck {
            next_seq,
            version: VERSION,
        }
    }
}

/// One length-prefixed message after the handshake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Frame {
    /// A flow record with the exporter's sequence number.
    Flow {
        /// Exporter-assigned monotone sequence number, from 0.
        seq: u64,
        /// The record itself.
        flow: FlowRecord,
    },
    /// Feed-clock heartbeat driving the server's stall detector.
    Tick {
        /// Exporter's feed clock, milliseconds.
        now_ms: u64,
    },
    /// Clean end of stream; the connection closes after this.
    Bye,
}

fn proto_byte(p: Proto) -> u8 {
    match p {
        Proto::Tcp => 0,
        Proto::Udp => 1,
    }
}

fn proto_from(b: u8) -> Result<Proto, FrameError> {
    match b {
        0 => Ok(Proto::Tcp),
        1 => Ok(Proto::Udp),
        other => Err(FrameError::BadProto(other)),
    }
}

fn state_byte(s: FlowState) -> u8 {
    match s {
        FlowState::Established => 0,
        FlowState::SynNoAnswer => 1,
        FlowState::Rejected => 2,
        FlowState::ResetAfterData => 3,
        FlowState::UdpReplied => 4,
        FlowState::UdpSilent => 5,
    }
}

fn state_from(b: u8) -> Result<FlowState, FrameError> {
    Ok(match b {
        0 => FlowState::Established,
        1 => FlowState::SynNoAnswer,
        2 => FlowState::Rejected,
        3 => FlowState::ResetAfterData,
        4 => FlowState::UdpReplied,
        5 => FlowState::UdpSilent,
        other => return Err(FrameError::BadState(other)),
    })
}

/// Appends the [`FLOW_WIRE_LEN`]-byte encoding of `f` to `buf`.
pub fn encode_flow(buf: &mut Vec<u8>, f: &FlowRecord) {
    buf.extend_from_slice(&f.start.as_millis().to_le_bytes());
    buf.extend_from_slice(&f.end.as_millis().to_le_bytes());
    buf.extend_from_slice(&f.src.octets());
    buf.extend_from_slice(&f.sport.to_le_bytes());
    buf.extend_from_slice(&f.dst.octets());
    buf.extend_from_slice(&f.dport.to_le_bytes());
    buf.push(proto_byte(f.proto));
    buf.push(state_byte(f.state));
    buf.extend_from_slice(&f.src_pkts.to_le_bytes());
    buf.extend_from_slice(&f.src_bytes.to_le_bytes());
    buf.extend_from_slice(&f.dst_pkts.to_le_bytes());
    buf.extend_from_slice(&f.dst_bytes.to_le_bytes());
    let payload = f.payload.as_bytes();
    buf.push(payload.len() as u8);
    buf.extend_from_slice(payload);
    buf.extend(std::iter::repeat_n(0u8, Payload::MAX - payload.len()));
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    let mut out = [0u8; 8];
    out.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(out)
}

fn u16_at(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

/// Decodes a [`FLOW_WIRE_LEN`]-byte flow record.
pub fn decode_flow(b: &[u8]) -> Result<FlowRecord, FrameError> {
    if b.len() != FLOW_WIRE_LEN {
        return Err(FrameError::BadLength {
            tag: TAG_FLOW,
            expected: FLOW_WIRE_LEN,
            got: b.len(),
        });
    }
    let payload_len = b[62] as usize;
    if payload_len > Payload::MAX {
        return Err(FrameError::BadPayloadLen(b[62]));
    }
    Ok(FlowRecord {
        start: SimTime::from_millis(u64_at(b, 0)),
        end: SimTime::from_millis(u64_at(b, 8)),
        src: Ipv4Addr::new(b[16], b[17], b[18], b[19]),
        sport: u16_at(b, 20),
        dst: Ipv4Addr::new(b[22], b[23], b[24], b[25]),
        dport: u16_at(b, 26),
        proto: proto_from(b[28])?,
        state: state_from(b[29])?,
        src_pkts: u64_at(b, 30),
        src_bytes: u64_at(b, 38),
        dst_pkts: u64_at(b, 46),
        dst_bytes: u64_at(b, 54),
        payload: Payload::capture(&b[63..63 + payload_len]),
    })
}

impl Frame {
    /// Appends the length-prefixed encoding of this frame to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let at = buf.len();
        buf.extend_from_slice(&[0; 4]); // length back-patched below
        match self {
            Frame::Flow { seq, flow } => {
                buf.push(TAG_FLOW);
                buf.extend_from_slice(&seq.to_le_bytes());
                encode_flow(buf, flow);
            }
            Frame::Tick { now_ms } => {
                buf.push(TAG_TICK);
                buf.extend_from_slice(&now_ms.to_le_bytes());
            }
            Frame::Bye => buf.push(TAG_BYE),
        }
        let body_len = (buf.len() - at - 4) as u32;
        buf[at..at + 4].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Decodes a frame body (the bytes after the length prefix).
    pub fn decode(body: &[u8]) -> Result<Frame, FrameError> {
        let (&tag, rest) = body.split_first().ok_or(FrameError::BadLength {
            tag: 0,
            expected: 1,
            got: 0,
        })?;
        match tag {
            TAG_FLOW => {
                if rest.len() != 8 + FLOW_WIRE_LEN {
                    return Err(FrameError::BadLength {
                        tag,
                        expected: 8 + FLOW_WIRE_LEN,
                        got: rest.len(),
                    });
                }
                Ok(Frame::Flow {
                    seq: u64_at(rest, 0),
                    flow: decode_flow(&rest[8..])?,
                })
            }
            TAG_TICK => {
                if rest.len() != 8 {
                    return Err(FrameError::BadLength {
                        tag,
                        expected: 8,
                        got: rest.len(),
                    });
                }
                Ok(Frame::Tick {
                    now_ms: u64_at(rest, 0),
                })
            }
            TAG_BYE => {
                if !rest.is_empty() {
                    return Err(FrameError::BadLength {
                        tag,
                        expected: 0,
                        got: rest.len(),
                    });
                }
                Ok(Frame::Bye)
            }
            other => Err(FrameError::UnknownTag(other)),
        }
    }
}

/// Writes the exporter's opening [`Hello`] in its declared version
/// (version-2 hellos carry a CRC32 trailer so a corrupted handshake is a
/// typed error rather than a garbled exporter id).
pub fn write_hello<W: Write>(w: &mut W, hello: Hello) -> io::Result<()> {
    let mut buf = [0u8; 14];
    buf[..4].copy_from_slice(&MAGIC);
    buf[4..6].copy_from_slice(&hello.version.to_le_bytes());
    buf[6..10].copy_from_slice(&hello.exporter_id.to_le_bytes());
    if hello.version == VERSION_V1 {
        return w.write_all(&buf[..10]);
    }
    let crc = crc32(&buf[..10]);
    buf[10..14].copy_from_slice(&crc.to_le_bytes());
    w.write_all(&buf)
}

/// Reads a [`Hello`], validating magic, version, and (for version 2) the
/// CRC32 trailer.
///
/// `first` optionally supplies bytes already consumed from the stream
/// (a server that sniffed the magic to tell binary exporters from text
/// query clients passes them back here).
pub fn read_hello<R: Read>(r: &mut R, first: &[u8]) -> Result<Hello, FrameError> {
    let mut buf = [0u8; 14];
    buf[..first.len()].copy_from_slice(first);
    let mut have = first.len();
    // Magic and version decide how many bytes the hello has in total.
    if have < 6 {
        r.read_exact(&mut buf[have..6])?;
        have = 6;
    }
    if buf[..4] != MAGIC {
        return Err(FrameError::BadMagic([buf[0], buf[1], buf[2], buf[3]]));
    }
    let version = version_ok(u16::from_le_bytes([buf[4], buf[5]]))?;
    let total = if version == VERSION_V1 { 10 } else { 14 };
    r.read_exact(&mut buf[have..total])?;
    if version != VERSION_V1 {
        let got = u32::from_le_bytes([buf[10], buf[11], buf[12], buf[13]]);
        let expected = crc32(&buf[..10]);
        if got != expected {
            return Err(FrameError::CrcMismatch { expected, got });
        }
    }
    Ok(Hello {
        exporter_id: u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]),
        version,
    })
}

/// Writes the server's [`HelloAck`] in its declared version (version-2
/// acks carry a CRC32 trailer — a corrupted `next_seq` would otherwise
/// silently desync the resume protocol).
pub fn write_hello_ack<W: Write>(w: &mut W, ack: HelloAck) -> io::Result<()> {
    let mut buf = [0u8; 18];
    buf[..4].copy_from_slice(&MAGIC);
    buf[4..6].copy_from_slice(&ack.version.to_le_bytes());
    buf[6..14].copy_from_slice(&ack.next_seq.to_le_bytes());
    if ack.version == VERSION_V1 {
        return w.write_all(&buf[..14]);
    }
    let crc = crc32(&buf[..14]);
    buf[14..18].copy_from_slice(&crc.to_le_bytes());
    w.write_all(&buf)
}

/// Reads a [`HelloAck`], validating magic, version, and (for version 2)
/// the CRC32 trailer.
pub fn read_hello_ack<R: Read>(r: &mut R) -> Result<HelloAck, FrameError> {
    let mut buf = [0u8; 18];
    r.read_exact(&mut buf[..6])?;
    if buf[..4] != MAGIC {
        return Err(FrameError::BadMagic([buf[0], buf[1], buf[2], buf[3]]));
    }
    let version = version_ok(u16::from_le_bytes([buf[4], buf[5]]))?;
    let total = if version == VERSION_V1 { 14 } else { 18 };
    r.read_exact(&mut buf[6..total])?;
    if version != VERSION_V1 {
        let got = u32::from_le_bytes([buf[14], buf[15], buf[16], buf[17]]);
        let expected = crc32(&buf[..14]);
        if got != expected {
            return Err(FrameError::CrcMismatch { expected, got });
        }
    }
    Ok(HelloAck {
        next_seq: u64_at(&buf, 6),
        version,
    })
}

/// Writes one length-prefixed frame in the legacy version-1 format (no
/// CRC trailer). Prefer [`write_frame_v`] on negotiated sessions.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    write_frame_v(w, frame, VERSION_V1)
}

/// Writes one length-prefixed frame for a session speaking `version`.
/// On version-2 sessions a CRC32 of the body follows the body; the
/// length prefix still counts body bytes only.
pub fn write_frame_v<W: Write>(w: &mut W, frame: &Frame, version: u16) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + 1 + 8 + FLOW_WIRE_LEN + 4);
    frame.encode(&mut buf);
    if version != VERSION_V1 {
        let crc = crc32(&buf[4..]);
        buf.extend_from_slice(&crc.to_le_bytes());
    }
    w.write_all(&buf)
}

/// Reads one length-prefixed version-1 frame. Returns `Ok(None)` on a
/// clean EOF at a frame boundary; EOF mid-frame is an [`FrameError::Io`]
/// error. Prefer [`read_frame_v`] on negotiated sessions.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, FrameError> {
    read_frame_v(r, VERSION_V1)
}

/// Reads one length-prefixed frame for a session speaking `version`,
/// verifying the CRC32 trailer on version-2 sessions before any decode.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary; EOF mid-frame
/// is an [`FrameError::Io`] error. A corrupted length prefix surfaces as
/// [`FrameError::Oversized`] or (because the misplaced read boundary
/// shifts the trailer) [`FrameError::CrcMismatch`] — either way the
/// caller knows the byte stream can no longer be trusted.
pub fn read_frame_v<R: Read>(r: &mut R, version: u16) -> Result<Option<Frame>, FrameError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let trailer = if version == VERSION_V1 { 0 } else { 4 };
    let mut body = vec![0u8; len as usize + trailer];
    r.read_exact(&mut body)?;
    if trailer != 0 {
        let at = body.len() - 4;
        let got = u32::from_le_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]]);
        let expected = crc32(&body[..at]);
        if got != expected {
            return Err(FrameError::CrcMismatch { expected, got });
        }
        body.truncate(at);
    }
    Frame::decode(&body).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_netsim::SimDuration;

    fn sample_flow() -> FlowRecord {
        FlowRecord {
            start: SimTime::from_millis(86_400_123),
            end: SimTime::from_millis(86_400_123) + SimDuration::from_secs(2),
            src: Ipv4Addr::new(10, 1, 2, 3),
            sport: 50_123,
            dst: Ipv4Addr::new(203, 0, 113, 9),
            dport: 6881,
            proto: Proto::Udp,
            state: FlowState::UdpReplied,
            src_pkts: 7,
            src_bytes: 1_234,
            dst_pkts: 9,
            dst_bytes: 55_000,
            payload: Payload::capture(b"d1:ad2:id20:"),
        }
    }

    #[test]
    fn flow_frame_round_trips() {
        let frame = Frame::Flow {
            seq: u64::MAX - 1,
            flow: sample_flow(),
        };
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        assert_eq!(buf.len(), 4 + 1 + 8 + FLOW_WIRE_LEN);
        let decoded = Frame::decode(&buf[4..]).unwrap();
        assert_eq!(decoded, frame);
    }

    #[test]
    fn stream_io_round_trips_and_detects_truncation() {
        let frames = [
            Frame::Flow {
                seq: 0,
                flow: sample_flow(),
            },
            Frame::Tick { now_ms: 1_000 },
            Frame::Bye,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = &wire[..];
        for f in &frames {
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), *f);
        }
        assert!(read_frame(&mut r).unwrap().is_none());

        // Truncation mid-frame is an error, not a clean end.
        let mut r = &wire[..wire.len() - 1];
        read_frame(&mut r).unwrap().unwrap();
        read_frame(&mut r).unwrap().unwrap();
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn handshake_round_trips_and_gates_version() {
        let mut wire = Vec::new();
        write_hello(&mut wire, Hello::new(42)).unwrap();
        let hello = read_hello(&mut &wire[..], &[]).unwrap();
        assert_eq!(hello.exporter_id, 42);
        assert_eq!(hello.version, VERSION);
        // Sniffed-magic path: the first four bytes were already consumed.
        let hello = read_hello(&mut &wire[4..], &MAGIC).unwrap();
        assert_eq!(hello.exporter_id, 42);

        let mut ack_wire = Vec::new();
        write_hello_ack(&mut ack_wire, HelloAck::new(9000)).unwrap();
        assert_eq!(
            read_hello_ack(&mut &ack_wire[..]).unwrap(),
            HelloAck::new(9000)
        );

        wire[4] = 0xFF;
        assert!(matches!(
            read_hello(&mut &wire[..], &[]),
            Err(FrameError::UnsupportedVersion(_))
        ));
        wire[0] = b'X';
        assert!(matches!(
            read_hello(&mut &wire[..], &[]),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn v1_handshake_still_speaks() {
        let legacy = Hello {
            exporter_id: 7,
            version: VERSION_V1,
        };
        let mut wire = Vec::new();
        write_hello(&mut wire, legacy).unwrap();
        assert_eq!(wire.len(), 10); // no trailer on v1
        assert_eq!(read_hello(&mut &wire[..], &[]).unwrap(), legacy);

        let ack = HelloAck {
            next_seq: 3,
            version: VERSION_V1,
        };
        let mut wire = Vec::new();
        write_hello_ack(&mut wire, ack).unwrap();
        assert_eq!(wire.len(), 14);
        assert_eq!(read_hello_ack(&mut &wire[..]).unwrap(), ack);
    }

    #[test]
    fn corrupt_v2_handshake_is_a_typed_error() {
        let mut wire = Vec::new();
        write_hello(&mut wire, Hello::new(42)).unwrap();
        assert_eq!(wire.len(), 14);
        wire[7] ^= 0x10; // flip a bit of the exporter id
        assert!(matches!(
            read_hello(&mut &wire[..], &[]),
            Err(FrameError::CrcMismatch { .. })
        ));

        let mut wire = Vec::new();
        write_hello_ack(&mut wire, HelloAck::new(9000)).unwrap();
        assert_eq!(wire.len(), 18);
        wire[8] ^= 0x01; // flip a bit of next_seq
        assert!(matches!(
            read_hello_ack(&mut &wire[..]),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn v2_frames_round_trip_and_catch_bit_flips() {
        let frames = [
            Frame::Flow {
                seq: 11,
                flow: sample_flow(),
            },
            Frame::Tick { now_ms: 2_000 },
            Frame::Bye,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame_v(&mut wire, f, VERSION).unwrap();
        }
        let mut r = &wire[..];
        for f in &frames {
            assert_eq!(read_frame_v(&mut r, VERSION).unwrap().unwrap(), *f);
        }
        assert!(read_frame_v(&mut r, VERSION).unwrap().is_none());

        // Any single flipped bit — body or trailer — fails the check.
        let first_len = 4 + 1 + 8 + FLOW_WIRE_LEN + 4;
        for at in [4usize, 20, first_len - 1] {
            let mut bad = wire.clone();
            bad[at] ^= 0x40;
            let got = read_frame_v(&mut &bad[..], VERSION);
            assert!(
                matches!(got, Err(FrameError::CrcMismatch { .. })),
                "flip at {at}: {got:?}"
            );
        }

        // A v1 writer and a v1 reader still interoperate via the _v API.
        let mut wire = Vec::new();
        write_frame(&mut wire, &frames[0]).unwrap();
        assert_eq!(
            read_frame_v(&mut &wire[..], VERSION_V1).unwrap().unwrap(),
            frames[0]
        );
    }

    #[test]
    fn corrupt_bodies_are_rejected_with_context() {
        let mut buf = Vec::new();
        Frame::Flow {
            seq: 3,
            flow: sample_flow(),
        }
        .encode(&mut buf);
        let body = &buf[4..];

        let mut bad = body.to_vec();
        bad[0] = 0x7F;
        assert!(matches!(
            Frame::decode(&bad),
            Err(FrameError::UnknownTag(0x7F))
        ));

        assert!(matches!(
            Frame::decode(&body[..body.len() - 1]),
            Err(FrameError::BadLength { .. })
        ));

        let mut bad = body.to_vec();
        bad[1 + 8 + 28] = 9; // proto byte
        assert!(matches!(Frame::decode(&bad), Err(FrameError::BadProto(9))));

        let mut bad = body.to_vec();
        bad[1 + 8 + 62] = 65; // payload length byte
        assert!(matches!(
            Frame::decode(&bad),
            Err(FrameError::BadPayloadLen(65))
        ));

        let oversize = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut r = &oversize[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Oversized(_))));
    }
}
