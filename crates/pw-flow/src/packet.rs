//! Packet events and the sink trait connecting simulators to the aggregator.

use std::net::Ipv4Addr;

use pw_netsim::SimTime;
use serde::{Deserialize, Serialize};

/// Transport protocol of a packet or flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Proto {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
}

impl Proto {
    /// Every protocol in declaration order, with its token in flow rows.
    /// `Display`, `FromStr` and the CSV codec all read this one table.
    const NAMES: [(Proto, &'static str); 2] = [(Proto::Tcp, "tcp"), (Proto::Udp, "udp")];

    /// The protocol's token in flow rows: `tcp` or `udp`.
    pub(crate) fn name(self) -> &'static str {
        Self::NAMES[self as usize].1
    }

    /// The protocol a flow-row token names, if any.
    pub(crate) fn from_token(token: &[u8]) -> Option<Self> {
        Self::NAMES
            .iter()
            .find(|(_, name)| name.as_bytes() == token)
            .map(|&(proto, _)| proto)
    }
}

impl std::fmt::Display for Proto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Proto {
    type Err = crate::record::ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::from_token(s.as_bytes())
            .ok_or_else(|| crate::record::ParseError::UnknownProto(s.to_owned()))
    }
}

/// TCP control flags carried by a packet (a subset sufficient for flow-state
/// tracking). Packed as a small bitset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub const NONE: TcpFlags = TcpFlags(0);
    /// SYN.
    pub const SYN: TcpFlags = TcpFlags(1);
    /// ACK.
    pub const ACK: TcpFlags = TcpFlags(2);
    /// FIN.
    pub const FIN: TcpFlags = TcpFlags(4);
    /// RST.
    pub const RST: TcpFlags = TcpFlags(8);
    /// PSH.
    pub const PSH: TcpFlags = TcpFlags(16);

    /// Whether every flag in `other` is also set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether any flag in `other` is set in `self`.
    pub fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

/// The first bytes of a connection's payload, capped at 64 bytes — exactly
/// what the paper's Argus deployment recorded and used for ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Payload {
    len: u8,
    bytes: [u8; Payload::MAX],
}

impl Serialize for Payload {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.as_bytes())
    }
}

impl<'de> Deserialize<'de> for Payload {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> serde::de::Visitor<'de> for V {
            type Value = Payload;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("at most 64 payload bytes")
            }
            fn visit_bytes<E: serde::de::Error>(self, v: &[u8]) -> Result<Payload, E> {
                if v.len() > Payload::MAX {
                    return Err(E::invalid_length(v.len(), &self));
                }
                Ok(Payload::capture(v))
            }
            fn visit_seq<A: serde::de::SeqAccess<'de>>(
                self,
                mut seq: A,
            ) -> Result<Payload, A::Error> {
                let mut buf = Vec::with_capacity(Payload::MAX);
                while let Some(b) = seq.next_element::<u8>()? {
                    if buf.len() >= Payload::MAX {
                        return Err(serde::de::Error::invalid_length(buf.len() + 1, &self));
                    }
                    buf.push(b);
                }
                Ok(Payload::capture(&buf))
            }
        }
        deserializer.deserialize_bytes(V)
    }
}

impl Payload {
    /// Maximum recorded payload prefix length.
    pub const MAX: usize = 64;

    /// The empty payload.
    pub const fn empty() -> Self {
        Payload {
            len: 0,
            bytes: [0; Payload::MAX],
        }
    }

    /// Captures up to 64 bytes from `data`.
    pub fn capture(data: &[u8]) -> Self {
        let mut bytes = [0u8; Payload::MAX];
        let len = data.len().min(Payload::MAX);
        bytes[..len].copy_from_slice(&data[..len]);
        Payload {
            len: len as u8,
            bytes,
        }
    }

    /// The captured bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of captured bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }
}

impl Default for Payload {
    fn default() -> Self {
        Self::empty()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// A packet event emitted by the traffic simulators.
///
/// For efficiency a `Packet` may represent a *burst* of back-to-back
/// same-direction packets (`pkts > 1`, `bytes` summed); Argus only keeps
/// per-direction counts, so aggregation is unaffected. This is the only
/// deliberate departure from one-event-per-packet and is confined to bulk
/// data transfer inside established connections.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Capture timestamp.
    pub time: SimTime,
    /// Sender address.
    pub src: Ipv4Addr,
    /// Receiver address.
    pub dst: Ipv4Addr,
    /// Sender port.
    pub sport: u16,
    /// Receiver port.
    pub dport: u16,
    /// Transport protocol.
    pub proto: Proto,
    /// Packets represented by this event (≥ 1).
    pub pkts: u32,
    /// Total bytes on the wire for those packets (headers included).
    pub bytes: u64,
    /// TCP flags (ignored for UDP).
    pub flags: TcpFlags,
    /// Leading payload bytes carried by this packet, if any.
    pub payload: Payload,
}

/// Consumer of packet events. Traffic models write packets into a sink; the
/// Argus aggregator is the production sink, and `Vec<Packet>` collects raw
/// packets in tests.
///
/// Generic functions should accept `&mut S where S: PacketSink` — a `&mut`
/// reference to a sink is itself a sink.
pub trait PacketSink {
    /// Accepts one packet event. Packets may arrive slightly out of order
    /// across connections; sinks must tolerate that (Argus sorts per-flow
    /// state by packet timestamps).
    fn emit(&mut self, packet: Packet);
}

impl PacketSink for Vec<Packet> {
    fn emit(&mut self, packet: Packet) {
        self.push(packet);
    }
}

impl<S: PacketSink + ?Sized> PacketSink for &mut S {
    fn emit(&mut self, packet: Packet) {
        (**self).emit(packet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_bit_operations() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
        assert!(f.intersects(TcpFlags::ACK | TcpFlags::RST));
        assert!(!f.intersects(TcpFlags::RST));
    }

    #[test]
    fn proto_names_round_trip() {
        for (i, (proto, name)) in Proto::NAMES.iter().enumerate() {
            // `name` indexes the table by discriminant.
            assert_eq!(*proto as usize, i);
            assert_eq!(proto.to_string(), *name);
            assert_eq!(name.parse::<Proto>().unwrap(), *proto);
        }
        assert!("icmp".parse::<Proto>().is_err());
    }

    #[test]
    fn payload_capture_truncates() {
        let long = vec![7u8; 100];
        let p = Payload::capture(&long);
        assert_eq!(p.len(), 64);
        assert_eq!(p.as_bytes(), &long[..64]);
    }

    #[test]
    fn payload_empty() {
        let p = Payload::empty();
        assert!(p.is_empty());
        assert_eq!(p.as_bytes(), &[] as &[u8]);
        assert_eq!(p, Payload::default());
        assert_eq!(Payload::capture(b"hi").as_bytes(), b"hi");
    }

    #[test]
    fn vec_is_a_sink() {
        let mut v: Vec<Packet> = Vec::new();
        let pkt = Packet {
            time: SimTime::ZERO,
            src: Ipv4Addr::new(1, 2, 3, 4),
            dst: Ipv4Addr::new(5, 6, 7, 8),
            sport: 1,
            dport: 2,
            proto: Proto::Udp,
            pkts: 1,
            bytes: 40,
            flags: TcpFlags::NONE,
            payload: Payload::empty(),
        };
        fn feed<S: PacketSink>(mut sink: S, pkt: Packet) {
            sink.emit(pkt);
        }
        feed(&mut v, pkt); // &mut S is itself a sink
        assert_eq!(v.len(), 1);
    }
}
