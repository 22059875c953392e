//! The bi-directional flow record — the unit of data the detector sees.

use std::net::Ipv4Addr;

use pw_netsim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::packet::{Payload, Proto};

/// Error parsing a flow-record field from its textual form.
///
/// The field-aware variants carry enough context (which field, the raw
/// token, why it was rejected) for an ingest pipeline to quarantine the
/// offending row with an actionable message instead of aborting the feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A flow-state token that is none of the known states.
    UnknownFlowState(String),
    /// A protocol token that is neither `tcp` nor `udp`.
    UnknownProto(String),
    /// A named field whose raw token failed to parse.
    InvalidField {
        /// Column name (as in the CSV header).
        field: &'static str,
        /// The raw token that was rejected.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A row with the wrong number of comma-separated fields.
    WrongFieldCount {
        /// Fields the format requires.
        expected: usize,
        /// Fields the row actually had.
        got: usize,
    },
}

impl ParseError {
    /// The CSV column this error is about, if it names one.
    pub fn field(&self) -> Option<&'static str> {
        match self {
            ParseError::UnknownFlowState(_) => Some("state"),
            ParseError::UnknownProto(_) => Some("proto"),
            ParseError::InvalidField { field, .. } => Some(field),
            ParseError::WrongFieldCount { .. } => None,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownFlowState(s) => write!(f, "unknown flow state `{s}`"),
            ParseError::UnknownProto(s) => write!(f, "unknown protocol `{s}`"),
            ParseError::InvalidField {
                field,
                value,
                reason,
            } => write!(f, "bad {field} `{value}`: {reason}"),
            ParseError::WrongFieldCount { expected, got } => {
                write!(f, "expected {expected} fields, got {got}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// A flow record that parsed but is semantically impossible — the kind of
/// damage bit-level corruption produces. Degraded-mode ingest quarantines
/// these instead of letting them skew per-host features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The last packet predates the first.
    EndBeforeStart,
    /// A direction reports payload bytes but zero packets.
    BytesWithoutPackets,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::EndBeforeStart => f.write_str("flow ends before it starts"),
            RecordError::BytesWithoutPackets => {
                f.write_str("direction carries bytes but zero packets")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// Connection-level outcome of a flow, as reconstructible from packet
/// headers (the way Argus reports TCP state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowState {
    /// TCP three-way handshake completed.
    Established,
    /// TCP SYN(s) sent, no response from the responder.
    SynNoAnswer,
    /// TCP SYN answered by RST — port closed or connection refused.
    Rejected,
    /// TCP reset after establishment (delivered data; counts as success).
    ResetAfterData,
    /// UDP with packets in both directions.
    UdpReplied,
    /// UDP request(s) with no reply.
    UdpSilent,
}

impl FlowState {
    /// Every state in declaration order, with its token in flow rows (the
    /// Argus abbreviation). `Display`, `FromStr` and the CSV codec all read
    /// this one table.
    const NAMES: [(FlowState, &'static str); 6] = [
        (FlowState::Established, "EST"),
        (FlowState::SynNoAnswer, "SYN"),
        (FlowState::Rejected, "REJ"),
        (FlowState::ResetAfterData, "RSTD"),
        (FlowState::UdpReplied, "UDPR"),
        (FlowState::UdpSilent, "UDPS"),
    ];

    /// The state's token in flow rows: `EST`, `SYN`, `REJ`, `RSTD`, `UDPR`
    /// or `UDPS`.
    pub(crate) fn name(self) -> &'static str {
        Self::NAMES[self as usize].1
    }

    /// The state a flow-row token names, if any.
    pub(crate) fn from_token(token: &[u8]) -> Option<Self> {
        Self::NAMES
            .iter()
            .find(|(_, name)| name.as_bytes() == token)
            .map(|&(state, _)| state)
    }

    /// Whether the connection attempt *failed* in the paper's sense
    /// (§V-A): the initiator got no usable answer. Failed-connection rate is
    /// the initial data-reduction feature.
    pub fn is_failed(self) -> bool {
        matches!(
            self,
            FlowState::SynNoAnswer | FlowState::Rejected | FlowState::UdpSilent
        )
    }
}

impl std::fmt::Display for FlowState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FlowState {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::from_token(s.as_bytes()).ok_or_else(|| ParseError::UnknownFlowState(s.to_owned()))
    }
}

/// A flow's place in the canonical processing order `(start, src, dst,
/// sport, dport)`: the order the batch pipeline walks a
/// [`FlowTable`](crate::FlowTable) in and the streaming engine logs flows
/// in (see [`FlowRecord::canonical_key`]).
pub type CanonicalKey = (SimTime, Ipv4Addr, Ipv4Addr, u16, u16);

/// One bi-directional Argus-style flow record.
///
/// `src` is always the connection *initiator* (the host that sent the first
/// packet), matching Argus' convention footnoted in §III of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Time of the first packet.
    pub start: SimTime,
    /// Time of the last packet.
    pub end: SimTime,
    /// Initiator address.
    pub src: Ipv4Addr,
    /// Initiator port.
    pub sport: u16,
    /// Responder address.
    pub dst: Ipv4Addr,
    /// Responder port.
    pub dport: u16,
    /// Transport protocol.
    pub proto: Proto,
    /// Packets sent by the initiator.
    pub src_pkts: u64,
    /// Bytes sent by the initiator (wire bytes, headers included).
    pub src_bytes: u64,
    /// Packets sent by the responder.
    pub dst_pkts: u64,
    /// Bytes sent by the responder.
    pub dst_bytes: u64,
    /// Reconstructed connection state.
    pub state: FlowState,
    /// First 64 bytes of the initiator's payload.
    pub payload: Payload,
}

impl FlowRecord {
    /// This flow's [`CanonicalKey`]. Sorting by it stably is the canonical
    /// order; flows with equal keys keep their relative order.
    #[inline]
    pub fn canonical_key(&self) -> CanonicalKey {
        (self.start, self.src, self.dst, self.sport, self.dport)
    }

    /// Whether the connection attempt failed (see [`FlowState::is_failed`]).
    pub fn is_failed(&self) -> bool {
        self.state.is_failed()
    }

    /// Checks the record's internal consistency (times ordered, byte counts
    /// backed by packets). A record can parse cleanly yet still be
    /// impossible after upstream corruption; degraded-mode ingest calls
    /// this to quarantine such rows.
    pub fn validate(&self) -> Result<(), RecordError> {
        if self.end < self.start {
            return Err(RecordError::EndBeforeStart);
        }
        if (self.src_pkts == 0 && self.src_bytes > 0) || (self.dst_pkts == 0 && self.dst_bytes > 0)
        {
            return Err(RecordError::BytesWithoutPackets);
        }
        Ok(())
    }

    /// Flow duration (zero for single-packet flows).
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Whether `host` participates in this flow.
    pub fn involves(&self, host: Ipv4Addr) -> bool {
        self.src == host || self.dst == host
    }

    /// Bytes *uploaded by* `host` in this flow: its sent bytes whichever
    /// side it is on, or `None` if it is not an endpoint. This is the
    /// quantity behind the paper's volume test ("average number of bytes
    /// per flow … uploaded by the host", §IV-A).
    pub fn bytes_uploaded_by(&self, host: Ipv4Addr) -> Option<u64> {
        if self.src == host {
            Some(self.src_bytes)
        } else if self.dst == host {
            Some(self.dst_bytes)
        } else {
            None
        }
    }

    /// The remote endpoint relative to `host`, or `None` if `host` is not
    /// an endpoint.
    pub fn peer_of(&self, host: Ipv4Addr) -> Option<Ipv4Addr> {
        if self.src == host {
            Some(self.dst)
        } else if self.dst == host {
            Some(self.src)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> FlowRecord {
        FlowRecord {
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(12),
            src: Ipv4Addr::new(10, 1, 0, 1),
            sport: 40000,
            dst: Ipv4Addr::new(8, 8, 8, 8),
            dport: 53,
            proto: Proto::Udp,
            src_pkts: 1,
            src_bytes: 70,
            dst_pkts: 1,
            dst_bytes: 200,
            state: FlowState::UdpReplied,
            payload: Payload::capture(b"query"),
        }
    }

    #[test]
    fn failure_classification() {
        assert!(FlowState::SynNoAnswer.is_failed());
        assert!(FlowState::Rejected.is_failed());
        assert!(FlowState::UdpSilent.is_failed());
        assert!(!FlowState::Established.is_failed());
        assert!(!FlowState::ResetAfterData.is_failed());
        assert!(!FlowState::UdpReplied.is_failed());
    }

    #[test]
    fn state_string_round_trip() {
        for s in [
            FlowState::Established,
            FlowState::SynNoAnswer,
            FlowState::Rejected,
            FlowState::ResetAfterData,
            FlowState::UdpReplied,
            FlowState::UdpSilent,
        ] {
            assert_eq!(s.to_string().parse::<FlowState>().unwrap(), s);
        }
        assert!("BOGUS".parse::<FlowState>().is_err());
        // `name` indexes the table by discriminant.
        for (i, (state, _)) in FlowState::NAMES.iter().enumerate() {
            assert_eq!(*state as usize, i);
        }
    }

    #[test]
    fn validate_accepts_sane_records_and_names_defects() {
        let r = rec();
        assert_eq!(r.validate(), Ok(()));
        let mut inverted = rec();
        inverted.end = SimTime::from_secs(5);
        assert_eq!(inverted.validate(), Err(RecordError::EndBeforeStart));
        let mut phantom = rec();
        phantom.dst_pkts = 0;
        assert_eq!(phantom.validate(), Err(RecordError::BytesWithoutPackets));
        assert!(RecordError::EndBeforeStart.to_string().contains("starts"));
    }

    #[test]
    fn parse_error_names_its_field() {
        assert_eq!(
            ParseError::UnknownFlowState("WAT".into()).field(),
            Some("state")
        );
        assert_eq!(
            ParseError::InvalidField {
                field: "sport",
                value: "x".into(),
                reason: "nan".into(),
            }
            .field(),
            Some("sport")
        );
        assert_eq!(
            ParseError::WrongFieldCount {
                expected: 13,
                got: 3
            }
            .field(),
            None
        );
        let e = ParseError::InvalidField {
            field: "sport",
            value: "70000".into(),
            reason: "out of range".into(),
        };
        assert!(e.to_string().contains("sport"));
        assert!(e.to_string().contains("70000"));
    }

    #[test]
    fn per_host_accessors() {
        let r = rec();
        assert!(r.involves(r.src));
        assert!(r.involves(r.dst));
        assert!(!r.involves(Ipv4Addr::new(1, 1, 1, 1)));
        assert_eq!(r.bytes_uploaded_by(r.src), Some(70));
        assert_eq!(r.bytes_uploaded_by(r.dst), Some(200));
        assert_eq!(r.bytes_uploaded_by(Ipv4Addr::new(1, 1, 1, 1)), None);
        assert_eq!(r.peer_of(r.src), Some(r.dst));
        assert_eq!(r.peer_of(r.dst), Some(r.src));
        assert_eq!(r.duration(), SimDuration::from_secs(2));
    }
}
