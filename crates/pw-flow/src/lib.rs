//! Argus-style bi-directional flow records — the paper's data plane.
//!
//! The detector in `pw-detect` consumes *flow records*, not packets: "TCP
//! and UDP flows are identified by the 5-tuple …, and packets in both
//! directions are recorded as a summary of the communication, namely, an
//! Argus flow record" (§III). This crate is that substrate:
//!
//! - [`Packet`]: the event the simulators emit ([`packet`]);
//! - [`ArgusAggregator`]: groups packets of a connection into one
//!   bi-directional [`FlowRecord`], tracking TCP state, idle timeouts, and
//!   the first 64 payload bytes ([`aggregator`], [`record`]);
//! - [`FlowTable`]: the index batch detection walks over a slice of
//!   records — the columns the paper's tests read, with endpoints interned
//!   to dense [`HostId`]s by a [`HostInterner`], and a canonical
//!   time-sorted order; row `i` is `records[i]`, which keeps every other
//!   field ([`table`], [`host`]);
//! - [`synth`]: canonical packet sequences for whole connections
//!   (handshake, data, teardown; failed variants), so every traffic model
//!   exercises the same aggregation path;
//! - [`signatures`]: the 64-byte payload keywords the paper uses for ground
//!   truth (Gnutella/eMule/BitTorrent), plus builders that generate
//!   protocol-faithful prefixes;
//! - [`csvio`]: persistence for flow datasets, with one reader that
//!   returns malformed rows as typed errors;
//! - [`frame`]: the length-prefixed binary wire format border exporters
//!   use to stream flows to a long-running detection server.
//!
//! # Examples
//!
//! ```
//! use pw_flow::{ArgusAggregator, synth::{emit_connection, ConnOutcome, ConnSpec}};
//! use pw_netsim::SimTime;
//! use std::net::Ipv4Addr;
//!
//! let mut argus = ArgusAggregator::default();
//! emit_connection(&mut argus, &ConnSpec::tcp(
//!     SimTime::from_secs(1),
//!     Ipv4Addr::new(10, 1, 0, 5), 50000,
//!     Ipv4Addr::new(93, 184, 216, 34), 80,
//! ).outcome(ConnOutcome::Established { bytes_up: 400, bytes_down: 15_000 }));
//! let records = argus.finish(SimTime::from_secs(120));
//! assert_eq!(records.len(), 1);
//! assert!(!records[0].is_failed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod csvio;
pub mod frame;
pub mod host;
pub mod packet;
pub mod record;
pub mod signatures;
pub mod synth;
pub mod table;

pub use aggregator::{ArgusAggregator, ArgusConfig};
pub use csvio::RowError;
pub use host::{HostId, HostInterner};
pub use packet::{Packet, PacketSink, Payload, Proto, TcpFlags};
pub use record::{CanonicalKey, FlowRecord, FlowState, ParseError, RecordError};
pub use signatures::P2pApp;
pub use table::FlowTable;
