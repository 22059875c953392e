//! The flow index batch detection walks.
//!
//! A [`FlowTable`] holds, for each flow of a `[FlowRecord]` slice, the
//! fields the paper's tests read (§IV, §V-A): its start, its two endpoints
//! interned to dense [`HostId`]s, the bytes each side sent and its state,
//! plus a time-sorted index. Every other field stays on the records, which
//! remain the flows. The table is built once, by
//! [`FlowTable::from_records`], and then borrowed by each per-host pass,
//! which walks the columns sequentially instead of re-hashing `Ipv4Addr`
//! keys per flow.

use pw_netsim::SimTime;

use crate::host::{HostId, HostInterner};
use crate::record::{FlowRecord, FlowState};

/// The columns batch detection reads of a flow slice, with interned
/// endpoints.
///
/// Row `i` is `records[i]` of the slice the table was built from: rows keep
/// the order of the source records, and a caller that needs a field the
/// table does not hold reads it there. [`order`](FlowTable::order) is the
/// permutation that visits rows in canonical time order
/// ([`FlowRecord::canonical_key`]) — the order both the batch pipeline and
/// the streaming engine process flows in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTable {
    hosts: HostInterner,
    start: Vec<SimTime>,
    src: Vec<HostId>,
    dst: Vec<HostId>,
    src_bytes: Vec<u64>,
    dst_bytes: Vec<u64>,
    state: Vec<FlowState>,
    order: Vec<u32>,
}

impl FlowTable {
    /// Builds the table from row-oriented records, interning every endpoint
    /// and computing the time-sorted index.
    pub fn from_records(records: &[FlowRecord]) -> Self {
        let n = records.len();
        let mut t = FlowTable {
            hosts: HostInterner::new(),
            start: Vec::with_capacity(n),
            src: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            src_bytes: Vec::with_capacity(n),
            dst_bytes: Vec::with_capacity(n),
            state: Vec::with_capacity(n),
            order: Vec::new(),
        };
        for r in records {
            t.start.push(r.start);
            t.src.push(t.hosts.intern(r.src));
            t.dst.push(t.hosts.intern(r.dst));
            t.src_bytes.push(r.src_bytes);
            t.dst_bytes.push(r.dst_bytes);
            t.state.push(r.state);
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| records[i as usize].canonical_key());
        t.order = order;
        t
    }

    /// Number of flows stored.
    pub fn len(&self) -> usize {
        self.start.len()
    }

    /// Whether the table holds no flows.
    pub fn is_empty(&self) -> bool {
        self.start.is_empty()
    }

    /// The endpoint interner: every `src`/`dst` id in the table resolves
    /// here, and its `len` is the number of distinct endpoints seen.
    pub fn hosts(&self) -> &HostInterner {
        &self.hosts
    }

    /// Row indices in canonical time order `(start, src, dst, sport,
    /// dport)`; a permutation of `0..len()`.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Iterates row indices in canonical time order.
    pub fn rows_in_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter().map(|&i| i as usize)
    }

    /// First-packet time of row `row`.
    #[inline]
    pub fn start(&self, row: usize) -> SimTime {
        self.start[row]
    }

    /// Initiator id of row `row`.
    #[inline]
    pub fn src(&self, row: usize) -> HostId {
        self.src[row]
    }

    /// Responder id of row `row`.
    #[inline]
    pub fn dst(&self, row: usize) -> HostId {
        self.dst[row]
    }

    /// Bytes sent by the initiator of row `row`.
    #[inline]
    pub fn src_bytes(&self, row: usize) -> u64 {
        self.src_bytes[row]
    }

    /// Bytes sent by the responder of row `row`.
    #[inline]
    pub fn dst_bytes(&self, row: usize) -> u64 {
        self.dst_bytes[row]
    }

    /// Whether row `row` is a failed connection attempt (§V-A).
    #[inline]
    pub fn is_failed(&self, row: usize) -> bool {
        self.state[row].is_failed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Payload, Proto};
    use std::net::Ipv4Addr;

    fn rec(start_ms: u64, src: Ipv4Addr, dst: Ipv4Addr) -> FlowRecord {
        FlowRecord {
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(start_ms + 500),
            src,
            sport: 40_000,
            dst,
            dport: 80,
            proto: Proto::Tcp,
            src_pkts: 3,
            src_bytes: 120,
            dst_pkts: 2,
            dst_bytes: 4000,
            state: FlowState::Established,
            payload: Payload::capture(b"GET /"),
        }
    }

    #[test]
    fn order_is_canonical_time_order() {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        let records = vec![rec(300, b, a), rec(100, a, b), rec(200, a, b)];
        let t = FlowTable::from_records(&records);
        let starts: Vec<u64> = t
            .rows_in_order()
            .map(|row| t.start(row).as_millis())
            .collect();
        assert_eq!(starts, vec![100, 200, 300]);
        let mut sorted = t.order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2], "order is a permutation");
    }

    #[test]
    fn order_is_a_stable_sort_on_the_canonical_key() {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        let mut high_sport = rec(100, a, b);
        high_sport.sport += 1;
        let mut copy = rec(100, a, b);
        copy.payload = Payload::empty();
        let records = vec![rec(100, b, a), high_sport, rec(100, a, b), copy];
        let t = FlowTable::from_records(&records);
        assert_eq!(t.order(), &[2, 3, 1, 0]);
    }

    #[test]
    fn empty_table() {
        let t = FlowTable::from_records(&[]);
        assert!(t.is_empty());
        assert!(t.hosts().is_empty());
        assert!(t.order().is_empty());
    }
}
