//! Columnar flow storage shared by every detection stage.
//!
//! A [`FlowTable`] is the struct-of-arrays form of a `Vec<FlowRecord>`:
//! one column per field, endpoints interned to dense [`HostId`]s, plus a
//! time-sorted index. It is built once — by [`FlowTable::from_records`] or
//! [`ArgusAggregator::finish_table`](crate::aggregator::ArgusAggregator::finish_table)
//! — and then borrowed by each per-host pass, which walks the relevant
//! columns sequentially instead of re-hashing `Ipv4Addr` keys per flow.

use pw_netsim::{SimDuration, SimTime};

use crate::host::{HostId, HostInterner};
use crate::packet::{Payload, Proto};
use crate::record::{FlowRecord, FlowState};

/// Struct-of-arrays flow storage with interned endpoints.
///
/// Row `i` holds the fields of one bi-directional flow. Rows keep the
/// insertion order of the source records; [`order`](FlowTable::order) is
/// the permutation that visits rows in canonical time order
/// `(start, src, dst, sport, dport)` — the order both the batch pipeline
/// and the streaming engine process flows in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTable {
    hosts: HostInterner,
    start: Vec<SimTime>,
    end: Vec<SimTime>,
    src: Vec<HostId>,
    dst: Vec<HostId>,
    sport: Vec<u16>,
    dport: Vec<u16>,
    proto: Vec<Proto>,
    src_pkts: Vec<u64>,
    src_bytes: Vec<u64>,
    dst_pkts: Vec<u64>,
    dst_bytes: Vec<u64>,
    state: Vec<FlowState>,
    payload: Vec<Payload>,
    order: Vec<u32>,
}

impl FlowTable {
    /// Builds the columnar table from row-oriented records, interning every
    /// endpoint and computing the time-sorted index.
    ///
    /// Takes any exact-size iterator of borrowed records — a slice, or a
    /// range of a `VecDeque` read in place — and sizes every column once.
    pub fn from_records<'a, I>(records: I) -> Self
    where
        I: IntoIterator<Item = &'a FlowRecord>,
        I::IntoIter: ExactSizeIterator,
    {
        let records = records.into_iter();
        let n = records.len();
        let mut t = FlowTable {
            hosts: HostInterner::new(),
            start: Vec::with_capacity(n),
            end: Vec::with_capacity(n),
            src: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            sport: Vec::with_capacity(n),
            dport: Vec::with_capacity(n),
            proto: Vec::with_capacity(n),
            src_pkts: Vec::with_capacity(n),
            src_bytes: Vec::with_capacity(n),
            dst_pkts: Vec::with_capacity(n),
            dst_bytes: Vec::with_capacity(n),
            state: Vec::with_capacity(n),
            payload: Vec::with_capacity(n),
            order: Vec::new(),
        };
        for r in records {
            t.start.push(r.start);
            t.end.push(r.end);
            t.src.push(t.hosts.intern(r.src));
            t.dst.push(t.hosts.intern(r.dst));
            t.sport.push(r.sport);
            t.dport.push(r.dport);
            t.proto.push(r.proto);
            t.src_pkts.push(r.src_pkts);
            t.src_bytes.push(r.src_bytes);
            t.dst_pkts.push(r.dst_pkts);
            t.dst_bytes.push(r.dst_bytes);
            t.state.push(r.state);
            t.payload.push(r.payload);
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| {
            let row = i as usize;
            (
                t.start[row],
                t.hosts.resolve(t.src[row]),
                t.hosts.resolve(t.dst[row]),
                t.sport[row],
                t.dport[row],
            )
        });
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

    /// Last-packet time of row `row`.
    #[inline]
    pub fn end(&self, row: usize) -> SimTime {
        self.end[row]
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

    /// Initiator port of row `row`.
    #[inline]
    pub fn sport(&self, row: usize) -> u16 {
        self.sport[row]
    }

    /// Responder port of row `row`.
    #[inline]
    pub fn dport(&self, row: usize) -> u16 {
        self.dport[row]
    }

    /// Transport protocol of row `row`.
    #[inline]
    pub fn proto(&self, row: usize) -> Proto {
        self.proto[row]
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

    /// Connection state of row `row`.
    #[inline]
    pub fn state(&self, row: usize) -> FlowState {
        self.state[row]
    }

    /// Whether row `row` is a failed connection attempt (§V-A).
    #[inline]
    pub fn is_failed(&self, row: usize) -> bool {
        self.state[row].is_failed()
    }

    /// Flow duration of row `row`.
    #[inline]
    pub fn duration(&self, row: usize) -> SimDuration {
        self.end[row] - self.start[row]
    }

    /// Counts rows that are exact duplicates of their predecessor in
    /// canonical time order — the shape flow duplication faults take
    /// (replayed export batches, doubled-up collectors). Identical records
    /// sort adjacently, so one ordered pass finds them without hashing.
    pub fn duplicate_rows(&self) -> usize {
        self.order
            .windows(2)
            .filter(|pair| {
                let (a, b) = (pair[0] as usize, pair[1] as usize);
                self.start[a] == self.start[b]
                    && self.src[a] == self.src[b]
                    && self.dst[a] == self.dst[b]
                    && self.sport[a] == self.sport[b]
                    && self.dport[a] == self.dport[b]
                    && self.record(a) == self.record(b)
            })
            .count()
    }

    /// Materializes row `row` back into a [`FlowRecord`].
    pub fn record(&self, row: usize) -> FlowRecord {
        FlowRecord {
            start: self.start[row],
            end: self.end[row],
            src: self.hosts.resolve(self.src[row]),
            sport: self.sport[row],
            dst: self.hosts.resolve(self.dst[row]),
            dport: self.dport[row],
            proto: self.proto[row],
            src_pkts: self.src_pkts[row],
            src_bytes: self.src_bytes[row],
            dst_pkts: self.dst_pkts[row],
            dst_bytes: self.dst_bytes[row],
            state: self.state[row],
            payload: self.payload[row],
        }
    }

    /// Materializes every row in canonical time order.
    pub fn to_records(&self) -> Vec<FlowRecord> {
        self.rows_in_order().map(|row| self.record(row)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn round_trips_records() {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        let records = vec![rec(100, a, b), rec(50, b, a), rec(100, a, b)];
        let t = FlowTable::from_records(&records);
        assert_eq!(t.len(), 3);
        assert_eq!(t.hosts().len(), 2);
        for (row, r) in records.iter().enumerate() {
            assert_eq!(&t.record(row), r);
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
    fn to_records_sorts_canonically() {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        let records = vec![rec(300, b, a), rec(100, a, b)];
        let t = FlowTable::from_records(&records);
        let mut expected = records.clone();
        expected.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
        assert_eq!(t.to_records(), expected);
    }

    #[test]
    fn duplicate_rows_counts_exact_copies_only() {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        let mut near = rec(100, a, b);
        near.src_bytes += 1; // same 5-tuple and start, different content
        let records = vec![rec(100, a, b), rec(200, a, b), rec(100, a, b), near];
        let t = FlowTable::from_records(&records);
        assert_eq!(t.duplicate_rows(), 1);
        assert_eq!(FlowTable::from_records(&[]).duplicate_rows(), 0);
        // Triplicate: two rows are copies of their predecessor.
        let r = rec(50, a, b);
        assert_eq!(FlowTable::from_records(&[r, r, r]).duplicate_rows(), 2);
    }

    #[test]
    fn empty_table() {
        let t = FlowTable::from_records(&[]);
        assert!(t.is_empty());
        assert!(t.hosts().is_empty());
        assert!(t.order().is_empty());
    }
}
