//! Packet → bi-directional-flow aggregation (the "Argus" of the pipeline).
//!
//! Packets sharing a canonicalized 5-tuple within an idle timeout become one
//! [`FlowRecord`]. The initiator is the sender of the first packet; TCP
//! state is reconstructed from the flags seen in each direction.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use pw_netsim::{SimDuration, SimTime};

use crate::packet::{Packet, PacketSink, Payload, Proto, TcpFlags};
use crate::record::{FlowRecord, FlowState};

/// Aggregator tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArgusConfig {
    /// Idle gap after which a 5-tuple starts a *new* flow record (Argus'
    /// flow inactivity timeout). Default: 60 s.
    pub idle_timeout: SimDuration,
}

impl Default for ArgusConfig {
    fn default() -> Self {
        Self {
            idle_timeout: SimDuration::from_secs(60),
        }
    }
}

/// Canonical bidirectional key: the 5-tuple with endpoints ordered so both
/// directions map to the same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct BidiKey {
    lo: (Ipv4Addr, u16),
    hi: (Ipv4Addr, u16),
    proto: Proto,
}

impl BidiKey {
    fn of(pkt: &Packet) -> Self {
        let a = (pkt.src, pkt.sport);
        let b = (pkt.dst, pkt.dport);
        if a <= b {
            BidiKey {
                lo: a,
                hi: b,
                proto: pkt.proto,
            }
        } else {
            BidiKey {
                lo: b,
                hi: a,
                proto: pkt.proto,
            }
        }
    }
}

#[derive(Debug)]
struct FlowBuild {
    start: SimTime,
    last: SimTime,
    initiator: (Ipv4Addr, u16),
    responder: (Ipv4Addr, u16),
    proto: Proto,
    fwd_pkts: u64,
    fwd_bytes: u64,
    rev_pkts: u64,
    rev_bytes: u64,
    fwd_flags: TcpFlags,
    rev_flags: TcpFlags,
    established_seen: bool,
    rst_seen: bool,
    payload: Payload,
}

impl FlowBuild {
    fn new(pkt: &Packet) -> Self {
        FlowBuild {
            start: pkt.time,
            last: pkt.time,
            initiator: (pkt.src, pkt.sport),
            responder: (pkt.dst, pkt.dport),
            proto: pkt.proto,
            fwd_pkts: 0,
            fwd_bytes: 0,
            rev_pkts: 0,
            rev_bytes: 0,
            fwd_flags: TcpFlags::NONE,
            rev_flags: TcpFlags::NONE,
            established_seen: false,
            rst_seen: false,
            payload: Payload::empty(),
        }
    }

    fn absorb(&mut self, pkt: &Packet) {
        self.last = self.last.max(pkt.time);
        let forward = (pkt.src, pkt.sport) == self.initiator;
        if forward {
            self.fwd_pkts += pkt.pkts as u64;
            self.fwd_bytes += pkt.bytes;
            self.fwd_flags |= pkt.flags;
            if self.payload.is_empty() && !pkt.payload.is_empty() {
                self.payload = pkt.payload;
            }
        } else {
            self.rev_pkts += pkt.pkts as u64;
            self.rev_bytes += pkt.bytes;
            self.rev_flags |= pkt.flags;
        }
        if pkt.proto == Proto::Tcp {
            if pkt.flags.contains(TcpFlags::RST) {
                self.rst_seen = true;
            }
            // Handshake completion: initiator sent SYN, responder answered
            // SYN+ACK. (The final ACK is implied once data or teardown
            // flows; tracking it adds nothing for state classification.)
            if self.fwd_flags.contains(TcpFlags::SYN)
                && self.rev_flags.contains(TcpFlags::SYN | TcpFlags::ACK)
            {
                self.established_seen = true;
            }
        }
    }

    fn state(&self) -> FlowState {
        match self.proto {
            Proto::Udp => {
                if self.rev_pkts > 0 {
                    FlowState::UdpReplied
                } else {
                    FlowState::UdpSilent
                }
            }
            Proto::Tcp => {
                if self.established_seen {
                    if self.rst_seen {
                        FlowState::ResetAfterData
                    } else {
                        FlowState::Established
                    }
                } else if self.rst_seen {
                    FlowState::Rejected
                } else {
                    FlowState::SynNoAnswer
                }
            }
        }
    }

    fn finish(self) -> FlowRecord {
        let state = self.state();
        FlowRecord {
            start: self.start,
            end: self.last,
            src: self.initiator.0,
            sport: self.initiator.1,
            dst: self.responder.0,
            dport: self.responder.1,
            proto: self.proto,
            src_pkts: self.fwd_pkts,
            src_bytes: self.fwd_bytes,
            dst_pkts: self.rev_pkts,
            dst_bytes: self.rev_bytes,
            state,
            payload: self.payload,
        }
    }
}

/// Real-time flow monitor: feed it packets (in roughly increasing time
/// order), then [`finish`](ArgusAggregator::finish) to flush.
///
/// Completed flows (idle-timeout expiry) accumulate internally; call
/// [`drain_completed`](ArgusAggregator::drain_completed) periodically on
/// long runs to bound memory, or just collect everything from `finish`.
#[derive(Debug, Default)]
pub struct ArgusAggregator {
    cfg: ArgusConfig,
    active: HashMap<BidiKey, FlowBuild>,
    completed: Vec<FlowRecord>,
}

impl ArgusAggregator {
    /// Creates an aggregator with the given configuration.
    pub fn new(cfg: ArgusConfig) -> Self {
        Self {
            cfg,
            active: HashMap::new(),
            completed: Vec::new(),
        }
    }

    /// Number of currently open flows.
    pub fn open_flows(&self) -> usize {
        self.active.len()
    }

    /// Takes the flow records completed so far (by idle timeout), sorted by
    /// start time then endpoints — the order every downstream consumer
    /// (CSV writer, `pw-detect`'s streaming engine) processes flows in.
    ///
    /// Records complete when their 5-tuple goes idle, so a long-lived flow
    /// can surface *after* flows that started later; feed a
    /// `pw_detect::stream::DetectionEngine` with a lateness bound of at
    /// least the idle timeout plus the longest expected flow duration.
    pub fn drain_completed(&mut self) -> Vec<FlowRecord> {
        let mut out = std::mem::take(&mut self.completed);
        out.sort_by_key(|r| (r.start, r.src, r.sport, r.dst, r.dport, r.end));
        out
    }

    /// Expires every flow idle at time `now`; useful between simulated days
    /// or as the periodic tick that feeds a streaming consumer.
    pub fn expire_idle(&mut self, now: SimTime) {
        let timeout = self.cfg.idle_timeout;
        let mut expired: Vec<BidiKey> = self
            .active
            .iter()
            .filter(|(_, fb)| now.since(fb.last) > timeout)
            .map(|(k, _)| *k)
            .collect();
        expired.sort_unstable(); // HashMap iteration order is not deterministic
        for k in expired {
            if let Some(fb) = self.active.remove(&k) {
                self.completed.push(fb.finish());
            }
        }
    }

    /// Flushes all remaining flows as of `end` and returns every record
    /// produced (sorted by start time, then endpoints, for determinism).
    pub fn finish(mut self, end: SimTime) -> Vec<FlowRecord> {
        self.expire_idle(end);
        for (_, fb) in self.active.drain() {
            self.completed.push(fb.finish());
        }
        let mut out = std::mem::take(&mut self.completed);
        out.sort_by_key(|r| (r.start, r.src, r.sport, r.dst, r.dport, r.end));
        out
    }
}

impl PacketSink for ArgusAggregator {
    fn emit(&mut self, packet: Packet) {
        let key = BidiKey::of(&packet);
        // A packet after the idle timeout starts a new record for the tuple.
        let timed_out = self
            .active
            .get(&key)
            .is_some_and(|fb| packet.time.since(fb.last) > self.cfg.idle_timeout);
        if timed_out {
            if let Some(fb) = self.active.remove(&key) {
                self.completed.push(fb.finish());
            }
        }
        let fb = self
            .active
            .entry(key)
            .or_insert_with(|| FlowBuild::new(&packet));
        fb.absorb(&packet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

    fn pkt(
        t: u64,
        src: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        flags: TcpFlags,
    ) -> Packet {
        Packet {
            time: SimTime::from_millis(t),
            src,
            dst,
            sport,
            dport,
            proto: Proto::Tcp,
            pkts: 1,
            bytes: 40,
            flags,
            payload: Payload::empty(),
        }
    }

    fn udp(t: u64, src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16, bytes: u64) -> Packet {
        Packet {
            time: SimTime::from_millis(t),
            src,
            dst,
            sport,
            dport,
            proto: Proto::Udp,
            pkts: 1,
            bytes,
            flags: TcpFlags::NONE,
            payload: Payload::empty(),
        }
    }

    #[test]
    fn tcp_handshake_aggregates_to_established() {
        let mut agg = ArgusAggregator::default();
        agg.emit(pkt(0, A, 5000, B, 80, TcpFlags::SYN));
        agg.emit(pkt(50, B, 80, A, 5000, TcpFlags::SYN | TcpFlags::ACK));
        agg.emit(pkt(100, A, 5000, B, 80, TcpFlags::ACK));
        let recs = agg.finish(SimTime::from_secs(10));
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.state, FlowState::Established);
        assert_eq!(r.src, A); // initiator preserved
        assert_eq!(r.src_pkts, 2);
        assert_eq!(r.dst_pkts, 1);
        assert!(!r.is_failed());
    }

    #[test]
    fn syn_without_answer_is_failed() {
        let mut agg = ArgusAggregator::default();
        agg.emit(pkt(0, A, 5000, B, 80, TcpFlags::SYN));
        agg.emit(pkt(1000, A, 5000, B, 80, TcpFlags::SYN));
        let recs = agg.finish(SimTime::from_secs(10));
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].state, FlowState::SynNoAnswer);
        assert!(recs[0].is_failed());
    }

    #[test]
    fn syn_rst_is_rejected() {
        let mut agg = ArgusAggregator::default();
        agg.emit(pkt(0, A, 5000, B, 80, TcpFlags::SYN));
        agg.emit(pkt(30, B, 80, A, 5000, TcpFlags::RST));
        let recs = agg.finish(SimTime::from_secs(10));
        assert_eq!(recs[0].state, FlowState::Rejected);
        assert!(recs[0].is_failed());
    }

    #[test]
    fn rst_after_establishment_is_success() {
        let mut agg = ArgusAggregator::default();
        agg.emit(pkt(0, A, 5000, B, 80, TcpFlags::SYN));
        agg.emit(pkt(20, B, 80, A, 5000, TcpFlags::SYN | TcpFlags::ACK));
        agg.emit(pkt(40, A, 5000, B, 80, TcpFlags::ACK));
        agg.emit(pkt(500, B, 80, A, 5000, TcpFlags::RST));
        let recs = agg.finish(SimTime::from_secs(10));
        assert_eq!(recs[0].state, FlowState::ResetAfterData);
        assert!(!recs[0].is_failed());
    }

    #[test]
    fn udp_reply_vs_silence() {
        let mut agg = ArgusAggregator::default();
        agg.emit(udp(0, A, 6000, B, 53, 70));
        agg.emit(udp(20, B, 53, A, 6000, 120));
        agg.emit(udp(0, A, 6001, B, 53, 70)); // different tuple, no reply
        let recs = agg.finish(SimTime::from_secs(10));
        assert_eq!(recs.len(), 2);
        let replied = recs.iter().find(|r| r.sport == 6000).unwrap();
        let silent = recs.iter().find(|r| r.sport == 6001).unwrap();
        assert_eq!(replied.state, FlowState::UdpReplied);
        assert_eq!(silent.state, FlowState::UdpSilent);
        assert!(silent.is_failed());
    }

    #[test]
    fn idle_timeout_splits_flows() {
        let mut agg = ArgusAggregator::new(ArgusConfig {
            idle_timeout: SimDuration::from_secs(60),
        });
        agg.emit(udp(0, A, 6000, B, 53, 70));
        agg.emit(udp(30_000, B, 53, A, 6000, 70)); // 30 s later: same flow
        agg.emit(udp(200_000, A, 6000, B, 53, 70)); // 170 s gap: new flow
        let recs = agg.finish(SimTime::from_secs(400));
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].src_pkts + recs[0].dst_pkts, 2);
        assert_eq!(recs[1].src_pkts, 1);
    }

    #[test]
    fn initiator_is_first_packet_sender_even_on_shared_key() {
        // The responder's packet arrives first in a *different* flow: ensure
        // keys canonicalize but direction assignment stays per-flow.
        let mut agg = ArgusAggregator::default();
        agg.emit(udp(0, B, 53, A, 6000, 120)); // B initiates here
        let recs = agg.finish(SimTime::from_secs(1));
        assert_eq!(recs[0].src, B);
        assert_eq!(recs[0].dst, A);
    }

    #[test]
    fn byte_and_packet_conservation() {
        let mut agg = ArgusAggregator::default();
        let mut total_bytes = 0;
        let mut total_pkts = 0;
        for i in 0..10 {
            let p = udp(i * 10, A, 7000, B, 9999, 100 + i);
            total_bytes += p.bytes;
            total_pkts += p.pkts as u64;
            agg.emit(p);
        }
        let recs = agg.finish(SimTime::from_secs(100));
        let got_bytes: u64 = recs.iter().map(|r| r.src_bytes + r.dst_bytes).sum();
        let got_pkts: u64 = recs.iter().map(|r| r.src_pkts + r.dst_pkts).sum();
        assert_eq!(got_bytes, total_bytes);
        assert_eq!(got_pkts, total_pkts);
    }

    #[test]
    fn payload_captured_from_initiator_first_data() {
        let mut agg = ArgusAggregator::default();
        let mut p = pkt(0, A, 5000, B, 80, TcpFlags::SYN);
        agg.emit(p);
        p = pkt(10, B, 80, A, 5000, TcpFlags::SYN | TcpFlags::ACK);
        p.payload = Payload::capture(b"SERVER BANNER");
        agg.emit(p);
        p = pkt(20, A, 5000, B, 80, TcpFlags::ACK | TcpFlags::PSH);
        p.payload = Payload::capture(b"GET / HTTP/1.1");
        agg.emit(p);
        let recs = agg.finish(SimTime::from_secs(1));
        // Initiator payload wins; responder banner is not recorded.
        assert_eq!(recs[0].payload.as_bytes(), b"GET / HTTP/1.1");
    }

    #[test]
    fn drain_completed_bounds_memory() {
        let mut agg = ArgusAggregator::new(ArgusConfig {
            idle_timeout: SimDuration::from_secs(1),
        });
        agg.emit(udp(0, A, 6000, B, 53, 70));
        agg.emit(udp(10_000, A, 6000, B, 53, 70)); // forces expiry of first
        assert_eq!(agg.drain_completed().len(), 1);
        assert_eq!(agg.open_flows(), 1);
        assert_eq!(agg.finish(SimTime::from_secs(20)).len(), 1);
    }

    #[test]
    fn finish_is_sorted_and_deterministic() {
        let mut agg = ArgusAggregator::default();
        agg.emit(udp(500, A, 6002, B, 53, 70));
        agg.emit(udp(100, A, 6001, B, 53, 70));
        agg.emit(udp(300, A, 6003, B, 53, 70));
        let recs = agg.finish(SimTime::from_secs(10));
        let starts: Vec<u64> = recs.iter().map(|r| r.start.as_millis()).collect();
        assert_eq!(starts, vec![100, 300, 500]);
    }
}
