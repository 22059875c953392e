//! Exhaustive-interleaving model of the engine-thread channel protocol.
//!
//! `loom` is the tool this stage is named for, but the registry is not
//! available offline, so the checker is hand-rolled and dependency-free:
//! the server's concurrency skeleton — connection threads feeding one
//! bounded `sync_channel` into a single engine thread, capacity-1 reply
//! channels, the stop flag, and the fail-safe terminal state — is
//! restated as a small explicit-state transition system, and a DFS
//! explores **every** reachable schedule. Each test asserts its
//! invariant in every terminal state and asserts that no non-terminal
//! state is stuck (deadlock freedom), which is exactly the property an
//! interleaving explorer adds over the e2e tests.
//!
//! The model mirrors `server.rs` semantics precisely where they matter:
//!
//! - `SyncSender::send` blocks while the queue is full, and **errors**
//!   (freeing the sender) once the engine has dropped the receiver —
//!   that error path is why a shutdown cannot strand a blocked exporter.
//! - Hello/Query replies ride capacity-1 channels: one message ever, so
//!   the engine's reply send never blocks.
//! - The engine replies to `SHUTDOWN` *before* setting the stop flag and
//!   breaking, so the querying client always gets its `ok`. (The real
//!   engine also waits until the session has written that reply, so the
//!   process cannot exit first; the write is outside this model.)
//! - A caught engine panic flips `failed` without advancing the
//!   exporter's sequence; later flows are ignored, queries still answer.
//!
//! Run with `cargo test -p pw-server --features loom --test engine_model`
//! (wired as a dedicated CI stage).

#![cfg(feature = "loom")]

use std::collections::{HashSet, VecDeque};

/// Queue messages, mirroring `server::Msg` at protocol granularity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Msg {
    Hello,
    Flow { seq: u8 },
    Shutdown,
}

/// Exporter thread program counter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Exporter {
    SendHello,
    AwaitAck,
    /// Streaming: next flow index to send (absolute sequence).
    Send(u8),
    /// Second session (reconnect replay): same three phases.
    ResendHello,
    ReAwaitAck,
    ReSend(u8),
    Done,
}

/// Query-client thread program counter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Query {
    Send,
    Await,
    Done,
}

/// One global state of the model: queue + reply slots + three threads.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    queue: VecDeque<Msg>,
    /// Capacity-1 Hello-reply channel (the acked next sequence).
    hello_reply: Option<u8>,
    /// Capacity-1 Query-reply channel.
    query_reply: bool,
    exporter: Exporter,
    /// The ack the exporter resumes from (per session).
    ack: u8,
    query: Query,
    /// Engine: next expected sequence.
    expected: u8,
    /// Engine: how many times each sequence number was applied.
    applied: [u8; 4],
    /// Engine: fail-safe terminal state (after a caught panic).
    failed: bool,
    /// Engine: panics caught.
    panics: u8,
    /// Stop flag — the engine broke its loop and dropped the receiver.
    stopped: bool,
}

/// Model parameters for one exploration.
struct Model {
    cap: usize,
    flows: u8,
    /// Applying this sequence panics the engine (caught → fail-safe).
    poison: Option<u8>,
    /// Whether the exporter runs a second, replaying session.
    reconnect: bool,
    /// Whether a query client races a `SHUTDOWN` against ingest.
    shutdown: bool,
}

impl State {
    fn initial(m: &Model) -> State {
        State {
            queue: VecDeque::new(),
            hello_reply: None,
            query_reply: false,
            exporter: Exporter::SendHello,
            ack: 0,
            query: if m.shutdown { Query::Send } else { Query::Done },
            expected: 0,
            applied: [0; 4],
            failed: false,
            panics: 0,
            stopped: false,
        }
    }

    /// Every state reachable in one atomic step of one thread.
    fn successors(&self, m: &Model) -> Vec<State> {
        let mut out = Vec::new();
        self.exporter_steps(m, &mut out);
        self.query_steps(&mut out);
        self.engine_steps(m, &mut out);
        out
    }

    /// `SyncSender::send`: succeeds when the queue has room, errors once
    /// the receiver is dropped (engine stopped). Blocked otherwise.
    fn try_send(&self, m: &Model, msg: Msg) -> Option<(State, bool)> {
        if self.stopped {
            return Some((self.clone(), false)); // Err(SendError) — sender unblocked
        }
        if self.queue.len() < m.cap {
            let mut n = self.clone();
            n.queue.push_back(msg);
            return Some((n, true));
        }
        None // full and alive: the send blocks, no step
    }

    fn exporter_steps(&self, m: &Model, out: &mut Vec<State>) {
        match self.exporter {
            Exporter::SendHello | Exporter::ResendHello => {
                if let Some((mut n, ok)) = self.try_send(m, Msg::Hello) {
                    n.exporter = match (ok, self.exporter) {
                        (false, _) => Exporter::Done, // server gone
                        (true, Exporter::SendHello) => Exporter::AwaitAck,
                        (true, _) => Exporter::ReAwaitAck,
                    };
                    out.push(n);
                }
            }
            Exporter::AwaitAck | Exporter::ReAwaitAck => {
                if let Some(ack) = self.hello_reply {
                    let mut n = self.clone();
                    n.hello_reply = None;
                    n.ack = ack;
                    n.exporter = match self.exporter {
                        Exporter::AwaitAck => Exporter::Send(ack),
                        _ => Exporter::ReSend(ack),
                    };
                    out.push(n);
                } else if self.stopped {
                    // Engine dropped the queued Hello (and with it the
                    // reply sender): recv errors, the session ends.
                    let mut n = self.clone();
                    n.exporter = Exporter::Done;
                    out.push(n);
                }
            }
            Exporter::Send(k) | Exporter::ReSend(k) => {
                let second = matches!(self.exporter, Exporter::ReSend(_));
                if k >= m.flows {
                    let mut n = self.clone();
                    n.exporter = if !second && m.reconnect {
                        // Connection severed; the replayed session starts
                        // with a fresh handshake.
                        Exporter::ResendHello
                    } else {
                        Exporter::Done
                    };
                    out.push(n);
                } else if let Some((mut n, ok)) = self.try_send(m, Msg::Flow { seq: k }) {
                    n.exporter = if !ok {
                        Exporter::Done
                    } else if second {
                        Exporter::ReSend(k + 1)
                    } else {
                        Exporter::Send(k + 1)
                    };
                    out.push(n);
                }
            }
            Exporter::Done => {}
        }
    }

    fn query_steps(&self, out: &mut Vec<State>) {
        match self.query {
            Query::Send => {
                // The send-with-room step needs the model cap and lives
                // in [`query_send_step`]; only the sender-unblocked-by-
                // shutdown error path is modeled here.
                if self.stopped {
                    let mut n = self.clone();
                    n.query = Query::Done;
                    out.push(n);
                }
            }
            Query::Await => {
                if self.query_reply {
                    let mut n = self.clone();
                    n.query_reply = false;
                    n.query = Query::Done;
                    out.push(n);
                } else if self.stopped {
                    // Reply sender dropped with the queued message: the
                    // session answers "err server stopped" and ends.
                    let mut n = self.clone();
                    n.query = Query::Done;
                    out.push(n);
                }
            }
            Query::Done => {}
        }
    }

    fn engine_steps(&self, m: &Model, out: &mut Vec<State>) {
        if self.stopped {
            return;
        }
        // recv: either a message is ready, or every sender is gone and
        // recv errors, ending the loop (run()'s drop(tx) path).
        if let Some(msg) = self.queue.front().cloned() {
            let mut n = self.clone();
            n.queue.pop_front();
            match msg {
                Msg::Hello => {
                    // Capacity-1 reply: exactly one send ever, so this
                    // cannot block (asserted, not assumed).
                    assert!(n.hello_reply.is_none(), "hello reply channel full");
                    n.hello_reply = Some(n.expected);
                }
                Msg::Flow { seq } => {
                    if !n.failed && seq == n.expected {
                        if m.poison == Some(seq) && n.panics == 0 {
                            // catch_unwind path: count, flip fail-safe,
                            // do NOT advance the sequence.
                            n.panics += 1;
                            n.failed = true;
                        } else {
                            n.applied[seq as usize] += 1;
                            n.expected += 1;
                        }
                    }
                    // Replays (seq < expected) and out-of-protocol skips
                    // fall through without state change — exactly-once.
                }
                Msg::Shutdown => {
                    // Reply first, then stop: the querying client always
                    // hears `ok` (even in the fail-safe state).
                    n.query_reply = true;
                    n.stopped = true;
                }
            }
            out.push(n);
        } else if self.exporter == Exporter::Done && self.query == Query::Done {
            // All senders dropped, queue drained: recv errors, loop ends.
            let mut n = self.clone();
            n.stopped = true;
            out.push(n);
        }
    }
}

/// Query-send needs the model cap, so it lives here rather than in
/// [`State::query_steps`].
fn query_send_step(st: &State, m: &Model, out: &mut Vec<State>) {
    if st.query == Query::Send && !st.stopped && st.queue.len() < m.cap {
        let mut n = st.clone();
        n.queue.push_back(Msg::Shutdown);
        n.query = Query::Await;
        out.push(n);
    }
}

/// DFS over every reachable interleaving; calls `check` on each terminal
/// state and panics on any stuck non-terminal state (deadlock).
fn explore(m: &Model, check: impl Fn(&State)) -> usize {
    let mut seen: HashSet<State> = HashSet::new();
    let mut stack = vec![State::initial(m)];
    let mut terminals = 0;
    while let Some(st) = stack.pop() {
        if !seen.insert(st.clone()) {
            continue;
        }
        let mut next = st.successors(m);
        query_send_step(&st, m, &mut next);
        if next.is_empty() {
            let all_done = st.exporter == Exporter::Done && st.query == Query::Done;
            assert!(
                all_done && st.stopped,
                "deadlocked interleaving: no enabled step in {st:?}"
            );
            check(&st);
            terminals += 1;
        } else {
            stack.extend(next);
        }
    }
    terminals
}

/// With queue depth 1 (maximum contention) and a racing `SHUTDOWN`, no
/// interleaving deadlocks, the query client always completes, and no
/// flow is ever applied twice.
#[test]
fn shutdown_never_strands_a_blocked_exporter() {
    for cap in [1, 2] {
        let m = Model {
            cap,
            flows: 3,
            poison: None,
            reconnect: false,
            shutdown: true,
        };
        let terminals = explore(&m, |st| {
            for (seq, &n) in st.applied.iter().enumerate() {
                assert!(n <= 1, "seq {seq} applied {n} times in {st:?}");
            }
            // In-order prefix: applied sequences are exactly 0..expected.
            for seq in 0..st.expected {
                assert_eq!(st.applied[seq as usize], 1, "{st:?}");
            }
        });
        assert!(terminals > 0);
    }
}

/// A severed-and-replayed exporter session (full resend after the ack
/// handshake) never double-applies a flow: the sequence expectation
/// skips every replayed frame.
#[test]
fn reconnect_replay_is_exactly_once() {
    let m = Model {
        cap: 1,
        flows: 3,
        poison: None,
        reconnect: true,
        shutdown: false,
    };
    let terminals = explore(&m, |st| {
        // No shutdown racing: every flow must land exactly once despite
        // the full replay of the second session.
        assert_eq!(st.expected, m.flows, "lost flows in {st:?}");
        for seq in 0..m.flows {
            assert_eq!(st.applied[seq as usize], 1, "{st:?}");
        }
    });
    assert!(terminals > 0);
}

/// A caught engine panic flips the fail-safe state: the poisoned flow's
/// sequence never advances (a restart re-requests it), later flows are
/// ignored, and a racing `SHUTDOWN` is still answered.
#[test]
fn fail_safe_freezes_sequences_but_answers_queries() {
    let m = Model {
        cap: 1,
        flows: 3,
        poison: Some(1),
        reconnect: false,
        shutdown: true,
    };
    let terminals = explore(&m, |st| {
        if st.panics > 0 {
            assert!(st.failed, "{st:?}");
            // The panic hit seq 1: applied stops at the prefix {0}, and
            // nothing at or after the poisoned sequence is ever applied.
            assert_eq!(st.expected, 1, "sequence advanced across a panic: {st:?}");
            assert_eq!(st.applied[1], 0, "{st:?}");
            assert_eq!(st.applied[2], 0, "{st:?}");
        }
        // Shutdown completed in every interleaving, failed or not
        // (enforced structurally: terminal requires query Done).
    });
    assert!(terminals > 0);
}
