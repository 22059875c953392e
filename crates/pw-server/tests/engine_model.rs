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
//! - Ingest moves in batches, as on the wire: one `Flows { first, len }`
//!   message carries sequences `first..first + len`, and the queue's
//!   capacity counts messages.
//! - `SyncSender::send` blocks while the queue is full, and **errors**
//!   (freeing the sender) once the engine has dropped the receiver —
//!   that error path is why a shutdown cannot strand a blocked exporter.
//! - Hello/Query replies ride capacity-1 channels: one message ever, so
//!   the engine's reply send never blocks.
//! - The engine replies to `SHUTDOWN` *before* setting the stop flag and
//!   breaking, so the querying client always gets its `ok`. (The real
//!   engine also waits until the session has written that reply, so the
//!   process cannot exit first; the write is outside this model.)
//! - The engine applies a batch flow by flow: sequences below the
//!   expected one are replays and are skipped, and a batch that starts
//!   above it is skipped whole. A caught engine panic flips `failed`
//!   without advancing the exporter's sequence and drops the rest of the
//!   batch; later flows are ignored, queries still answer.
//! - A reconnect is a second session thread. The first session's reader
//!   may still be forwarding batches it had already read when the second
//!   handshakes, so the second can be acked a stale sequence and replay
//!   batches, on a grid of its own, that straddle the applied sequence.
//!
//! Run with `cargo test -p pw-server --features loom --test engine_model`
//! (wired as a dedicated CI stage).

#![cfg(feature = "loom")]

use std::collections::{HashSet, VecDeque};

/// Most flows a model stream holds.
const MAX_FLOWS: usize = 6;

/// Queue messages, mirroring `server::Msg` at protocol granularity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Msg {
    Hello,
    Flows { first: u8, len: u8 },
    Shutdown,
}

/// One exporter session's program counter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Session {
    /// Not started yet (the reconnect waits for the first handshake).
    Idle,
    SendHello,
    AwaitAck,
    /// Streaming: the first sequence of the next batch to send.
    Send(u8),
    Done,
}

/// Query-client thread program counter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Query {
    Send,
    Await,
    Done,
}

/// One global state of the model: queue + reply slot + four threads.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    queue: VecDeque<Msg>,
    /// Capacity-1 Hello-reply channel (the acked next sequence).
    hello_reply: Option<u8>,
    /// Capacity-1 Query-reply channel.
    query_reply: bool,
    /// The first session, and the reconnect that replays after it.
    sessions: [Session; 2],
    query: Query,
    /// Engine: next expected sequence.
    expected: u8,
    /// Engine: how many times each sequence number was applied.
    applied: [u8; MAX_FLOWS],
    /// Engine: fail-safe terminal state (after a caught panic).
    failed: bool,
    /// Engine: panics caught.
    panics: u8,
    /// Engine: some batch started below the expected sequence and ended
    /// above it, so it was applied in part.
    straddled: bool,
    /// Stop flag — the engine broke its loop and dropped the receiver.
    stopped: bool,
}

/// Model parameters for one exploration.
struct Model {
    cap: usize,
    flows: u8,
    /// Batch size of each session; the two grids need not align.
    batch: [u8; 2],
    /// Applying this sequence panics the engine (caught → fail-safe).
    poison: Option<u8>,
    /// Whether a second, replaying session runs.
    reconnect: bool,
    /// Whether a query client races a `SHUTDOWN` against ingest.
    shutdown: bool,
}

impl State {
    fn initial(m: &Model) -> State {
        assert!(usize::from(m.flows) <= MAX_FLOWS);
        State {
            queue: VecDeque::new(),
            hello_reply: None,
            query_reply: false,
            sessions: [
                Session::SendHello,
                if m.reconnect {
                    Session::Idle
                } else {
                    Session::Done
                },
            ],
            query: if m.shutdown { Query::Send } else { Query::Done },
            expected: 0,
            applied: [0; MAX_FLOWS],
            failed: false,
            panics: 0,
            straddled: false,
            stopped: false,
        }
    }

    fn all_done(&self) -> bool {
        self.sessions.iter().all(|&s| s == Session::Done) && self.query == Query::Done
    }

    /// Every state reachable in one atomic step of one thread.
    fn successors(&self, m: &Model) -> Vec<State> {
        let mut out = Vec::new();
        for i in 0..2 {
            self.session_steps(m, i, &mut out);
        }
        self.query_steps(m, &mut out);
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

    fn session_steps(&self, m: &Model, i: usize, out: &mut Vec<State>) {
        let set = |mut n: State, s: Session| {
            n.sessions[i] = s;
            n
        };
        match self.sessions[i] {
            Session::Idle => {
                // The reconnect opens once the first session has been
                // acked; its reader may still be forwarding batches.
                if matches!(self.sessions[0], Session::Send(_) | Session::Done) {
                    out.push(set(self.clone(), Session::SendHello));
                }
            }
            Session::SendHello => {
                if let Some((n, ok)) = self.try_send(m, Msg::Hello) {
                    // An error means the server is gone.
                    out.push(set(n, if ok { Session::AwaitAck } else { Session::Done }));
                }
            }
            Session::AwaitAck => {
                if let Some(ack) = self.hello_reply {
                    let mut n = set(self.clone(), Session::Send(ack));
                    n.hello_reply = None;
                    out.push(n);
                } else if self.stopped {
                    // Engine dropped the queued Hello (and with it the
                    // reply sender): recv errors, the session ends.
                    out.push(set(self.clone(), Session::Done));
                }
            }
            Session::Send(k) => {
                if k >= m.flows {
                    out.push(set(self.clone(), Session::Done));
                    return;
                }
                let len = m.batch[i].min(m.flows - k);
                if let Some((n, ok)) = self.try_send(m, Msg::Flows { first: k, len }) {
                    out.push(set(
                        n,
                        if ok {
                            Session::Send(k + len)
                        } else {
                            Session::Done
                        },
                    ));
                }
            }
            Session::Done => {}
        }
    }

    fn query_steps(&self, m: &Model, out: &mut Vec<State>) {
        match self.query {
            Query::Send => {
                if let Some((mut n, ok)) = self.try_send(m, Msg::Shutdown) {
                    // An error is the sender unblocked by shutdown.
                    n.query = if ok { Query::Await } else { Query::Done };
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

    /// `EngineState::apply_flows` at model granularity.
    fn apply(&mut self, m: &Model, first: u8, len: u8) {
        if self.failed || first > self.expected {
            // Fail-safe ignores everything; a batch that starts past the
            // expected sequence is out of protocol and skipped whole.
            return;
        }
        if first < self.expected && self.expected < first + len {
            self.straddled = true;
        }
        for seq in self.expected..first + len {
            if m.poison == Some(seq) && self.panics == 0 {
                // catch_unwind path: count, flip fail-safe, do NOT
                // advance the sequence, drop the rest of the batch.
                self.panics += 1;
                self.failed = true;
                return;
            }
            self.applied[usize::from(seq)] += 1;
            self.expected += 1;
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
                Msg::Flows { first, len } => n.apply(m, first, len),
                Msg::Shutdown => {
                    // Reply first, then stop: the querying client always
                    // hears `ok` (even in the fail-safe state).
                    n.query_reply = true;
                    n.stopped = true;
                }
            }
            out.push(n);
        } else if self.all_done() {
            // All senders dropped, queue drained: recv errors, loop ends.
            let mut n = self.clone();
            n.stopped = true;
            out.push(n);
        }
    }
}

/// DFS over every reachable interleaving; calls `check` on each terminal
/// state and panics on any stuck non-terminal state (deadlock). Returns
/// the terminal states.
fn explore(m: &Model, check: impl Fn(&State)) -> Vec<State> {
    let mut seen: HashSet<State> = HashSet::new();
    let mut stack = vec![State::initial(m)];
    let mut terminals = Vec::new();
    while let Some(st) = stack.pop() {
        if !seen.insert(st.clone()) {
            continue;
        }
        let next = st.successors(m);
        if next.is_empty() {
            assert!(
                st.all_done() && st.stopped,
                "deadlocked interleaving: no enabled step in {st:?}"
            );
            check(&st);
            terminals.push(st);
        } else {
            stack.extend(next);
        }
    }
    terminals
}

/// No sequence applied twice, and the applied ones are exactly the
/// prefix `0..expected`.
fn assert_in_order_once(st: &State) {
    for (seq, &n) in st.applied.iter().enumerate() {
        assert!(n <= 1, "seq {seq} applied {n} times in {st:?}");
    }
    for seq in 0..st.expected {
        assert_eq!(st.applied[usize::from(seq)], 1, "{st:?}");
    }
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
            batch: [2, 2],
            poison: None,
            reconnect: false,
            shutdown: true,
        };
        assert!(!explore(&m, assert_in_order_once).is_empty());
    }
}

/// A severed-and-replayed exporter session never double-applies a flow,
/// even when its stale ack makes it replay batches that straddle what the
/// first session's still-draining reader got applied: the engine applies
/// only the part of each batch at or past the expected sequence.
#[test]
fn reconnect_replay_is_exactly_once() {
    let m = Model {
        cap: 1,
        flows: 4,
        batch: [2, 3],
        poison: None,
        reconnect: true,
        shutdown: false,
    };
    let terminals = explore(&m, |st| {
        // No shutdown racing: every flow must land exactly once despite
        // the replay of the second session.
        assert_eq!(st.expected, m.flows, "lost flows in {st:?}");
        assert_in_order_once(st);
    });
    assert!(
        terminals.iter().any(|st| st.straddled),
        "no interleaving replayed a batch across the applied sequence"
    );
}

/// A caught engine panic in the middle of a batch flips the fail-safe
/// state: the flows before it stay applied, the poisoned flow's sequence
/// never advances (a restart re-requests it), the rest of its batch and
/// every later flow — replays included — are ignored, and a racing
/// `SHUTDOWN` is still answered.
#[test]
fn fail_safe_freezes_sequences_but_answers_queries() {
    let m = Model {
        cap: 1,
        flows: 4,
        batch: [3, 2],
        poison: Some(1),
        reconnect: true,
        shutdown: true,
    };
    let terminals = explore(&m, |st| {
        assert_in_order_once(st);
        if st.panics > 0 {
            assert!(st.failed, "{st:?}");
            // The panic hit seq 1, inside the batch 0..3: applied stops
            // at the prefix {0}, and nothing at or after the poisoned
            // sequence is ever applied.
            assert_eq!(st.expected, 1, "sequence advanced across a panic: {st:?}");
            assert_eq!(st.applied[1..], [0; MAX_FLOWS - 1], "{st:?}");
        }
        // Shutdown completed in every interleaving, failed or not
        // (enforced structurally: terminal requires query Done).
    });
    assert!(terminals.iter().any(|st| st.panics > 0));
}
