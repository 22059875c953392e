//! The exporter side of the wire protocol: stream a flow list to a
//! running [`Server`](crate::Server), surviving disconnects, corruption,
//! and server restarts.
//!
//! [`send_flows`] is what `findplotters send` runs, and what the chaos
//! tests drive: a [`pw_chaos::ConnPlan`] injects connection-level faults
//! by severing the socket (no `Bye`) after seeded positions in the
//! stream, and the byte-level [`pw_chaos::ChaosProxy`] corrupts, cuts,
//! and stalls the stream underneath it. On every (re)connect the client
//! handshakes and obeys the server's acked `next_seq` *unconditionally*
//! — skipping forward past flows another life of this connection already
//! delivered, or rewinding backward when a restarted server lost its
//! tail to the last checkpoint. Either way the applied stream is
//! exactly-once.
//!
//! Two hardening layers sit on top:
//!
//! - **Final delivery confirmation**: the server answers `Bye` with an
//!   ack carrying its applied sequence. A server
//!   that severed on a corrupt frame just after the client's last write
//!   can no longer fool the client into reporting success — the missing
//!   ack (or a short one) surfaces as an error and, with retries on, a
//!   resume.
//! - **Retry with capped, seeded backoff** ([`RetryPolicy`]): transport
//!   errors reconnect after an exponential delay with deterministic
//!   jitter ([`pw_chaos::ChaosRng`]), the failure budget refills
//!   whenever the server's ack advances, and exhausting it surfaces as
//!   the typed [`ClientError::GaveUp`]. The default policy retries
//!   nothing, so errors stay loud unless resilience is asked for.

use std::io::{self, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

use pw_chaos::{ChaosRng, ConnPlan};
use pw_flow::frame::{self, Frame, FrameError, Hello, MAX_BATCH};
use pw_flow::FlowRecord;

/// Why the exporter gave up.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting or writing failed.
    Io(io::Error),
    /// The server's handshake or ack was malformed.
    Frame(FrameError),
    /// The server acked a sequence beyond the end of this exporter's
    /// stream — it has applied flows this client never had.
    AckBeyondEnd {
        /// The acked next sequence.
        next_seq: u64,
        /// Flows this client holds.
        have: usize,
    },
    /// The final ack after `Bye` shows the server applied less than the
    /// full stream: it accepted the `Bye` yet did not account for every
    /// flow (e.g. it entered its fail-safe state and is discarding).
    ShortDelivery {
        /// Flows the server acknowledged applying.
        applied: u64,
        /// Flows this client holds.
        have: usize,
    },
    /// The retry budget is exhausted; `last` is the error that ended it.
    GaveUp {
        /// Consecutive no-progress failures when the budget ran out.
        attempts: u32,
        /// The final underlying error.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "exporter connection: {e}"),
            ClientError::Frame(e) => write!(f, "exporter handshake: {e}"),
            ClientError::AckBeyondEnd { next_seq, have } => write!(
                f,
                "server expects sequence {next_seq} but this exporter only has {have} flows"
            ),
            ClientError::ShortDelivery { applied, have } => write!(
                f,
                "server acknowledged only {applied} of {have} flows and accepted the goodbye"
            ),
            ClientError::GaveUp { attempts, last } => {
                write!(f, "gave up after {attempts} failed attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            ClientError::GaveUp { last, .. } => Some(last),
            ClientError::AckBeyondEnd { .. } | ClientError::ShortDelivery { .. } => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// How hard [`send_flows`] fights transport failures.
///
/// The delay before retry *k* (counting consecutive failures without
/// server-visible progress) is `min(backoff_base · 2^(k-1), backoff_cap)`
/// plus a seeded jitter of up to half the delay — deterministic for a
/// fixed `seed`, so chaos tests reproduce exactly. Whenever a handshake
/// or final ack shows the server's applied sequence advanced, the
/// failure count resets: a lossy but live link is never abandoned while
/// it still makes progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive no-progress failures tolerated before giving up.
    /// Zero (the default) surfaces the first error unretried.
    pub attempts: u32,
    /// Delay before the first retry.
    pub backoff_base: Duration,
    /// Upper bound on the exponential delay.
    pub backoff_cap: Duration,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 0,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            seed: 0,
        }
    }
}

/// Knobs for [`send_flows`].
#[derive(Debug, Clone)]
pub struct SendOptions {
    /// Seeded connection-fault plan; [`ConnPlan::none`] streams in one
    /// unbroken connection.
    pub plan: ConnPlan,
    /// Reconnect/backoff policy for transport failures.
    pub retry: RetryPolicy,
}

impl Default for SendOptions {
    fn default() -> Self {
        SendOptions {
            plan: ConnPlan::none(),
            retry: RetryPolicy::default(),
        }
    }
}

/// What a completed send did, for logs and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendReport {
    /// Flows written, counting re-sends after reconnects.
    pub sent: u64,
    /// Flows skipped because a server ack showed them already applied.
    pub skipped: u64,
    /// Reconnects performed for injected cuts (the [`ConnPlan`]).
    pub reconnects: u64,
    /// Reconnects performed for transport failures, after backoff.
    pub retries: u64,
}

/// Mutable progress threaded through reconnect attempts.
#[derive(Default)]
struct SendState {
    report: SendReport,
    /// One past the highest sequence this client has written, for skip
    /// accounting across resumes.
    resume_from: usize,
    /// Highest applied sequence any server ack has shown. This — not
    /// `resume_from`, which advances client-side even when the server
    /// discards — is the progress signal that refills the retry budget.
    best_ack: u64,
    /// Consecutive failures without server-visible progress.
    failures: u32,
}

impl SendState {
    /// Folds a server ack in; an advance is progress and refills the
    /// retry budget.
    fn observe_ack(&mut self, next_seq: u64) {
        if next_seq > self.best_ack {
            self.best_ack = next_seq;
            self.failures = 0;
        }
    }
}

/// How one connection attempt ended (errors are returned, not encoded).
enum Attempt {
    /// `Bye` sent and delivery confirmed.
    Done,
    /// An injected [`ConnPlan`] cut fired; reconnect immediately without
    /// touching the failure budget.
    Cut,
}

/// Streams `flows` to the server at `addr` as exporter `exporter_id`,
/// sequencing from 0, honouring the fault plan and retry policy in
/// `opts`, and finishing with `Bye`. A successful return certifies the
/// server acknowledged applying the complete stream.
///
/// Flows go out in batches of up to [`MAX_BATCH`], one frame each,
/// encoded straight from `flows`. A batch also ends at every planned cut,
/// so a cut falls after the same flow as it would one flow per frame.
/// Only flows already in hand are coalesced: no timer holds a batch back.
///
/// # Errors
///
/// [`ClientError`] on socket failure, a malformed handshake, a server
/// ack past the end of the stream, a short final delivery, or — once a
/// nonzero retry budget is spent — [`ClientError::GaveUp`] wrapping the
/// last underlying error.
pub fn send_flows<A: ToSocketAddrs>(
    addr: A,
    exporter_id: u32,
    flows: &[FlowRecord],
    opts: &SendOptions,
) -> Result<SendReport, ClientError> {
    // Cut positions are consumed in order so a post-restart rewind does
    // not re-trigger a cut already taken.
    let mut cuts = opts.plan.cuts().iter().copied().peekable();
    let mut st = SendState::default();
    let mut rng = ChaosRng::new(opts.retry.seed ^ u64::from(exporter_id).rotate_left(32));
    loop {
        match attempt(&addr, exporter_id, flows, &mut cuts, &mut st) {
            Ok(Attempt::Done) => return Ok(st.report),
            Ok(Attempt::Cut) => {
                st.report.reconnects += 1;
            }
            // The server being ahead of the stream is a configuration
            // error (wrong exporter id, wrong file); no retry fixes it.
            Err(e @ ClientError::AckBeyondEnd { .. }) => return Err(e),
            Err(e) => {
                if st.failures >= opts.retry.attempts {
                    return Err(if opts.retry.attempts == 0 {
                        e
                    } else {
                        ClientError::GaveUp {
                            attempts: st.failures,
                            last: Box::new(e),
                        }
                    });
                }
                st.failures += 1;
                st.report.retries += 1;
                thread::sleep(backoff_delay(&opts.retry, st.failures - 1, &mut rng));
            }
        }
    }
}

/// The capped exponential delay with seeded jitter before retry
/// `failure_idx` (0-based).
fn backoff_delay(policy: &RetryPolicy, failure_idx: u32, rng: &mut ChaosRng) -> Duration {
    let base = policy.backoff_base.max(Duration::from_millis(1));
    // 2^16 · any sane base already dwarfs any cap; clamp the shift so
    // the multiply cannot overflow for pathological budgets.
    let delay = base
        .saturating_mul(1u32 << failure_idx.min(16))
        .min(policy.backoff_cap.max(base));
    let jitter_ms = rng.below((delay.as_millis() / 2).max(1) as usize) as u64;
    delay + Duration::from_millis(jitter_ms)
}

/// Buffered bytes between writes to the exporter socket: about two full
/// batches.
const WRITE_BUFFER: usize = 64 * 1024;

/// Where the batch starting at flow `k` ends: after at most [`MAX_BATCH`]
/// flows, at the end of the stream, and at the next planned cut, so cuts
/// land after the same flow whatever the batching.
fn batch_end(k: usize, len: usize, next_cut: Option<usize>) -> usize {
    let end = (k + MAX_BATCH).min(len);
    next_cut.map_or(end, |cut| end.min(cut))
}

/// One connection's worth of the protocol: connect, handshake, stream
/// from the acked sequence in batches, finish with a confirmed `Bye`.
fn attempt<A: ToSocketAddrs>(
    addr: &A,
    exporter_id: u32,
    flows: &[FlowRecord],
    cuts: &mut std::iter::Peekable<std::iter::Copied<std::slice::Iter<'_, usize>>>,
    st: &mut SendState,
) -> Result<Attempt, ClientError> {
    let stream = TcpStream::connect(addr)?;
    // The buffer below already coalesces frames into large writes; Nagle
    // would only hold back the short tail (a lone `Bye`) until the server
    // acknowledged the batches before it.
    stream.set_nodelay(true)?;
    let mut w = BufWriter::with_capacity(WRITE_BUFFER, stream);
    frame::write_hello(&mut w, Hello::new(exporter_id))?;
    w.flush()?;
    let ack = frame::read_hello_ack(w.get_mut())?;
    st.observe_ack(ack.next_seq);
    let next = usize::try_from(ack.next_seq).map_err(|_| ClientError::AckBeyondEnd {
        next_seq: ack.next_seq,
        have: flows.len(),
    })?;
    if next > flows.len() {
        return Err(ClientError::AckBeyondEnd {
            next_seq: ack.next_seq,
            have: flows.len(),
        });
    }
    st.report.skipped += next.saturating_sub(st.resume_from) as u64;
    // A forward skip can jump past a cut we never reached; drop such
    // stale positions or they would never fire and never be consumed.
    while cuts.peek().is_some_and(|&c| c <= next) {
        cuts.next();
    }
    let mut k = next;
    while k < flows.len() {
        let end = batch_end(k, flows.len(), cuts.peek().copied());
        frame::write_flows(&mut w, k as u64, &flows[k..end])?;
        st.report.sent += (end - k) as u64;
        st.resume_from = end;
        k = end;
        if cuts.peek() == Some(&end) {
            cuts.next();
            // Sever abruptly: no Bye, just a closed socket — the shape
            // of an exporter crash or a dropped link.
            w.flush()?;
            w.get_ref().shutdown(Shutdown::Both)?;
            return Ok(Attempt::Cut);
        }
    }
    frame::write_frame(&mut w, &Frame::Bye)?;
    w.flush()?;
    // Nothing follows the `Bye`. Half-closing says so: a server whose
    // read boundary a corrupted length prefix pushed past the end of the
    // stream meets end of input at once instead of waiting out its read
    // deadline for bytes that will never come.
    w.get_ref().shutdown(Shutdown::Write)?;
    // Delivery confirmation: a server that severed on a corrupt frame
    // closes without this ack, and a fail-safe server acks short — either
    // way success is never reported for an incompletely-applied stream.
    let fin = frame::read_hello_ack(w.get_mut())?;
    st.observe_ack(fin.next_seq);
    if u128::from(fin.next_seq) < flows.len() as u128 {
        return Err(ClientError::ShortDelivery {
            applied: fin.next_seq,
            have: flows.len(),
        });
    }
    Ok(Attempt::Done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_flow::frame::HelloAck;
    use pw_flow::{FlowState, Payload, Proto};
    use pw_netsim::SimTime;
    use std::net::{Ipv4Addr, TcpListener};

    fn flow(k: u64) -> FlowRecord {
        FlowRecord {
            start: SimTime::from_millis(1_000 * k),
            end: SimTime::from_millis(1_000 * k + 500),
            src: Ipv4Addr::new(10, 1, 0, 1),
            sport: 40_000,
            dst: Ipv4Addr::new(60, 0, 0, (k % 200) as u8 + 1),
            dport: 80,
            proto: Proto::Tcp,
            state: FlowState::Established,
            src_pkts: 1,
            src_bytes: 100 + k,
            dst_pkts: 1,
            dst_bytes: 64,
            payload: Payload::capture(&b"GET /"[..(k % 6) as usize]),
        }
    }

    /// A server that applies every flow it is sent, acks what it applied,
    /// and records each connection's frames until a `Bye`.
    fn recording_server(listener: TcpListener) -> thread::JoinHandle<Vec<Vec<Frame>>> {
        thread::spawn(move || {
            let mut sessions = Vec::new();
            let mut applied = 0;
            loop {
                let (mut s, _) = listener.accept().expect("accept");
                s.set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("read deadline");
                frame::read_hello(&mut s, &[]).expect("hello");
                frame::write_hello_ack(&mut s, HelloAck::new(applied)).expect("ack");
                let mut frames = Vec::new();
                while let Some(f) = frame::read_frame(&mut s).expect("frame") {
                    if let Frame::Flows { flows, .. } = &f {
                        applied += flows.len() as u64;
                    }
                    let bye = f == Frame::Bye;
                    frames.push(f);
                    if bye {
                        frame::write_hello_ack(&mut s, HelloAck::new(applied)).expect("final ack");
                        sessions.push(frames);
                        return sessions;
                    }
                }
                sessions.push(frames);
            }
        })
    }

    #[test]
    fn batches_end_at_every_cut() {
        let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping: cannot bind loopback sockets in this environment");
            return;
        };
        let addr = listener.local_addr().expect("local addr");
        let flows: Vec<FlowRecord> = (0..700).map(flow).collect();
        let plan = ConnPlan::new(7, flows.len(), 2);
        let cuts = plan.cuts().to_vec();
        let server = recording_server(listener);
        let opts = SendOptions {
            plan,
            ..SendOptions::default()
        };
        let report = send_flows(addr, 1, &flows, &opts).expect("send");
        let sessions = server.join().expect("server thread");
        assert_eq!(
            report,
            SendReport {
                sent: 700,
                skipped: 0,
                reconnects: 2,
                retries: 0
            }
        );

        // Each cut session stops right after its cut, and batches resume
        // at the acked flow.
        assert_eq!(sessions.len(), cuts.len() + 1);
        let mut at = 0;
        for (i, frames) in sessions.iter().enumerate() {
            for f in frames {
                match f {
                    Frame::Flows {
                        first_seq,
                        flows: batch,
                    } => {
                        assert_eq!(*first_seq, at as u64);
                        assert!((1..=MAX_BATCH).contains(&batch.len()));
                        assert_eq!(batch[..], flows[at..at + batch.len()]);
                        at += batch.len();
                    }
                    Frame::Bye => assert_eq!(i, cuts.len()),
                }
            }
            if let Some(&cut) = cuts.get(i) {
                assert_eq!(at, cut, "session {i} ran past its cut");
            }
        }
        assert_eq!(at, flows.len());
    }
}
