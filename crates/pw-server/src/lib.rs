//! Detection as a service: a long-running, multi-exporter front end for
//! the streaming `pw-detect` engine.
//!
//! The paper's deployment model is a border monitor that watches flow
//! records continuously, not a batch job over a finished CSV. This crate
//! is that process. A [`Server`] listens on one TCP port and speaks two
//! protocols, told apart by the first four bytes of each connection:
//!
//! - **Exporters** (binary, [`pw_flow::frame`]): one connection per
//!   border exporter. The exporter handshakes with its stable id, the
//!   server acks the next flow sequence number it expects, and the
//!   exporter streams its flows from there in length-prefixed batches of
//!   up to [`MAX_BATCH`](pw_flow::frame::MAX_BATCH). Sequencing
//!   makes delivery *exactly-once* across any number of disconnects,
//!   reconnects, and even server restarts: flows below the acked
//!   sequence are already applied and are skipped, never re-pushed.
//! - **Query clients** (line-oriented text): `STATS`, `REPORT`,
//!   `FINISH`, `CHECKPOINT`, `SHUTDOWN` — see [`Server`] for the exact
//!   grammar. Replies are plain text with thresholds rendered as IEEE-754
//!   bit patterns, so a verdict can be compared bit-for-bit against a
//!   batch run.
//!
//! Ingest is funnelled through one bounded queue into a single engine
//! thread that owns the [`DetectionEngine`](pw_detect::DetectionEngine),
//! one message per decoded batch.
//! The queue depth ([`ServerConfig::queue_depth`]) is the backpressure
//! mechanism: when the engine falls behind, exporter threads block on the
//! queue, their sockets stop draining, and TCP pushes back to the border.
//! Memory stays bounded on the other side too — the engine's own
//! [`max_flows`](pw_detect::EngineConfig::max_flows) cap sheds (and
//! counts) flows rather than grow without limit, so a hostile or buggy
//! exporter can stall *itself* but cannot balloon the server.
//!
//! The server is **crash-only**: there is no fragile in-flight state to
//! flush on exit. Every [`ServerConfig::checkpoint_every`] applied flows
//! it atomically persists a [`ServerCheckpoint`] — the engine snapshot
//! *plus* every exporter's applied sequence, in one file — and a restart
//! (clean or `kill -9`) resumes from the last snapshot. Because the
//! sequence map and the engine state are captured atomically together,
//! flows applied after the final snapshot are both forgotten by the
//! revived engine *and* re-requested from the exporters: the replayed
//! run is byte-identical to one that never crashed.
//!
//! [`client`] implements the exporter side — used by `findplotters send`,
//! and by the chaos tests, which sever connections mid-stream on a seeded
//! [`pw_chaos::ConnPlan`] and assert nothing is lost or doubled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod client;
mod server;

use std::path::PathBuf;
use std::time::Duration;

use pw_detect::checkpoint::MAX_CHECKPOINT_RETAIN;
use pw_detect::{ConfigError, EngineConfig};

pub use checkpoint::ServerCheckpoint;
pub use client::{send_flows, ClientError, RetryPolicy, SendOptions, SendReport};
pub use server::{Server, ServerError};

/// The deepest ingest queue a [`ServerConfig`] accepts, in flows: 4,096
/// batch slots of [`MAX_BATCH`](pw_flow::frame::MAX_BATCH) flows, all of
/// which are allocated when the server binds.
pub const MAX_QUEUE_DEPTH: usize = 1 << 20;

/// Configuration for a [`Server`]: a struct literal over [`Default`],
/// checked by [`validate`](Self::validate), which shares [`EngineConfig`]'s
/// [`ConfigError`] vocabulary. [`Server::bind`] validates it too.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// The streaming engine this server fronts (window geometry,
    /// lateness, memory cap, detection thresholds).
    pub engine: EngineConfig,
    /// Where to persist [`ServerCheckpoint`]s; `None` disables
    /// checkpointing (a restart then starts empty).
    pub checkpoint_path: Option<PathBuf>,
    /// Applied flows between periodic checkpoints.
    pub checkpoint_every: u64,
    /// Previous snapshots kept behind the primary checkpoint as
    /// `<path>.1 … <path>.N`; restore falls back along this chain when
    /// the primary is torn or bit-flipped. Zero keeps only the primary;
    /// at most [`MAX_CHECKPOINT_RETAIN`].
    pub checkpoint_retain: usize,
    /// Bound on the ingest queue between connection threads and the
    /// engine thread — the backpressure knob. It counts flows, rounded up
    /// to whole batches: the queue holds
    /// `queue_depth.div_ceil(MAX_BATCH)` batch messages of up to
    /// [`MAX_BATCH`](pw_flow::frame::MAX_BATCH) flows each, so the
    /// default of 1,024 holds four, and the flows queued (and the memory
    /// they take) stay bounded by the depth asked for. At most
    /// [`MAX_QUEUE_DEPTH`].
    pub queue_depth: usize,
    /// Read/write deadline applied to every connection socket (exporter
    /// and query alike); a session idle past it is reaped and counted.
    /// `None` disables deadlines — a stalled peer then holds its
    /// connection thread forever.
    pub io_timeout: Option<Duration>,
}

impl ServerConfig {
    /// Checks every knob, mirroring the engine's own validation.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroCheckpointInterval`],
    /// [`ConfigError::TooManyRetained`], [`ConfigError::ZeroQueueDepth`],
    /// [`ConfigError::QueueTooDeep`] or [`ConfigError::ZeroIoTimeout`] for
    /// this type's own knobs, or any error from [`EngineConfig::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.engine.validate()?;
        if self.checkpoint_every == 0 {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        if self.checkpoint_retain > MAX_CHECKPOINT_RETAIN {
            return Err(ConfigError::TooManyRetained(self.checkpoint_retain));
        }
        if self.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if self.queue_depth > MAX_QUEUE_DEPTH {
            return Err(ConfigError::QueueTooDeep {
                depth: self.queue_depth,
                cap: MAX_QUEUE_DEPTH,
            });
        }
        if self.io_timeout == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroIoTimeout);
        }
        Ok(())
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            checkpoint_path: None,
            checkpoint_every: 10_000,
            checkpoint_retain: 2,
            queue_depth: 1_024,
            io_timeout: Some(Duration::from_secs(30)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_checks_server_knobs_with_shared_errors() {
        let ok = ServerConfig::default();
        let cfg = ServerConfig {
            checkpoint_every: 100,
            queue_depth: 8,
            ..ok.clone()
        };
        assert_eq!(cfg.validate(), Ok(()));
        assert!(cfg.checkpoint_path.is_none());

        let refused = |cfg: ServerConfig| cfg.validate().unwrap_err();
        assert_eq!(
            refused(ServerConfig {
                checkpoint_every: 0,
                ..ok.clone()
            }),
            ConfigError::ZeroCheckpointInterval
        );
        assert_eq!(
            refused(ServerConfig {
                queue_depth: 0,
                ..ok.clone()
            }),
            ConfigError::ZeroQueueDepth
        );
        assert_eq!(
            refused(ServerConfig {
                io_timeout: Some(Duration::ZERO),
                ..ok.clone()
            }),
            ConfigError::ZeroIoTimeout
        );
        let no_deadline = ServerConfig {
            io_timeout: None,
            ..ok.clone()
        };
        assert_eq!(no_deadline.validate(), Ok(()));
        // Engine knobs are validated through the same path.
        let bad_engine = EngineConfig {
            threads: 0,
            ..EngineConfig::default()
        };
        assert_eq!(
            refused(ServerConfig {
                engine: bad_engine,
                ..ok
            }),
            ConfigError::ZeroThreads
        );
    }

    #[test]
    fn validate_caps_retained_checkpoints_and_queue_depth() {
        // Both caps admit their bound and refuse one past it. Validating
        // allocates nothing; only binding allocates the queue.
        let ok = ServerConfig::default();
        let at_caps = ServerConfig {
            checkpoint_retain: MAX_CHECKPOINT_RETAIN,
            queue_depth: MAX_QUEUE_DEPTH,
            ..ok.clone()
        };
        assert_eq!(at_caps.validate(), Ok(()));
        let refused = |cfg: ServerConfig| cfg.validate().unwrap_err();
        assert_eq!(
            refused(ServerConfig {
                checkpoint_retain: MAX_CHECKPOINT_RETAIN + 1,
                ..ok.clone()
            }),
            ConfigError::TooManyRetained(MAX_CHECKPOINT_RETAIN + 1)
        );
        assert_eq!(
            refused(ServerConfig {
                queue_depth: usize::MAX,
                ..ok.clone()
            }),
            ConfigError::QueueTooDeep {
                depth: usize::MAX,
                cap: MAX_QUEUE_DEPTH
            }
        );
        assert_eq!(
            refused(ServerConfig {
                queue_depth: MAX_QUEUE_DEPTH + 1,
                ..ok
            }),
            ConfigError::QueueTooDeep {
                depth: MAX_QUEUE_DEPTH + 1,
                cap: MAX_QUEUE_DEPTH
            }
        );
    }
}
