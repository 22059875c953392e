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
//!   exporter streams length-prefixed flow frames from there. Sequencing
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
//! thread that owns the [`DetectionEngine`](pw_detect::DetectionEngine).
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

use pw_detect::{ConfigError, EngineConfig};

pub use checkpoint::ServerCheckpoint;
pub use client::{send_flows, ClientError, RetryPolicy, SendOptions, SendReport};
pub use server::{Server, ServerError};

/// Validated configuration for a [`Server`].
///
/// Construct via [`ServerConfig::builder`] — the same validated-builder
/// idiom as [`EngineConfig`] and `FindPlottersConfig`, sharing their
/// [`ConfigError`] vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// The streaming engine this server fronts (window geometry, late
    /// policy, memory cap, detection thresholds).
    pub engine: EngineConfig,
    /// Where to persist [`ServerCheckpoint`]s; `None` disables
    /// checkpointing (a restart then starts empty).
    pub checkpoint_path: Option<PathBuf>,
    /// Applied flows between periodic checkpoints.
    pub checkpoint_every: u64,
    /// Previous snapshots kept behind the primary checkpoint as
    /// `<path>.1 … <path>.N`; restore falls back along this chain when
    /// the primary is torn or bit-flipped. Zero keeps only the primary.
    pub checkpoint_retain: usize,
    /// Bound on the ingest queue between connection threads and the
    /// engine thread — the backpressure knob.
    pub queue_depth: usize,
    /// Read/write deadline applied to every connection socket (exporter
    /// and query alike); a session idle past it is reaped and counted.
    /// `None` disables deadlines — a stalled peer then holds its
    /// connection thread forever.
    pub io_timeout: Option<Duration>,
}

impl ServerConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder::default()
    }

    /// Checks every knob, mirroring the engine's own validation.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroCheckpointInterval`] or
    /// [`ConfigError::ZeroQueueDepth`] for this type's own knobs, or any
    /// error from [`EngineConfig::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.engine.validate()?;
        if self.checkpoint_every == 0 {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        if self.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
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

/// Builder for [`ServerConfig`]; [`build`](Self::build) validates.
#[derive(Debug, Clone, Default)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Sets the streaming-engine configuration the server fronts.
    #[must_use]
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Enables checkpointing to `path`.
    #[must_use]
    pub fn checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.checkpoint_path = Some(path.into());
        self
    }

    /// Sets the number of applied flows between periodic checkpoints.
    #[must_use]
    pub fn checkpoint_every(mut self, flows: u64) -> Self {
        self.cfg.checkpoint_every = flows;
        self
    }

    /// Sets how many previous snapshots to retain for fallback recovery.
    #[must_use]
    pub fn checkpoint_retain(mut self, retain: usize) -> Self {
        self.cfg.checkpoint_retain = retain;
        self
    }

    /// Sets the bounded ingest-queue depth (backpressure).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.cfg.queue_depth = depth;
        self
    }

    /// Sets (or, with `None`, disables) the per-socket I/O deadline.
    #[must_use]
    pub fn io_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.cfg.io_timeout = timeout;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`ServerConfig::validate`].
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_server_knobs_with_shared_errors() {
        let ok = ServerConfig::builder()
            .checkpoint_every(100)
            .queue_depth(8)
            .build()
            .unwrap();
        assert_eq!(ok.checkpoint_every, 100);
        assert_eq!(ok.queue_depth, 8);
        assert!(ok.checkpoint_path.is_none());

        assert_eq!(
            ServerConfig::builder().checkpoint_every(0).build(),
            Err(ConfigError::ZeroCheckpointInterval)
        );
        assert_eq!(
            ServerConfig::builder().queue_depth(0).build(),
            Err(ConfigError::ZeroQueueDepth)
        );
        assert_eq!(
            ServerConfig::builder()
                .io_timeout(Some(Duration::ZERO))
                .build(),
            Err(ConfigError::ZeroIoTimeout)
        );
        assert!(ServerConfig::builder().io_timeout(None).build().is_ok());
        // Engine knobs are validated through the same path.
        let bad_engine = EngineConfig {
            threads: 0,
            ..EngineConfig::default()
        };
        assert_eq!(
            ServerConfig::builder().engine(bad_engine).build(),
            Err(ConfigError::ZeroThreads)
        );
    }
}
