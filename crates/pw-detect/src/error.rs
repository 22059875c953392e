//! Typed error surface of the detection pipeline and the streaming engine.
//!
//! The original entry points swallowed degenerate situations silently (an
//! unresolvable percentile threshold produced an empty suspect set that was
//! indistinguishable from a clean bill of health). The `try_*` pipeline
//! entry points and [`DetectionEngine`](crate::stream::DetectionEngine)
//! surface them as values of [`Error`] instead.

use std::fmt;

use pw_netsim::SimTime;

/// A rejected pipeline or engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `cut_fraction` must lie strictly inside `(0, 1)`.
    CutFraction(f64),
    /// A percentile threshold must lie inside `[0, 100]`.
    Percentile {
        /// Which threshold was rejected (`"tau_vol"`, `"tau_churn"`, `"tau_hm"`).
        which: &'static str,
        /// The offending percentile.
        value: f64,
    },
    /// An absolute threshold must be finite.
    NonFiniteThreshold {
        /// Which threshold was rejected.
        which: &'static str,
    },
    /// Detection needs at least one worker thread.
    ZeroThreads,
    /// Detection may use at most
    /// [`MAX_THREADS`](crate::stream::MAX_THREADS) worker threads; the
    /// payload is the count asked for.
    TooManyThreads(usize),
    /// The engine's window length must be positive.
    ZeroWindow,
    /// The engine's slide must be positive.
    ZeroSlide,
    /// A slide longer than the window would leave gaps the detector never
    /// observes.
    SlideExceedsWindow,
    /// A flow may fall in at most
    /// [`MAX_WINDOWS_PER_FLOW`](crate::stream::MAX_WINDOWS_PER_FLOW)
    /// windows; the payload is `window / slide`, rounded up.
    TooManyWindowsPerFlow(u64),
    /// A memory cap of zero flows would shed everything.
    ZeroCapacity,
    /// A checkpoint interval of zero flows would checkpoint on every push.
    ZeroCheckpointInterval,
    /// An ingest queue of depth zero could never hand a flow to the engine.
    ZeroQueueDepth,
    /// The ingest queue's slots are allocated when the server binds, so
    /// its depth is capped.
    QueueTooDeep {
        /// The depth asked for, in flows.
        depth: usize,
        /// The largest depth accepted, in flows.
        cap: usize,
    },
    /// At most
    /// [`MAX_CHECKPOINT_RETAIN`](crate::checkpoint::MAX_CHECKPOINT_RETAIN)
    /// previous snapshots may be kept; the payload is the count asked for.
    TooManyRetained(usize),
    /// A zero I/O deadline would time every socket read out immediately.
    ZeroIoTimeout,
    /// The `θ_hm` mode was rejected; the payload says which constraint
    /// failed (e.g. a bucket target below 2 or a quantile count outside the
    /// certified range).
    ThetaHm(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::CutFraction(v) => {
                write!(f, "cut_fraction must be in (0, 1), got {v}")
            }
            ConfigError::Percentile { which, value } => {
                write!(f, "{which} percentile must be in [0, 100], got {value}")
            }
            ConfigError::NonFiniteThreshold { which } => {
                write!(f, "{which} absolute threshold must be finite")
            }
            ConfigError::ZeroThreads => f.write_str("thread count must be at least 1"),
            ConfigError::TooManyThreads(n) => write!(
                f,
                "thread count {n} exceeds the cap of {}",
                crate::stream::MAX_THREADS
            ),
            ConfigError::ZeroWindow => f.write_str("window length must be positive"),
            ConfigError::ZeroSlide => f.write_str("window slide must be positive"),
            ConfigError::SlideExceedsWindow => {
                f.write_str("slide must not exceed the window length (gaps in coverage)")
            }
            ConfigError::TooManyWindowsPerFlow(n) => write!(
                f,
                "window / slide ratio {n} exceeds the cap of {} windows per flow",
                crate::stream::MAX_WINDOWS_PER_FLOW
            ),
            ConfigError::ZeroCapacity => f.write_str("max_flows capacity must be at least 1 flow"),
            ConfigError::ZeroCheckpointInterval => {
                f.write_str("checkpoint interval must be at least 1 flow")
            }
            ConfigError::ZeroQueueDepth => f.write_str("ingest queue depth must be at least 1"),
            ConfigError::QueueTooDeep { depth, cap } => write!(
                f,
                "ingest queue depth {depth} exceeds the cap of {cap} flows"
            ),
            ConfigError::TooManyRetained(n) => write!(
                f,
                "{n} retained checkpoints exceed the cap of {}",
                crate::checkpoint::MAX_CHECKPOINT_RETAIN
            ),
            ConfigError::ZeroIoTimeout => {
                f.write_str("io timeout must be positive (omit it to disable deadlines)")
            }
            ConfigError::ThetaHm(reason) => write!(f, "theta_hm config: {reason}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything that can go wrong running the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Error {
    /// The configuration was rejected before any data was touched.
    Config(ConfigError),
    /// The window contained no profiled (border-active internal) hosts, so
    /// no verdict is possible. Distinct from "ran and found nothing".
    EmptyWindow,
    /// A percentile threshold met a population with no measurable hosts and
    /// could not be resolved.
    ThresholdUnresolvable {
        /// The stage whose threshold failed to resolve
        /// (`"theta_vol"` or `"theta_churn"`).
        stage: &'static str,
    },
    /// A flow arrived after its window had already been finalized — it
    /// started more than the configured lateness bound before the stream's
    /// watermark.
    LateFlow {
        /// Start time of the offending flow.
        start: SimTime,
        /// Earliest start time still accepted when it arrived.
        bound: SimTime,
    },
    /// A record failed semantic validation at ingest
    /// ([`EngineConfig::reject_invalid`](crate::stream::EngineConfig)) and
    /// was quarantined instead of skewing per-host features.
    InvalidRecord(pw_flow::RecordError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(e) => write!(f, "invalid configuration: {e}"),
            Error::EmptyWindow => f.write_str("window contains no profiled hosts"),
            Error::ThresholdUnresolvable { stage } => {
                write!(
                    f,
                    "{stage} threshold unresolvable: no measurable hosts in population"
                )
            }
            Error::LateFlow { start, bound } => {
                write!(
                    f,
                    "flow starting at {start} arrived after lateness bound {bound}"
                )
            }
            Error::InvalidRecord(e) => write!(f, "record quarantined: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Config(e) => Some(e),
            Error::InvalidRecord(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::from(ConfigError::CutFraction(1.5));
        assert!(e.to_string().contains("cut_fraction"));
        assert!(e.to_string().contains("1.5"));
        let e = Error::ThresholdUnresolvable { stage: "theta_vol" };
        assert!(e.to_string().contains("theta_vol"));
        let e = Error::LateFlow {
            start: SimTime::from_secs(10),
            bound: SimTime::from_secs(60),
        };
        assert!(e.to_string().contains("lateness"));
    }

    #[test]
    fn config_error_is_source() {
        use std::error::Error as _;
        let e = Error::from(ConfigError::ZeroThreads);
        assert!(e.source().is_some());
        assert!(Error::EmptyWindow.source().is_none());
    }
}
