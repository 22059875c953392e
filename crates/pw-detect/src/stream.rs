//! Streaming windowed detection: run `FindPlotters` continuously over a
//! live flow feed instead of a stored day of traffic.
//!
//! [`DetectionEngine`] accepts [`FlowRecord`]s incrementally — e.g. from
//! [`pw_flow::ArgusAggregator::drain_completed`], which emits flows in
//! *completion* order — reorders them within a configurable lateness bound,
//! assigns them to tumbling or sliding windows, and emits a
//! [`WindowReport`] (wrapping a [`PlotterReport`]) whenever a window's
//! watermark passes. Profile extraction and the per-window threshold tests
//! shard over hosts with `std::thread::scope`, so a multi-core monitor
//! keeps up with line rate; any `threads` setting produces byte-identical
//! verdicts. Each window's `θ_hm` runs on the same scaled kernel as batch
//! detection — per-host [`pw_analysis::CdfRepr`] digests feeding the
//! alloc-free `emd_cdf` pairwise sweep and O(n²) NN-chain clustering (see
//! DESIGN.md "θ_hm at scale") — so wide windows over large host
//! populations close without a quadratic allocation spike.
//!
//! One streaming window covering a whole trace reproduces the batch
//! [`try_find_plotters_table_tier`](crate::pipeline::try_find_plotters_table_tier)
//! output exactly — the equivalence the integration suite pins down.
//!
//! # Degraded modes
//!
//! Real border feeds stall, reorder, duplicate, and corrupt records. The
//! engine survives all of it without panicking, and accounts for every
//! record it could not process normally:
//!
//! - **Late flows** — [`LatePolicy`] chooses between rejecting them as a
//!   typed error (default), dropping them with a counter, or extending
//!   them into a still-open window so their data is not lost.
//! - **Bounded memory** — [`EngineConfig::max_flows`] caps the flows held
//!   across the reorder buffer and open windows, counted once per window
//!   that holds them; at the cap, incoming flows are shed deterministically
//!   (newest first), counted, and still advance the watermark so windows
//!   keep closing and memory drains.
//! - **Watermark stalls** — with [`EngineConfig::stall_timeout`] set,
//!   [`tick`](DetectionEngine::tick) force-closes every open window once
//!   the watermark has not advanced for the timeout, so a dead feed
//!   cannot hold verdicts (and their memory) hostage forever.
//! - **Duplicates and corrupt records** —
//!   [`EngineConfig::dedupe`] suppresses exact duplicate rows per window,
//!   [`EngineConfig::reject_invalid`] quarantines semantically impossible
//!   records at ingest; both are counted per window and cumulatively.
//!
//! Everything above is deterministic: the same input sequence produces the
//! same verdicts and the same counters, which is what makes the
//! checkpoint/restore path ([`crate::checkpoint`]) byte-identical.
//!
//! # Storage
//!
//! Each accepted flow is stored once. The reorder buffer holds it until
//! the watermark passes its lateness bound; it then moves to one shared
//! log, kept in canonical order. Window `k` is the log range of flows
//! starting in `[k·slide, k·slide + window)`, found by binary search, plus
//! the late flows [`LatePolicy::ExtendOldest`] appended to it. A close
//! builds no [`FlowTable`](pw_flow::FlowTable): it profiles that range in
//! place, merged in canonical order with the sorted extras, in one walk
//! sharded over hosts (see [`crate::features`]), and the log prefix older
//! than every open window is then dropped. Sliding windows therefore
//! share their flows instead of copying them once per window.
//!
//! # Examples
//!
//! ```
//! use pw_detect::stream::{DetectionEngine, EngineConfig};
//! use pw_netsim::SimDuration;
//!
//! let cfg = EngineConfig {
//!     window: SimDuration::from_hours(1),
//!     slide: SimDuration::from_hours(1),
//!     ..Default::default()
//! };
//! let mut engine = DetectionEngine::new(cfg, |ip: std::net::Ipv4Addr| {
//!     ip.octets()[0] == 10
//! })
//! .unwrap();
//! // for flow in feed { for w in engine.push(flow)? { … } }
//! let reports = engine.finish();
//! assert!(reports.is_empty()); // nothing was pushed
//! ```

use std::collections::{vec_deque, BTreeMap, VecDeque};
use std::iter::Peekable;
use std::net::Ipv4Addr;
use std::ops::{Range, RangeInclusive};
use std::slice;

use pw_flow::{ArgusAggregator, FlowRecord};
use pw_netsim::{SimDuration, SimTime};

use crate::error::{ConfigError, Error};
use crate::features::{profile_records, ProfileTable, ProfileTier};
use crate::pipeline::{
    check_threads, try_find_plotters_from_table, FindPlottersConfig, PlotterReport,
};

/// When a window closes, which profiled hosts still take part in the
/// verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Every host that produced a border flow inside the window is scored;
    /// state is dropped wholesale when the window closes.
    #[default]
    WindowScoped,
    /// Hosts silent for longer than the given duration before the window's
    /// end are evicted before the threshold tests run (keeps a long window
    /// from scoring hosts that left the network hours ago).
    IdleLongerThan(SimDuration),
}

/// What happens to a flow that arrives after its lateness bound — its
/// window may already be closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatePolicy {
    /// [`DetectionEngine::push`] returns [`Error::LateFlow`]; the caller
    /// decides. This is the strict default.
    #[default]
    Reject,
    /// The flow is dropped and counted ([`EngineStats::late_dropped`],
    /// [`WindowReport::dropped`]); `push` returns `Ok`.
    Drop,
    /// The flow is appended to the still-open windows covering its start,
    /// or to the oldest open window if none do, so its bytes still inform
    /// a verdict; dropped (and counted) only when no window is open.
    ExtendOldest,
}

/// Configuration of a [`DetectionEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Window length. Equal `window` and `slide` gives tumbling windows;
    /// `slide < window` gives overlapping sliding windows.
    pub window: SimDuration,
    /// Interval between window starts.
    pub slide: SimDuration,
    /// How far behind the watermark (maximum flow start seen) a flow may
    /// start and still be accepted. Feeds that deliver flows in completion
    /// order — like [`ArgusAggregator`] — need at least the aggregator's
    /// idle timeout plus the longest expected flow duration.
    pub lateness: SimDuration,
    /// Worker threads for per-window profile extraction and threshold
    /// tests, from 1 to [`MAX_THREADS`]. Any value produces identical
    /// output.
    pub threads: usize,
    /// Host participation rule at window close.
    pub eviction: EvictionPolicy,
    /// What to do with flows older than the lateness bound.
    pub late_policy: LatePolicy,
    /// Upper bound on flows held (reorder buffer plus open windows). A
    /// flow counts once for each open window it belongs to, although it is
    /// stored once, so the cap means the same for any storage layout.
    /// `None` is unbounded; at the cap, incoming flows are shed
    /// deterministically and counted as [`EngineStats::shed`].
    pub max_flows: Option<usize>,
    /// If the watermark does not advance for this long (measured on the
    /// feed clock passed to [`DetectionEngine::tick`]), every open window
    /// is force-closed. `None` waits forever.
    pub stall_timeout: Option<SimDuration>,
    /// Suppress exact duplicate rows inside each window before scoring
    /// (duplicates are counted either way). Off by default, which keeps
    /// streaming byte-identical to the batch path even on feeds that
    /// legitimately repeat records.
    pub dedupe: bool,
    /// Quarantine records that fail [`FlowRecord::validate`] at ingest
    /// (`push` returns [`Error::InvalidRecord`] and counts them) instead
    /// of letting corrupt values skew per-host features.
    pub reject_invalid: bool,
    /// Profile representation per host: exact (unbounded memory, the
    /// historical behaviour) or sketched (fixed bytes-per-host cap via
    /// `pw-sketch`, identical verdicts on small hosts).
    pub tier: ProfileTier,
    /// The detection pipeline run on each window.
    pub detect: FindPlottersConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            window: SimDuration::from_hours(24),
            slide: SimDuration::from_hours(24),
            lateness: SimDuration::from_mins(10),
            threads: 1,
            eviction: EvictionPolicy::default(),
            late_policy: LatePolicy::default(),
            max_flows: None,
            stall_timeout: None,
            dedupe: false,
            reject_invalid: false,
            tier: ProfileTier::default(),
            detect: FindPlottersConfig::default(),
        }
    }
}

/// Most worker threads an engine may use. A window close spawns this many
/// scoped threads at most, so a configuration read back from a checkpoint
/// cannot ask for an unbounded number.
pub const MAX_THREADS: usize = 1024;

impl EngineConfig {
    /// Starts a validated builder seeded with the defaults — the same
    /// builder idiom as [`FindPlottersConfig::builder`].
    ///
    /// # Examples
    ///
    /// ```
    /// use pw_detect::stream::EngineConfig;
    /// use pw_netsim::SimDuration;
    ///
    /// let cfg = EngineConfig::builder()
    ///     .window(SimDuration::from_hours(1))
    ///     .slide(SimDuration::from_hours(1))
    ///     .threads(4)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.threads, 4);
    /// assert!(EngineConfig::builder().threads(0).build().is_err());
    /// ```
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Checks every knob, including the embedded detection config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window == SimDuration::ZERO {
            return Err(ConfigError::ZeroWindow);
        }
        if self.slide == SimDuration::ZERO {
            return Err(ConfigError::ZeroSlide);
        }
        if self.slide > self.window {
            return Err(ConfigError::SlideExceedsWindow);
        }
        check_threads(self.threads)?;
        if self.max_flows == Some(0) {
            return Err(ConfigError::ZeroCapacity);
        }
        if self.stall_timeout == Some(SimDuration::ZERO) {
            return Err(ConfigError::ZeroStallTimeout);
        }
        self.detect.validate()
    }
}

/// Builder for [`EngineConfig`] whose [`build`](Self::build) rejects
/// out-of-range knobs — the same validated-builder idiom as
/// [`crate::pipeline::FindPlottersConfigBuilder`], sharing its typed
/// [`ConfigError`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets the window length.
    pub fn window(mut self, d: SimDuration) -> Self {
        self.cfg.window = d;
        self
    }

    /// Sets the interval between window starts.
    pub fn slide(mut self, d: SimDuration) -> Self {
        self.cfg.slide = d;
        self
    }

    /// Sets the lateness bound of the reorder buffer.
    pub fn lateness(mut self, d: SimDuration) -> Self {
        self.cfg.lateness = d;
        self
    }

    /// Sets the worker thread count for window-close detection.
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n;
        self
    }

    /// Sets the host participation rule at window close.
    pub fn eviction(mut self, policy: EvictionPolicy) -> Self {
        self.cfg.eviction = policy;
        self
    }

    /// Sets the policy for flows older than the lateness bound.
    pub fn late_policy(mut self, policy: LatePolicy) -> Self {
        self.cfg.late_policy = policy;
        self
    }

    /// Caps the flows held in memory (`None` is unbounded).
    pub fn max_flows(mut self, cap: Option<usize>) -> Self {
        self.cfg.max_flows = cap;
        self
    }

    /// Sets the watermark stall timeout (`None` waits forever).
    pub fn stall_timeout(mut self, timeout: Option<SimDuration>) -> Self {
        self.cfg.stall_timeout = timeout;
        self
    }

    /// Toggles per-window exact-duplicate suppression.
    pub fn dedupe(mut self, on: bool) -> Self {
        self.cfg.dedupe = on;
        self
    }

    /// Toggles ingest-time quarantine of semantically invalid records.
    pub fn reject_invalid(mut self, on: bool) -> Self {
        self.cfg.reject_invalid = on;
        self
    }

    /// Sets the per-host profile representation tier.
    pub fn tier(mut self, tier: ProfileTier) -> Self {
        self.cfg.tier = tier;
        self
    }

    /// Sets the detection pipeline run on each window.
    pub fn detect(mut self, cfg: FindPlottersConfig) -> Self {
        self.cfg.detect = cfg;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Cumulative ingest accounting. Every flow ever offered to
/// [`DetectionEngine::push`] lands in exactly one of: accepted, shed,
/// quarantined, or late-with-outcome — so
/// `attempted == accepted + shed + quarantined + late` always holds, and
/// nothing is ever lost silently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Calls to `push` (including rejected and shed flows).
    pub attempted: u64,
    /// Flows accepted into the reorder buffer.
    pub accepted: u64,
    /// Flows that arrived below the lateness bound (whatever then happened
    /// to them under the [`LatePolicy`]).
    pub late: u64,
    /// Late flows dropped (under [`LatePolicy::Drop`], under
    /// [`LatePolicy::ExtendOldest`] with no open window, or rejected back
    /// to the caller under [`LatePolicy::Reject`]).
    pub late_dropped: u64,
    /// Late flows absorbed into a still-open window.
    pub late_extended: u64,
    /// Flows shed by the [`EngineConfig::max_flows`] memory cap.
    pub shed: u64,
    /// Records quarantined by [`EngineConfig::reject_invalid`].
    pub quarantined: u64,
    /// Exact duplicate rows observed inside closed windows.
    pub duplicates: u64,
    /// Stall flushes performed by [`DetectionEngine::tick`].
    pub stall_flushes: u64,
    /// Estimated bytes held by the profiles of the most recently closed
    /// window (heap plus inline, summed over hosts).
    pub profile_bytes: u64,
    /// Exact-tier profiles in the most recently closed window.
    pub profiles_exact: u64,
    /// Sketched-tier profiles in the most recently closed window.
    pub profiles_sketched: u64,
}

/// The verdict for one closed window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Window sequence number (`index * slide` is the window start).
    pub index: u64,
    /// Inclusive start of the window.
    pub start: SimTime,
    /// Exclusive end of the window.
    pub end: SimTime,
    /// Border and non-border flows assigned to the window (after
    /// deduplication, when enabled).
    pub flows: usize,
    /// Hosts profiled inside the window (before eviction).
    pub hosts: usize,
    /// Hosts removed by the [`EvictionPolicy`] before scoring.
    pub evicted: usize,
    /// Late flows observed since the previous report was emitted (each
    /// late flow is reported exactly once, on the next window to close).
    pub late: u64,
    /// Flows dropped — late-dropped plus shed — since the previous report.
    pub dropped: u64,
    /// Records quarantined at ingest since the previous report.
    pub quarantined: u64,
    /// Exact duplicate rows inside this window (suppressed before scoring
    /// iff [`EngineConfig::dedupe`] is set).
    pub duplicates: u64,
    /// Whether this window was force-closed by a stall flush or
    /// [`finish`](DetectionEngine::finish) rather than by the watermark
    /// passing its end.
    pub forced: bool,
    /// The pipeline's verdict, or why no verdict was possible
    /// ([`Error::EmptyWindow`], [`Error::ThresholdUnresolvable`]).
    pub outcome: Result<PlotterReport, Error>,
}

/// Reorder-buffer key: the canonical flow processing order, so draining the
/// buffer replays flows exactly as the batch path would sort them.
pub(crate) type BufferKey = (SimTime, Ipv4Addr, Ipv4Addr, u16, u16);

pub(crate) fn buffer_key(f: &FlowRecord) -> BufferKey {
    (f.start, f.src, f.dst, f.sport, f.dport)
}

/// Indices of the windows (`window` long, one starting every `slide`)
/// whose span covers instant `t`. `slide` must be positive.
pub(crate) fn covering(t: SimTime, window: SimDuration, slide: SimDuration) -> RangeInclusive<u64> {
    let t = t.as_millis();
    let window_ms = window.as_millis();
    let slide_ms = slide.as_millis();
    let k_max = t / slide_ms;
    let k_min = if t < window_ms {
        0
    } else {
        (t - window_ms) / slide_ms + 1
    };
    k_min..=k_max
}

/// A window's rows in canonical order: its log range merged with its
/// extras, which must be sorted by [`buffer_key`]. Log rows come first on
/// equal keys, so the merge is a stable sort of the range followed by the
/// extras.
#[derive(Clone)]
struct WindowRows<'a> {
    log: Peekable<vec_deque::Iter<'a, FlowRecord>>,
    extras: Peekable<slice::Iter<'a, FlowRecord>>,
}

impl<'a> Iterator for WindowRows<'a> {
    type Item = &'a FlowRecord;

    fn next(&mut self) -> Option<&'a FlowRecord> {
        match (self.log.peek(), self.extras.peek()) {
            (Some(l), Some(e)) if buffer_key(e) < buffer_key(l) => self.extras.next(),
            (Some(_), _) => self.log.next(),
            (None, _) => self.extras.next(),
        }
    }
}

/// Streaming windowed `FindPlotters`.
///
/// Feed flows with [`push`](Self::push) (or drain an aggregator with
/// [`drain_aggregator`](Self::drain_aggregator)); closed windows come back
/// as [`WindowReport`]s. Call [`finish`](Self::finish) at end of input to
/// flush windows the watermark never passed. Long-running deployments
/// snapshot the engine with [`checkpoint`](Self::checkpoint) and revive it
/// with [`restore`](Self::restore) — see [`crate::checkpoint`].
#[derive(Debug)]
pub struct DetectionEngine<F> {
    cfg: EngineConfig,
    is_internal: F,
    /// Bounded-lateness reorder buffer: flows not yet applied to windows,
    /// keyed by canonical order and then by arrival, so flows with equal
    /// keys drain in the order they arrived.
    buffer: BTreeMap<(BufferKey, u64), FlowRecord>,
    /// Arrival number of the next buffered flow.
    arrivals: u64,
    /// Every applied flow of the open windows, once, in buffer-key order:
    /// the buffer drains in ascending key order and `applied_to` only
    /// moves forward, so applied flows append at the back. Window `k`
    /// reads [`log_range`](Self::log_range)`(k)`.
    log: VecDeque<FlowRecord>,
    /// Open windows by index, each with its extras: the late flows
    /// [`LatePolicy::ExtendOldest`] appended to it, outside the log (the
    /// canonical re-sort at close puts them in place).
    open: BTreeMap<u64, Vec<FlowRecord>>,
    /// Maximum flow start seen. Never decreases.
    watermark: SimTime,
    /// Flows starting before this instant have been applied to windows;
    /// a flow arriving below it is late.
    applied_to: SimTime,
    /// Cumulative accounting.
    stats: EngineStats,
    /// Deltas since the last emitted report, attributed to the next window
    /// to close.
    window_late: u64,
    window_dropped: u64,
    window_quarantined: u64,
    /// Flows currently held: the buffer, plus each open window's log range
    /// and extras (a flow in two windows counts twice). The quantity
    /// [`EngineConfig::max_flows`] bounds.
    held: usize,
    /// Watermark value at the last stall check.
    stall_watermark: SimTime,
    /// Feed-clock instant of the last observed watermark advance.
    stall_progress_at: Option<SimTime>,
}

impl<F: Fn(Ipv4Addr) -> bool + Sync> DetectionEngine<F> {
    /// Creates an engine after validating `cfg`; `is_internal` identifies
    /// monitored addresses.
    pub fn new(cfg: EngineConfig, is_internal: F) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            is_internal,
            buffer: BTreeMap::new(),
            arrivals: 0,
            log: VecDeque::new(),
            open: BTreeMap::new(),
            watermark: SimTime::ZERO,
            applied_to: SimTime::ZERO,
            stats: EngineStats::default(),
            window_late: 0,
            window_dropped: 0,
            window_quarantined: 0,
            held: 0,
            stall_watermark: SimTime::ZERO,
            stall_progress_at: None,
        })
    }

    /// Revives an engine from a [`checkpoint`](Self::checkpoint) snapshot.
    ///
    /// The configuration is taken from the snapshot, so a resumed engine
    /// continues byte-identically to the run that was interrupted.
    /// `is_internal` cannot be serialized — the caller must supply the
    /// same predicate the checkpointed engine used.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the snapshot carries an invalid configuration
    /// (possible only if it was hand-edited).
    pub fn restore(
        snapshot: &crate::checkpoint::EngineCheckpoint,
        is_internal: F,
    ) -> Result<Self, ConfigError> {
        let mut engine = Self::new(snapshot.config, is_internal)?;
        for f in &snapshot.buffer {
            engine.buffer_flow(*f);
        }
        for f in &snapshot.log {
            engine.log_flow(*f);
        }
        engine.open = snapshot.open.iter().cloned().collect();
        engine.held = engine.buffer.len()
            + engine
                .open
                .iter()
                .map(|(&k, extras)| engine.log_range(k).len() + extras.len())
                .sum::<usize>();
        engine.watermark = snapshot.watermark;
        engine.applied_to = snapshot.applied_to;
        engine.stats = snapshot.stats;
        engine.window_late = snapshot.window_late;
        engine.window_dropped = snapshot.window_dropped;
        engine.window_quarantined = snapshot.window_quarantined;
        engine.stall_watermark = snapshot.stall_watermark;
        engine.stall_progress_at = snapshot.stall_progress_at;
        Ok(engine)
    }

    /// Snapshots the engine's complete state — watermark, reorder buffer,
    /// open windows, counters, configuration — for later
    /// [`restore`](Self::restore). See [`crate::checkpoint`] for the
    /// serialized form and atomic on-disk persistence.
    pub fn checkpoint(&self) -> crate::checkpoint::EngineCheckpoint {
        crate::checkpoint::EngineCheckpoint {
            config: self.cfg,
            watermark: self.watermark,
            applied_to: self.applied_to,
            stats: self.stats,
            window_late: self.window_late,
            window_dropped: self.window_dropped,
            window_quarantined: self.window_quarantined,
            stall_watermark: self.stall_watermark,
            stall_progress_at: self.stall_progress_at,
            buffer: self.buffer.values().copied().collect(),
            log: self.log.iter().copied().collect(),
            open: self
                .open
                .iter()
                .map(|(&k, extras)| (k, extras.clone()))
                .collect(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Maximum flow start observed so far (monotone).
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Cumulative ingest accounting.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Flows waiting in the reorder buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Windows currently open (flows assigned, watermark not yet past).
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Flows currently held (reorder buffer plus open windows) — the
    /// quantity [`EngineConfig::max_flows`] bounds. A flow counts once for
    /// each open window it belongs to, although the engine stores it once.
    pub fn held_flows(&self) -> usize {
        self.held
    }

    /// Feeds one flow; returns reports for every window the advancing
    /// watermark closed.
    ///
    /// # Errors
    ///
    /// - [`Error::LateFlow`] under [`LatePolicy::Reject`] if the flow
    ///   starts before the lateness bound — its window may already be
    ///   closed, so it is dropped rather than silently skewing a later
    ///   window. Other policies absorb the flow and return `Ok`.
    /// - [`Error::InvalidRecord`] if [`EngineConfig::reject_invalid`] is
    ///   set and the record fails [`FlowRecord::validate`].
    ///
    /// Either way the engine remains usable; errors are per-flow, counted,
    /// and never poison the stream.
    pub fn push(&mut self, f: FlowRecord) -> Result<Vec<WindowReport>, Error> {
        self.stats.attempted += 1;
        if self.cfg.reject_invalid {
            if let Err(e) = f.validate() {
                self.stats.quarantined += 1;
                self.window_quarantined += 1;
                return Err(Error::InvalidRecord(e));
            }
        }
        if f.start < self.applied_to {
            return self.absorb_late(f);
        }
        self.watermark = self.watermark.max(f.start);
        let cutoff = SimTime::from_millis(
            self.watermark
                .as_millis()
                .saturating_sub(self.cfg.lateness.as_millis()),
        );
        let reports = self.advance_to(cutoff);
        if let Some(cap) = self.cfg.max_flows {
            if self.held >= cap {
                // Shed the newest flow, but keep the watermark advance it
                // carried: windows keep closing, so memory drains.
                self.stats.shed += 1;
                self.window_dropped += 1;
                return Ok(reports);
            }
        }
        self.stats.accepted += 1;
        self.buffer_flow(f);
        self.held += 1;
        Ok(reports)
    }

    /// Queues `f` in the reorder buffer behind every flow with its key.
    fn buffer_flow(&mut self, f: FlowRecord) {
        self.buffer.insert((buffer_key(&f), self.arrivals), f);
        self.arrivals += 1;
    }

    /// Applies the configured [`LatePolicy`] to a flow below the bound.
    fn absorb_late(&mut self, f: FlowRecord) -> Result<Vec<WindowReport>, Error> {
        self.stats.late += 1;
        self.window_late += 1;
        match self.cfg.late_policy {
            LatePolicy::Reject => {
                self.stats.late_dropped += 1;
                self.window_dropped += 1;
                Err(Error::LateFlow {
                    start: f.start,
                    bound: self.applied_to,
                })
            }
            LatePolicy::Drop => {
                self.stats.late_dropped += 1;
                self.window_dropped += 1;
                Ok(Vec::new())
            }
            LatePolicy::ExtendOldest => {
                let mut placed = 0usize;
                for k in self.covering(f.start) {
                    if let Some(extras) = self.open.get_mut(&k) {
                        extras.push(f);
                        placed += 1;
                    }
                }
                if placed == 0 {
                    if let Some(extras) = self.open.values_mut().next() {
                        extras.push(f);
                        placed = 1;
                    }
                }
                if placed == 0 {
                    self.stats.late_dropped += 1;
                    self.window_dropped += 1;
                } else {
                    self.stats.late_extended += 1;
                    self.held += placed;
                }
                Ok(Vec::new())
            }
        }
    }

    /// Drains every completed flow out of `agg` into the engine.
    ///
    /// The aggregator emits flows in completion order; they are re-sorted
    /// by start before being pushed, so only flows older than the lateness
    /// bound can fail (see [`EngineConfig::lateness`]).
    pub fn drain_aggregator(
        &mut self,
        agg: &mut ArgusAggregator,
    ) -> Result<Vec<WindowReport>, Error> {
        let mut flows = agg.drain_completed();
        flows.sort_by_key(buffer_key);
        let mut reports = Vec::new();
        for f in flows {
            reports.extend(self.push(f)?);
        }
        Ok(reports)
    }

    /// Reports feed-clock time to the stall detector. Call this
    /// periodically (e.g. once per poll of an idle feed) with a monotone
    /// `now`; when [`EngineConfig::stall_timeout`] elapses with no
    /// watermark progress, every buffered flow is applied and every open
    /// window is force-closed (marked [`WindowReport::forced`]), so a dead
    /// feed cannot hold verdicts hostage. Without a configured timeout
    /// this is a no-op.
    pub fn tick(&mut self, now: SimTime) -> Vec<WindowReport> {
        let Some(timeout) = self.cfg.stall_timeout else {
            return Vec::new();
        };
        let progressed = self.watermark > self.stall_watermark;
        let last_progress = match self.stall_progress_at {
            Some(t) if !progressed => t,
            _ => {
                self.stall_watermark = self.watermark;
                self.stall_progress_at = Some(now);
                return Vec::new();
            }
        };
        let since = now.since(last_progress);
        if since < timeout {
            return Vec::new();
        }
        self.stall_progress_at = Some(now);
        if self.buffer.is_empty() && self.open.is_empty() {
            return Vec::new();
        }
        self.stats.stall_flushes += 1;
        self.flush_all(true)
    }

    /// End of input: applies every buffered flow and closes every open
    /// window, in index order.
    pub fn finish(&mut self) -> Vec<WindowReport> {
        self.flush_all(false)
    }

    /// Applies everything buffered and closes every open window. `forced`
    /// marks the reports as stall-closed rather than watermark-closed.
    /// Afterwards `applied_to` covers both the watermark and every closed
    /// window's end, so a resumed feed cannot reopen a closed index — its
    /// flows are late and the [`LatePolicy`] takes over.
    fn flush_all(&mut self, forced: bool) -> Vec<WindowReport> {
        self.applied_to = self.applied_to.max(self.watermark);
        if forced {
            // Flows exactly at the watermark are applied too; afterwards a
            // revived feed must move strictly past the stall point.
            self.applied_to = self.applied_to.max(SimTime::from_millis(
                self.watermark.as_millis().saturating_add(1),
            ));
        }
        for f in std::mem::take(&mut self.buffer).into_values() {
            self.held -= 1;
            self.assign(f);
        }
        let open = std::mem::take(&mut self.open);
        let mut reports = Vec::with_capacity(open.len());
        for (k, extras) in open {
            self.applied_to = self.applied_to.max(self.window_span(k).end);
            reports.push(self.close_window(k, extras, forced));
        }
        self.log.clear();
        reports
    }

    /// Applies buffered flows starting before `cutoff` and closes windows
    /// wholly covered by the applied range.
    fn advance_to(&mut self, cutoff: SimTime) -> Vec<WindowReport> {
        if cutoff <= self.applied_to {
            return Vec::new();
        }
        while let Some(ready) = self.buffer.first_entry() {
            if ready.key().0 .0 >= cutoff {
                break;
            }
            let f = ready.remove();
            self.held -= 1;
            self.assign(f);
        }
        self.applied_to = cutoff;

        let mut reports = Vec::new();
        while let Some(k) = self.open.first_key_value().map(|(&k, _)| k) {
            if self.window_span(k).end > self.applied_to {
                break;
            }
            let extras = self.open.remove(&k).unwrap_or_default();
            reports.push(self.close_window(k, extras, false));
        }
        if !reports.is_empty() {
            // Drop the log prefix older than every open window.
            let keep = match self.open.first_key_value() {
                Some((&k, _)) => self.log_range(k).start,
                None => self.log.len(),
            };
            self.log.drain(..keep);
        }
        reports
    }

    /// Window indices whose span covers instant `t`.
    fn covering(&self, t: SimTime) -> RangeInclusive<u64> {
        covering(t, self.cfg.window, self.cfg.slide)
    }

    /// Start and end of window `k`, saturating where a restored
    /// configuration would overflow.
    fn window_span(&self, k: u64) -> Range<SimTime> {
        let start = k.saturating_mul(self.cfg.slide.as_millis());
        SimTime::from_millis(start)
            ..SimTime::from_millis(start.saturating_add(self.cfg.window.as_millis()))
    }

    /// Log positions of window `k`'s flows: those starting in its span.
    fn log_range(&self, k: u64) -> Range<usize> {
        let span = self.window_span(k);
        let lo = self.log.partition_point(|f| f.start < span.start);
        let hi = self.log.partition_point(|f| f.start < span.end);
        lo..hi
    }

    /// Adds `f` to the log in canonical order. Buffer drains run in key
    /// order and never go back, so `f` belongs at the back; a hand-built
    /// snapshot may say otherwise, and the log stays sorted either way.
    fn log_flow(&mut self, f: FlowRecord) {
        let key = buffer_key(&f);
        if self.log.back().is_none_or(|last| buffer_key(last) <= key) {
            self.log.push_back(f);
        } else {
            let at = self.log.partition_point(|g| buffer_key(g) <= key);
            self.log.insert(at, f);
        }
    }

    /// Logs the flow once and opens every window covering its start time;
    /// `held` counts it once per covering window.
    fn assign(&mut self, f: FlowRecord) {
        for k in self.covering(f.start) {
            if !self.open.contains_key(&k) {
                // Windows open in index order, after the flows of every
                // older window are logged, so this range is empty unless
                // a hand-built snapshot put flows there; count them either
                // way, or the close would take more than was added.
                self.held += self.log_range(k).len();
                self.open.insert(k, Vec::new());
            }
            self.held += 1;
        }
        self.log_flow(f);
    }

    /// Closes window `index`: profiles its log range and `extras` in
    /// place, in canonical order, and runs the pipeline on the hosts the
    /// [`EvictionPolicy`] keeps. No [`FlowTable`](pw_flow::FlowTable) is
    /// built: one walk over the rows profiles them, counts duplicates,
    /// skips them under `dedupe` and takes each host's last-seen time.
    fn close_window(
        &mut self,
        index: u64,
        mut extras: Vec<FlowRecord>,
        forced: bool,
    ) -> WindowReport {
        let span = self.window_span(index);
        let range = self.log_range(index);
        self.held -= range.len() + extras.len();
        // Rows go in the canonical processing order, the order the batch
        // path sorts a table into. Extras are late, so they come after
        // every logged flow with their key, in arrival order among
        // themselves, as they did when windows kept their own copies.
        extras.sort_by_key(buffer_key);
        let rows = WindowRows {
            log: self.log.range(range).peekable(),
            extras: extras.iter().peekable(),
        };
        let threads = self.cfg.threads;
        let walk = profile_records(
            rows,
            &self.is_internal,
            self.cfg.tier,
            threads,
            self.cfg.dedupe,
        );
        let duplicates = walk.duplicates as u64;
        self.stats.duplicates += duplicates;
        let hosts = walk.hosts.len();
        self.stats.profile_bytes = 0;
        self.stats.profiles_exact = 0;
        self.stats.profiles_sketched = 0;
        for (p, _) in &walk.hosts {
            self.stats.profile_bytes += p.estimated_bytes() as u64;
            match p.tier() {
                ProfileTier::Exact => self.stats.profiles_exact += 1,
                ProfileTier::Sketched => self.stats.profiles_sketched += 1,
            }
        }

        let deadline = match self.cfg.eviction {
            EvictionPolicy::WindowScoped => SimTime::ZERO,
            EvictionPolicy::IdleLongerThan(idle) => {
                SimTime::from_millis(span.end.as_millis().saturating_sub(idle.as_millis()))
            }
        };
        let kept: Vec<_> = walk
            .hosts
            .into_iter()
            .filter(|&(_, last_seen)| last_seen >= deadline)
            .map(|(p, _)| (p.ip, p))
            .collect();
        let evicted = hosts - kept.len();
        let profiles = ProfileTable::from_pairs(kept);

        let outcome = try_find_plotters_from_table(&profiles, &self.cfg.detect, threads);
        WindowReport {
            index,
            start: span.start,
            end: span.end,
            flows: walk.rows,
            hosts,
            evicted,
            late: std::mem::take(&mut self.window_late),
            dropped: std::mem::take(&mut self.window_dropped),
            quarantined: std::mem::take(&mut self.window_quarantined),
            duplicates,
            forced,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::try_find_plotters_table_tier;
    use pw_flow::{FlowState, FlowTable, Payload, Proto};

    fn internal(ip: Ipv4Addr) -> bool {
        ip.octets()[0] == 10
    }

    fn flow(src: Ipv4Addr, dst: Ipv4Addr, start: SimTime, up: u64, failed: bool) -> FlowRecord {
        FlowRecord {
            start,
            end: start + SimDuration::from_secs(1),
            src,
            sport: 999,
            dst,
            dport: 80,
            proto: Proto::Tcp,
            src_pkts: 1,
            src_bytes: up,
            dst_pkts: 1,
            dst_bytes: 64,
            state: if failed {
                FlowState::SynNoAnswer
            } else {
                FlowState::Established
            },
            payload: Payload::empty(),
        }
    }

    /// Two hours of mixed traffic: three bot-like hosts with tight timers,
    /// three trader-like, several normal.
    fn two_hours() -> Vec<FlowRecord> {
        let mut flows = Vec::new();
        for b in 0..3u8 {
            let bot = Ipv4Addr::new(10, 1, 0, 1 + b);
            for round in 0..24u64 {
                for peer in 0..6u8 {
                    let dst = Ipv4Addr::new(60, 1, b, peer + 1);
                    let t = SimTime::from_secs(round * 300 + peer as u64);
                    flows.push(flow(bot, dst, t, 80, peer % 2 == 0));
                }
            }
        }
        for tr in 0..3u8 {
            let trader = Ipv4Addr::new(10, 1, 0, 10 + tr);
            for p in 0..40u64 {
                let dst = Ipv4Addr::new(70, 2, tr, (p + 1) as u8);
                let t = SimTime::from_secs(60 + p * 170 + (p * p * 37) % 90);
                let failed = p % 5 < 2;
                flows.push(flow(
                    trader,
                    dst,
                    t,
                    if failed { 120 } else { 900_000 },
                    failed,
                ));
            }
        }
        for n in 0..8u8 {
            let host = Ipv4Addr::new(10, 2, 0, 1 + n);
            for k in 0..40u64 {
                let dst = Ipv4Addr::new(80, 3, (k % 9) as u8, 1);
                let t = SimTime::from_secs(30 + k * 175 + (k * k * 131 + n as u64 * 997) % 120);
                flows.push(flow(host, dst, t, 600, k % 25 == 0));
            }
        }
        // Arrival order of a border monitor: by start time.
        flows.sort_by_key(buffer_key);
        flows
    }

    fn engine(cfg: EngineConfig) -> DetectionEngine<fn(Ipv4Addr) -> bool> {
        DetectionEngine::new(cfg, internal as fn(Ipv4Addr) -> bool).unwrap()
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let ok = EngineConfig::default();
        assert!(ok.validate().is_ok());
        let cases = [
            (
                EngineConfig {
                    window: SimDuration::ZERO,
                    ..ok
                },
                ConfigError::ZeroWindow,
            ),
            (
                EngineConfig {
                    slide: SimDuration::ZERO,
                    ..ok
                },
                ConfigError::ZeroSlide,
            ),
            (
                EngineConfig {
                    slide: SimDuration::from_hours(25),
                    ..ok
                },
                ConfigError::SlideExceedsWindow,
            ),
            (EngineConfig { threads: 0, ..ok }, ConfigError::ZeroThreads),
            (
                EngineConfig {
                    threads: MAX_THREADS + 1,
                    ..ok
                },
                ConfigError::TooManyThreads(MAX_THREADS + 1),
            ),
            (
                EngineConfig {
                    max_flows: Some(0),
                    ..ok
                },
                ConfigError::ZeroCapacity,
            ),
            (
                EngineConfig {
                    stall_timeout: Some(SimDuration::ZERO),
                    ..ok
                },
                ConfigError::ZeroStallTimeout,
            ),
            (
                EngineConfig {
                    detect: FindPlottersConfig {
                        cut_fraction: 0.0,
                        ..Default::default()
                    },
                    ..ok
                },
                ConfigError::CutFraction(0.0),
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want));
            assert!(DetectionEngine::new(cfg, internal).is_err());
        }
        let most = EngineConfig {
            threads: MAX_THREADS,
            ..ok
        };
        assert!(most.validate().is_ok());
    }

    #[test]
    fn single_full_window_matches_batch() {
        let flows = two_hours();
        let batch = try_find_plotters_table_tier(
            &FlowTable::from_records(&flows),
            internal,
            &FindPlottersConfig::default(),
            ProfileTier::Exact,
            1,
        )
        .unwrap();
        for threads in [1usize, 2, 4] {
            let mut eng = engine(EngineConfig {
                window: SimDuration::from_hours(3),
                slide: SimDuration::from_hours(3),
                lateness: SimDuration::from_mins(5),
                threads,
                ..Default::default()
            });
            let mut reports = Vec::new();
            for f in &flows {
                // Completion-order-ish arrival: the engine's buffer fixes it.
                reports.extend(eng.push(*f).unwrap());
            }
            reports.extend(eng.finish());
            assert_eq!(reports.len(), 1, "threads={threads}");
            let w = reports.pop().unwrap().outcome.unwrap();
            assert_eq!(w.suspects, batch.suspects, "threads={threads}");
            assert_eq!(w.tau_vol.to_bits(), batch.tau_vol.to_bits());
            assert_eq!(w.tau_churn.to_bits(), batch.tau_churn.to_bits());
            assert_eq!(w.hm.clusters, batch.hm.clusters);
        }
    }

    #[test]
    fn out_of_order_arrival_within_lateness_is_reordered() {
        let mut flows = two_hours();
        // Scramble locally: reverse 32-flow blocks (disorder bounded well
        // inside the 10-minute lateness).
        for chunk in flows.chunks_mut(32) {
            chunk.reverse();
        }
        let ordered = two_hours();
        let run = |input: &[FlowRecord]| {
            let mut eng = engine(EngineConfig {
                window: SimDuration::from_mins(30),
                slide: SimDuration::from_mins(30),
                lateness: SimDuration::from_mins(10),
                ..Default::default()
            });
            let mut reports = Vec::new();
            for f in input {
                reports.extend(eng.push(*f).unwrap());
            }
            reports.extend(eng.finish());
            reports
        };
        assert_eq!(run(&flows), run(&ordered));
    }

    #[test]
    fn tumbling_windows_partition_flows() {
        let flows = two_hours();
        let mut eng = engine(EngineConfig {
            window: SimDuration::from_mins(30),
            slide: SimDuration::from_mins(30),
            lateness: SimDuration::ZERO,
            ..Default::default()
        });
        let mut reports = Vec::new();
        for f in &flows {
            reports.extend(eng.push(*f).unwrap());
        }
        reports.extend(eng.finish());
        assert_eq!(reports.iter().map(|w| w.flows).sum::<usize>(), flows.len());
        for (a, b) in reports.iter().zip(reports.iter().skip(1)) {
            assert!(a.index < b.index, "windows out of order");
            assert_eq!(a.end, b.start, "tumbling windows must abut");
        }
    }

    #[test]
    fn sliding_windows_see_flows_twice() {
        let flows = two_hours();
        let mut eng = engine(EngineConfig {
            window: SimDuration::from_mins(60),
            slide: SimDuration::from_mins(30),
            lateness: SimDuration::ZERO,
            ..Default::default()
        });
        let mut reports = Vec::new();
        for f in &flows {
            reports.extend(eng.push(*f).unwrap());
        }
        reports.extend(eng.finish());
        // Every flow lands in two overlapping windows, except those in the
        // first half-window of the stream.
        let early = flows
            .iter()
            .filter(|f| f.start < SimTime::from_secs(1800))
            .count();
        let total: usize = reports.iter().map(|w| w.flows).sum();
        assert_eq!(total, flows.len() * 2 - early);
    }

    #[test]
    fn late_flow_is_rejected_not_misfiled() {
        let mut eng = engine(EngineConfig {
            window: SimDuration::from_mins(10),
            slide: SimDuration::from_mins(10),
            lateness: SimDuration::ZERO,
            ..Default::default()
        });
        let a = Ipv4Addr::new(10, 1, 0, 1);
        let b = Ipv4Addr::new(60, 0, 0, 1);
        eng.push(flow(a, b, SimTime::from_secs(25 * 60), 10, false))
            .unwrap();
        let err = eng
            .push(flow(a, b, SimTime::from_secs(10), 10, false))
            .unwrap_err();
        assert!(matches!(err, Error::LateFlow { .. }));
        assert_eq!(eng.stats().late, 1);
        assert_eq!(eng.stats().late_dropped, 1);
    }

    #[test]
    fn idle_hosts_are_evicted_before_scoring() {
        // One host active at the start of a 60-min window then silent; one
        // active throughout.
        let mut flows = Vec::new();
        let idle = Ipv4Addr::new(10, 9, 0, 1);
        let busy = Ipv4Addr::new(10, 9, 0, 2);
        for k in 0..5u64 {
            flows.push(flow(
                idle,
                Ipv4Addr::new(60, 0, 0, 1),
                SimTime::from_secs(k * 30),
                10,
                false,
            ));
        }
        for k in 0..60u64 {
            flows.push(flow(
                busy,
                Ipv4Addr::new(60, 0, 0, 2),
                SimTime::from_secs(k * 60),
                10,
                false,
            ));
        }
        flows.sort_by_key(buffer_key);
        let run = |eviction: EvictionPolicy| {
            let mut eng = engine(EngineConfig {
                window: SimDuration::from_mins(60),
                slide: SimDuration::from_mins(60),
                lateness: SimDuration::ZERO,
                eviction,
                ..Default::default()
            });
            for f in &flows {
                eng.push(*f).unwrap();
            }
            eng.finish().pop().unwrap()
        };
        let scoped = run(EvictionPolicy::WindowScoped);
        assert_eq!((scoped.hosts, scoped.evicted), (2, 0));
        let idle_out = run(EvictionPolicy::IdleLongerThan(SimDuration::from_mins(30)));
        assert_eq!((idle_out.hosts, idle_out.evicted), (2, 1));
        if let Ok(r) = idle_out.outcome {
            assert!(!r.all_hosts.contains(&idle));
        }
    }

    #[test]
    fn empty_window_outcome_is_typed() {
        // Flows between two external hosts only: windows exist but no
        // border host is profiled.
        let mut eng = engine(EngineConfig {
            window: SimDuration::from_mins(10),
            slide: SimDuration::from_mins(10),
            lateness: SimDuration::ZERO,
            ..Default::default()
        });
        let x = Ipv4Addr::new(60, 0, 0, 1);
        let y = Ipv4Addr::new(70, 0, 0, 1);
        eng.push(flow(x, y, SimTime::from_secs(1), 10, false))
            .unwrap();
        let reports = eng.finish();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcome, Err(Error::EmptyWindow));
    }

    #[test]
    fn watermark_and_buffer_observability() {
        let mut eng = engine(EngineConfig {
            window: SimDuration::from_mins(10),
            slide: SimDuration::from_mins(10),
            lateness: SimDuration::from_mins(10),
            ..Default::default()
        });
        let a = Ipv4Addr::new(10, 1, 0, 1);
        let b = Ipv4Addr::new(60, 0, 0, 1);
        eng.push(flow(a, b, SimTime::from_secs(30), 10, false))
            .unwrap();
        assert_eq!(eng.watermark(), SimTime::from_secs(30));
        assert_eq!(eng.buffered(), 1);
        assert_eq!(eng.open_windows(), 0);
        assert_eq!(eng.held_flows(), 1);
        eng.finish();
        assert_eq!(eng.buffered(), 0);
        assert_eq!(eng.held_flows(), 0);
    }

    #[test]
    fn late_policy_drop_counts_instead_of_erroring() {
        let mut eng = engine(EngineConfig {
            window: SimDuration::from_mins(10),
            slide: SimDuration::from_mins(10),
            lateness: SimDuration::ZERO,
            late_policy: LatePolicy::Drop,
            ..Default::default()
        });
        let a = Ipv4Addr::new(10, 1, 0, 1);
        let b = Ipv4Addr::new(60, 0, 0, 1);
        eng.push(flow(a, b, SimTime::from_secs(25 * 60), 10, false))
            .unwrap();
        let reports = eng
            .push(flow(a, b, SimTime::from_secs(10), 10, false))
            .unwrap();
        assert!(reports.is_empty());
        let stats = eng.stats();
        assert_eq!((stats.late, stats.late_dropped), (1, 1));
        let last = eng.finish().pop().unwrap();
        // The delta counters surface on the next report to close.
        assert_eq!((last.late, last.dropped), (1, 1));
    }

    #[test]
    fn late_policy_extend_places_flow_in_oldest_open_window() {
        let mut eng = engine(EngineConfig {
            window: SimDuration::from_mins(10),
            slide: SimDuration::from_mins(10),
            lateness: SimDuration::ZERO,
            late_policy: LatePolicy::ExtendOldest,
            ..Default::default()
        });
        let a = Ipv4Addr::new(10, 1, 0, 1);
        let b = Ipv4Addr::new(60, 0, 0, 1);
        // Open window 2 (20–30 min) without closing it.
        eng.push(flow(a, b, SimTime::from_secs(25 * 60), 10, false))
            .unwrap();
        eng.push(flow(a, b, SimTime::from_secs(26 * 60), 10, false))
            .unwrap();
        assert_eq!(eng.open_windows(), 1);
        // A flow from the long-closed window 0 is absorbed, not lost.
        let reports = eng
            .push(flow(a, b, SimTime::from_secs(10), 10, false))
            .unwrap();
        assert!(reports.is_empty());
        let stats = eng.stats();
        assert_eq!(
            (stats.late, stats.late_extended, stats.late_dropped),
            (1, 1, 0)
        );
        let reports = eng.finish();
        let total: usize = reports.iter().map(|w| w.flows).sum();
        assert_eq!(total, 3, "the late flow still reaches a verdict");
        assert_eq!(reports.last().unwrap().late, 1);
        assert_eq!(reports.last().unwrap().dropped, 0);
    }

    #[test]
    fn memory_cap_sheds_deterministically_and_counts() {
        let mut eng = engine(EngineConfig {
            window: SimDuration::from_mins(10),
            slide: SimDuration::from_mins(10),
            lateness: SimDuration::from_mins(10),
            max_flows: Some(2),
            ..Default::default()
        });
        let a = Ipv4Addr::new(10, 1, 0, 1);
        let b = Ipv4Addr::new(60, 0, 0, 1);
        for k in 0..5u64 {
            eng.push(flow(a, b, SimTime::from_secs(k), 10, false))
                .unwrap();
        }
        assert_eq!(eng.held_flows(), 2);
        let stats = eng.stats();
        assert_eq!((stats.attempted, stats.accepted, stats.shed), (5, 2, 3));
        let report = eng.finish().pop().unwrap();
        assert_eq!(report.flows, 2, "only accepted flows are scored");
        assert_eq!(report.dropped, 3, "every shed flow is reported");
    }

    #[test]
    fn stall_tick_force_closes_open_windows() {
        let mut eng = engine(EngineConfig {
            window: SimDuration::from_mins(10),
            slide: SimDuration::from_mins(10),
            lateness: SimDuration::from_mins(10),
            stall_timeout: Some(SimDuration::from_mins(1)),
            ..Default::default()
        });
        let a = Ipv4Addr::new(10, 1, 0, 1);
        let b = Ipv4Addr::new(60, 0, 0, 1);
        eng.push(flow(a, b, SimTime::from_secs(30), 10, false))
            .unwrap();
        // First tick arms the detector; nothing closes.
        assert!(eng.tick(SimTime::from_secs(0)).is_empty());
        // Inside the timeout: still nothing.
        assert!(eng.tick(SimTime::from_secs(30)).is_empty());
        // Feed dead for over a minute: the buffered flow is applied and its
        // window force-closed.
        let reports = eng.tick(SimTime::from_secs(100));
        assert_eq!(reports.len(), 1);
        assert!(reports[0].forced);
        assert_eq!(reports[0].flows, 1);
        assert_eq!(eng.buffered(), 0);
        assert_eq!(eng.open_windows(), 0);
        assert_eq!(eng.stats().stall_flushes, 1);
        // A revived feed cannot reopen the closed window: the flow is late.
        let err = eng
            .push(flow(a, b, SimTime::from_secs(40), 10, false))
            .unwrap_err();
        assert!(matches!(err, Error::LateFlow { .. }));
        // An idle engine does not flush again.
        assert!(eng.tick(SimTime::from_secs(300)).is_empty());
        assert_eq!(eng.stats().stall_flushes, 1);
    }

    #[test]
    fn tick_without_timeout_is_a_no_op() {
        let mut eng = engine(EngineConfig::default());
        let a = Ipv4Addr::new(10, 1, 0, 1);
        let b = Ipv4Addr::new(60, 0, 0, 1);
        eng.push(flow(a, b, SimTime::from_secs(30), 10, false))
            .unwrap();
        assert!(eng.tick(SimTime::from_hours(100)).is_empty());
        assert_eq!(eng.buffered(), 1);
    }

    #[test]
    fn dedupe_suppresses_exact_duplicates_and_counts_them() {
        let a = Ipv4Addr::new(10, 1, 0, 1);
        let b = Ipv4Addr::new(60, 0, 0, 1);
        let run = |dedupe: bool| {
            let mut eng = engine(EngineConfig {
                window: SimDuration::from_mins(10),
                slide: SimDuration::from_mins(10),
                lateness: SimDuration::ZERO,
                dedupe,
                ..Default::default()
            });
            let f = flow(a, b, SimTime::from_secs(5), 10, false);
            eng.push(f).unwrap();
            eng.push(f).unwrap();
            eng.push(flow(a, b, SimTime::from_secs(6), 10, false))
                .unwrap();
            (eng.finish().pop().unwrap(), eng.stats())
        };
        let (kept, stats) = run(false);
        assert_eq!((kept.flows, kept.duplicates), (3, 1));
        assert_eq!(stats.duplicates, 1);
        let (deduped, stats) = run(true);
        assert_eq!((deduped.flows, deduped.duplicates), (2, 1));
        assert_eq!(stats.duplicates, 1);
    }

    #[test]
    fn reject_invalid_quarantines_corrupt_records() {
        let mut eng = engine(EngineConfig {
            window: SimDuration::from_mins(10),
            slide: SimDuration::from_mins(10),
            lateness: SimDuration::ZERO,
            reject_invalid: true,
            ..Default::default()
        });
        let a = Ipv4Addr::new(10, 1, 0, 1);
        let b = Ipv4Addr::new(60, 0, 0, 1);
        let mut bad = flow(a, b, SimTime::from_secs(5), 10, false);
        bad.end = SimTime::ZERO; // ends before it starts
        let err = eng.push(bad).unwrap_err();
        assert!(matches!(err, Error::InvalidRecord(_)));
        eng.push(flow(a, b, SimTime::from_secs(6), 10, false))
            .unwrap();
        assert_eq!(eng.stats().quarantined, 1);
        let report = eng.finish().pop().unwrap();
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.flows, 1);
    }

    #[test]
    fn ingest_accounting_always_balances() {
        let mut flows = two_hours();
        for chunk in flows.chunks_mut(64) {
            chunk.reverse();
        }
        let mut eng = engine(EngineConfig {
            window: SimDuration::from_mins(30),
            slide: SimDuration::from_mins(30),
            lateness: SimDuration::from_mins(2),
            late_policy: LatePolicy::Drop,
            max_flows: Some(400),
            ..Default::default()
        });
        let mut reports = Vec::new();
        for f in &flows {
            reports.extend(eng.push(*f).unwrap());
        }
        reports.extend(eng.finish());
        let s = eng.stats();
        assert_eq!(s.attempted, flows.len() as u64);
        assert_eq!(s.attempted, s.accepted + s.shed + s.quarantined + s.late);
        assert_eq!(s.late, s.late_dropped + s.late_extended);
        let reported: u64 = reports.iter().map(|w| w.dropped).sum();
        assert_eq!(
            reported,
            s.late_dropped + s.shed,
            "every dropped flow surfaces in a report"
        );
        let scored: usize = reports.iter().map(|w| w.flows).sum();
        assert_eq!(scored as u64, s.accepted + s.late_extended);
    }
}
