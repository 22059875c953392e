//! Streaming windowed detection: run `FindPlotters` continuously over a
//! live flow feed instead of a stored day of traffic.
//!
//! [`DetectionEngine`] accepts [`FlowRecord`]s incrementally — e.g. from
//! [`pw_flow::ArgusAggregator::drain_completed`], which emits flows in
//! *completion* order — reorders them within a configurable lateness bound,
//! assigns them to tumbling or sliding windows, and emits a
//! [`WindowReport`] (wrapping a [`PlotterReport`]) whenever a window's
//! watermark passes. Each open window profiles its flows as they arrive,
//! so a close only finishes its profiles and scores every host they
//! cover, as the paper's `FindPlotters` scores every host seen in its
//! window. The per-window threshold tests shard over hosts with
//! `std::thread::scope`, and any `threads` setting produces
//! byte-identical verdicts. Each window's `θ_hm` runs on the same
//! scaled kernel as batch detection — per-host [`pw_analysis::CdfRepr`]
//! digests feeding the alloc-free `emd_cdf` pairwise sweep and O(n²)
//! NN-chain clustering (see DESIGN.md "θ_hm at scale") — so wide windows
//! over large host populations close without a quadratic allocation
//! spike.
//!
//! One streaming window covering a whole trace reproduces the batch
//! [`try_find_plotters_table_tier`](crate::pipeline::try_find_plotters_table_tier)
//! output exactly — the equivalence the integration suite pins down.
//!
//! # Degraded modes
//!
//! Real border feeds reorder, duplicate, and corrupt records. The engine
//! survives all of it without panicking, and accounts for every record it
//! could not process normally:
//!
//! - **Late flows** — a flow starting before the lateness bound is
//!   refused with a typed [`Error::LateFlow`], counted as late and as
//!   dropped, and reaches no window: windows covering its start may have
//!   closed already, and no window takes in a flow from outside its span.
//! - **Bounded memory** — [`EngineConfig::max_flows`] caps the flows held
//!   across the reorder buffer and open windows, counted once per window
//!   that holds them; at the cap, incoming flows are shed deterministically
//!   (newest first), counted, and still advance the watermark so windows
//!   keep closing and memory drains.
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
//! log, kept in canonical order ([`FlowRecord::canonical_key`]). Window
//! `k` is the log range of flows starting in `[k·slide, k·slide +
//! window)`, found by binary search. Sliding windows therefore share
//! their flows instead of copying them once per window.
//!
//! Each open window also keeps a profiler (see [`crate::features`]).
//! When the watermark moves a flow into the log, every window covering
//! it takes the flow in, in canonical order. Whether the flow duplicates
//! the row before it, which endpoint it monitors, and when that host last
//! initiated a flow to the same destination are decided once for all
//! those windows. One contact map keeps that last contact per host and
//! destination; a window counts it as an interstitial gap if it falls
//! inside the window and as a first contact otherwise, so the exact tier
//! keeps no contact map per window. A close builds no
//! [`FlowTable`](pw_flow::FlowTable): it takes in, in one pass, the rows
//! its profiler has not, and finishes the profiles. On the watermark path
//! there are none. [`finish`](DetectionEngine::finish) closes every
//! window in one call, so it logs the buffered flows without feeding them
//! to any window or the contact map, and each close takes its share, with
//! a map of just those flows' contacts in front of the shared one; only
//! one window's profiles are then being finished at a time. A flow in `k`
//! windows is held in `k` profiles, so
//! [`EngineConfig::validate`] bounds `k`. After a close, the log prefix
//! older than every open window is dropped, and so are the contacts older
//! than every open window once the contact map holds twice as many
//! contacts as the log holds flows.
//!
//! The engine never repairs its state: flows reach the log in canonical
//! order, and a window opens with its first flow, over an empty log range.
//! So the open windows are exactly the windows that cover a logged flow
//! and end after the applied range, and a restore opens them from the log.
//! [`EngineCheckpoint::parse`](crate::checkpoint::EngineCheckpoint::parse)
//! refuses every snapshot that would break this (see [`crate::checkpoint`]).
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

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::ops::{Range, RangeInclusive};

use pw_flow::{CanonicalKey, FlowRecord};
use pw_netsim::{SimDuration, SimTime};

use crate::error::{ConfigError, Error};
use crate::features::{internal_endpoint, PrevContact, ProfileTable, ProfileTier, RecordProfiler};
use crate::pipeline::{
    check_threads, try_find_plotters_from_table, FindPlottersConfig, PlotterReport,
};

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
    /// order — like [`pw_flow::ArgusAggregator`] — need at least the
    /// aggregator's idle timeout plus the longest expected flow duration.
    pub lateness: SimDuration,
    /// Worker threads for the per-window threshold tests, from 1 to
    /// [`MAX_THREADS`]. Windows profile their flows as they arrive, on the
    /// caller's thread. Any value produces identical output.
    pub threads: usize,
    /// Upper bound on flows held (reorder buffer plus open windows). A
    /// flow counts once for each open window it belongs to, although it is
    /// stored once, so the cap means the same for any storage layout.
    /// `None` is unbounded; at the cap, incoming flows are shed
    /// deterministically and counted as [`EngineStats::shed`].
    pub max_flows: Option<usize>,
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
            max_flows: None,
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

/// Most windows one flow may fall in: the cap on `window / slide`,
/// rounded up. Every flow opens, is counted in and is profiled by that
/// many windows, so a configuration read back from a checkpoint cannot
/// ask for millions of them.
pub const MAX_WINDOWS_PER_FLOW: u64 = 1024;

impl EngineConfig {
    /// Starts a validated builder seeded with the defaults (see
    /// [`EngineConfigBuilder`]).
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
        let per_flow = self.window.as_millis().div_ceil(self.slide.as_millis());
        if per_flow > MAX_WINDOWS_PER_FLOW {
            return Err(ConfigError::TooManyWindowsPerFlow(per_flow));
        }
        check_threads(self.threads)?;
        if self.max_flows == Some(0) {
            return Err(ConfigError::ZeroCapacity);
        }
        self.detect.validate()
    }
}

/// Builder for [`EngineConfig`] whose [`build`](Self::build) rejects
/// out-of-range knobs with a typed [`ConfigError`]. It only sets public
/// fields and then calls [`EngineConfig::validate`], which a struct literal
/// can call as well; it stays because the benchmark adapter
/// (`perfbench/src/adapter.rs`) builds its engines with it.
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

    /// Caps the flows held in memory (`None` is unbounded).
    pub fn max_flows(mut self, cap: Option<usize>) -> Self {
        self.cfg.max_flows = cap;
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
/// quarantined, or late — so
/// `attempted == accepted + shed + quarantined + late` always holds, and
/// nothing is ever lost silently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Calls to `push` (including rejected and shed flows).
    pub attempted: u64,
    /// Flows accepted into the reorder buffer.
    pub accepted: u64,
    /// Flows that arrived below the lateness bound, refused with
    /// [`Error::LateFlow`].
    pub late: u64,
    /// Flows shed by the [`EngineConfig::max_flows`] memory cap.
    pub shed: u64,
    /// Records quarantined by [`EngineConfig::reject_invalid`].
    pub quarantined: u64,
    /// Exact duplicate rows observed inside closed windows.
    pub duplicates: u64,
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
    /// Hosts profiled inside the window.
    pub hosts: usize,
    /// Late flows observed since the previous report was emitted (each
    /// late flow is reported exactly once, on the next window to close).
    pub late: u64,
    /// Flows dropped — late plus shed — since the previous report.
    pub dropped: u64,
    /// Records quarantined at ingest since the previous report.
    pub quarantined: u64,
    /// Exact duplicate rows inside this window (suppressed before scoring
    /// iff [`EngineConfig::dedupe`] is set).
    pub duplicates: u64,
    /// The pipeline's verdict, or why no verdict was possible
    /// ([`Error::EmptyWindow`], [`Error::ThresholdUnresolvable`]).
    pub outcome: Result<PlotterReport, Error>,
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

/// The key of a host's flows to a destination in
/// [`DetectionEngine::contacts`].
fn contact_key(host: Ipv4Addr, dst: Ipv4Addr) -> u64 {
    u64::from(u32::from(host)) << 32 | u64::from(u32::from(dst))
}

/// Streaming windowed `FindPlotters`.
///
/// Feed flows with [`push`](Self::push); closed windows come back as
/// [`WindowReport`]s. Call [`finish`](Self::finish) at end of input to
/// flush windows the watermark never passed. Long-running deployments
/// snapshot the engine with [`checkpoint`](Self::checkpoint) and revive it
/// with [`restore`](Self::restore) — see [`crate::checkpoint`].
#[derive(Debug)]
pub struct DetectionEngine<F> {
    cfg: EngineConfig,
    is_internal: F,
    /// Bounded-lateness reorder buffer: flows not yet applied to windows,
    /// keyed by canonical order and then by arrival, so flows with equal
    /// keys drain in the order they arrived, exactly as the batch path
    /// would sort them.
    buffer: BTreeMap<(CanonicalKey, u64), FlowRecord>,
    /// Arrival number of the next buffered flow.
    arrivals: u64,
    /// Every applied flow of the open windows, once, in canonical order:
    /// the buffer drains in ascending key order and `applied_to` only
    /// moves forward, so applied flows append at the back. Window `k`
    /// reads [`log_range`](Self::log_range)`(k)`.
    log: VecDeque<FlowRecord>,
    /// The start of the latest flow each monitored host initiated to each
    /// destination (see [`contact_key`]), among the flows the watermark
    /// fed to the windows: the previous contact of the next such flow, for
    /// every window at once. A window counts it as an interstitial gap if
    /// it falls inside the window and as a first contact otherwise, so no
    /// window keeps a contact map of its own. It keeps std's keyed hasher:
    /// the monitored hosts choose the destinations.
    contacts: HashMap<u64, SimTime>,
    /// Open windows by index, each with the profile of the first
    /// [`seen`](RecordProfiler::seen) rows of its log range.
    open: BTreeMap<u64, RecordProfiler>,
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
    /// (a flow in two windows counts twice). The quantity
    /// [`EngineConfig::max_flows`] bounds.
    held: usize,
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
            contacts: HashMap::new(),
            open: BTreeMap::new(),
            watermark: SimTime::ZERO,
            applied_to: SimTime::ZERO,
            stats: EngineStats::default(),
            window_late: 0,
            window_dropped: 0,
            window_quarantined: 0,
            held: 0,
        })
    }

    /// Revives an engine from a [`checkpoint`](Self::checkpoint) snapshot.
    ///
    /// The configuration is taken from the snapshot, so a resumed engine
    /// continues byte-identically to the run that was interrupted.
    /// `is_internal` cannot be serialized — the caller must supply the
    /// same predicate the checkpointed engine used. Only
    /// [`checkpoint`](Self::checkpoint) and
    /// [`EngineCheckpoint::parse`](crate::checkpoint::EngineCheckpoint::parse)
    /// make snapshots, both in layouts an engine writes, so restore takes
    /// the rows in as they are.
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
        engine.held = engine.buffer.len();
        // Each logged flow reopens its windows that end after `applied_to`,
        // which are the windows open when the snapshot was taken, and they
        // take their logged flows in again, as they had then.
        engine.applied_to = snapshot.applied_to;
        for f in &snapshot.log {
            engine.assign(*f, true);
        }
        engine.watermark = snapshot.watermark;
        engine.stats = snapshot.stats;
        engine.window_late = snapshot.window_late;
        engine.window_dropped = snapshot.window_dropped;
        engine.window_quarantined = snapshot.window_quarantined;
        Ok(engine)
    }

    /// Snapshots the engine's complete state — watermark, reorder buffer,
    /// window log, counters, configuration — for later
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
            buffer: self.buffer.values().copied().collect(),
            log: self.log.iter().copied().collect(),
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
    /// - [`Error::LateFlow`] if the flow starts before the lateness bound
    ///   — its window may already be closed, so it is counted and dropped
    ///   rather than silently skewing a later window.
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
            self.stats.late += 1;
            self.window_late += 1;
            self.window_dropped += 1;
            return Err(Error::LateFlow {
                start: f.start,
                bound: self.applied_to,
            });
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
        self.buffer.insert((f.canonical_key(), self.arrivals), f);
        self.arrivals += 1;
    }

    /// End of input: applies every buffered flow and closes every open
    /// window, in index order. Afterwards `applied_to` covers both the
    /// watermark and every closed window's end, so a resumed feed cannot
    /// reopen a closed index — its flows are late.
    pub fn finish(&mut self) -> Vec<WindowReport> {
        // Windows take these flows in at their closes below, one window
        // at a time, rather than all holding them at once. They are
        // assigned before `applied_to` moves on, so each opens its windows.
        for f in std::mem::take(&mut self.buffer).into_values() {
            self.held -= 1;
            self.assign(f, false);
        }
        self.applied_to = self.applied_to.max(self.watermark);
        let open = std::mem::take(&mut self.open);
        let mut reports = Vec::with_capacity(open.len());
        for (k, profile) in open {
            self.applied_to = self.applied_to.max(self.window_span(k).end);
            reports.push(self.close_window(k, profile));
        }
        self.log.clear();
        self.contacts.clear();
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
            self.assign(f, true);
        }
        self.applied_to = cutoff;

        let mut reports = Vec::new();
        while let Some(k) = self.open.first_key_value().map(|(&k, _)| k) {
            if self.window_span(k).end > self.applied_to {
                break;
            }
            if let Some(profile) = self.open.remove(&k) {
                reports.push(self.close_window(k, profile));
            }
        }
        if !reports.is_empty() {
            // Drop the log prefix older than every open window.
            let (keep, oldest) = match self.open.first_key_value() {
                Some((&k, _)) => (self.log_range(k).start, self.window_span(k).start),
                None => (self.log.len(), self.applied_to),
            };
            self.log.drain(..keep);
            // A contact older than every window that may still take in a
            // flow is never read again. Each live one is a logged flow's,
            // so pruning only past twice the log's length keeps the cost
            // of pruning proportional to the contacts it removes.
            if self.contacts.len() > 2 * self.log.len() {
                self.contacts.retain(|_, &mut t| t >= oldest);
            }
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

    /// Appends `f` to the log. Buffer drains run in key order, and every
    /// buffered flow starts at or after `applied_to`, which every logged
    /// flow starts before, so the log stays in canonical order. With
    /// `feed`, every open window covering `f` takes `f` in too; `finish`
    /// leaves `f` to each window's close.
    fn log_flow(&mut self, f: FlowRecord, feed: bool) {
        let duplicate = self.log.back() == Some(&f);
        self.log.push_back(f);
        if !feed {
            return;
        }
        let host = internal_endpoint(&f, &self.is_internal);
        let prev = host
            .filter(|&host| host == f.src)
            .and_then(|host| self.contacts.insert(contact_key(host, f.dst), f.start));
        let slide_ms = self.cfg.slide.as_millis();
        for (&k, profile) in self.open.range_mut(self.covering(f.start)) {
            let since = SimTime::from_millis(k.saturating_mul(slide_ms));
            let contact = PrevContact::Given(prev.filter(|&t| t >= since));
            profile.push(&f, host, duplicate, contact);
        }
    }

    /// Logs the flow once and opens every window covering its start time
    /// that ends after `applied_to`; `held` counts it once per such
    /// window. A window opens with the first flow that falls in it, so it
    /// opens over an empty log range. A flow the buffer drains starts at
    /// or after `applied_to`, so every window covering it is open; only
    /// [`restore`](Self::restore) logs flows some of whose windows have
    /// ended. With `feed`, the open windows take the flow in (see
    /// [`log_flow`](Self::log_flow)).
    fn assign(&mut self, f: FlowRecord, feed: bool) {
        let windows = self.covering(f.start);
        let first = (*windows.start()).max(*self.covering(self.applied_to).start());
        for k in first..=*windows.end() {
            self.open
                .entry(k)
                .or_insert_with(|| RecordProfiler::new(self.cfg.tier, self.cfg.dedupe));
            self.held += 1;
        }
        self.log_flow(f, feed);
    }

    /// Closes window `index`: finishes its profile and runs the pipeline
    /// on every host it covers. The profile has taken in every row the
    /// watermark logged; the close takes in the rows `finish` logged since
    /// in one pass (see the module's "Storage" section). The profile counts
    /// duplicates and skips them under `dedupe`.
    fn close_window(&mut self, index: u64, mut profile: RecordProfiler) -> WindowReport {
        let span = self.window_span(index);
        let range = self.log_range(index);
        self.held -= range.len();
        let from = range.start + profile.seen();
        let mut prev = (from > range.start).then(|| &self.log[from - 1]);
        // The contact map holds the contacts of the rows fed before these
        // (none inside the window if the profile took no row in); one map
        // more holds the contacts of the rows taken in here.
        let mut taken = HashMap::new();
        for f in self.log.range(from..range.end) {
            let duplicate = prev.replace(f) == Some(f);
            let host = internal_endpoint(f, &self.is_internal);
            let contact = host.filter(|&host| host == f.src).and_then(|host| {
                let key = contact_key(host, f.dst);
                let fed = || {
                    self.contacts
                        .get(&key)
                        .copied()
                        .filter(|&t| t >= span.start)
                };
                taken.insert(key, f.start).or_else(fed)
            });
            profile.push(f, host, duplicate, PrevContact::Given(contact));
        }
        let finished = profile.finish();
        let duplicates = finished.duplicates as u64;
        self.stats.duplicates += duplicates;
        let hosts = finished.hosts.len();
        self.stats.profile_bytes = 0;
        self.stats.profiles_exact = 0;
        self.stats.profiles_sketched = 0;
        for p in &finished.hosts {
            self.stats.profile_bytes += p.estimated_bytes() as u64;
            match p.tier() {
                ProfileTier::Exact => self.stats.profiles_exact += 1,
                ProfileTier::Sketched => self.stats.profiles_sketched += 1,
            }
        }
        let profiles =
            ProfileTable::from_pairs(finished.hosts.into_iter().map(|p| (p.ip, p)).collect());
        let outcome = try_find_plotters_from_table(&profiles, &self.cfg.detect, self.cfg.threads);
        WindowReport {
            index,
            start: span.start,
            end: span.end,
            flows: finished.rows,
            hosts,
            late: std::mem::take(&mut self.window_late),
            dropped: std::mem::take(&mut self.window_dropped),
            quarantined: std::mem::take(&mut self.window_quarantined),
            duplicates,
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
        flows.sort_by_key(FlowRecord::canonical_key);
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
    fn window_slide_ratios_past_the_cap_are_refused() {
        let cap = MAX_WINDOWS_PER_FLOW;
        let shape = |window_ms: u64, slide_ms: u64| EngineConfig {
            window: SimDuration::from_millis(window_ms),
            slide: SimDuration::from_millis(slide_ms),
            ..Default::default()
        };
        // At the cap, exactly or rounded up to it.
        for (window_ms, slide_ms) in [(cap, 1), (cap * 1000, 1000), (cap * 1000 - 999, 1000)] {
            let cfg = shape(window_ms, slide_ms);
            assert_eq!(cfg.validate(), Ok(()), "{window_ms}/{slide_ms}");
        }
        // Past it, by one window or rounded up by one millisecond; a day
        // sliding by 3 ms would put each flow in 28.8 million windows.
        for (window_ms, slide_ms, ratio) in [
            (cap + 1, 1, cap + 1),
            (cap * 1000 + 1, 1000, cap + 1),
            (SimDuration::from_hours(24).as_millis(), 3, 28_800_000),
        ] {
            let cfg = shape(window_ms, slide_ms);
            let refused = Err(ConfigError::TooManyWindowsPerFlow(ratio));
            assert_eq!(cfg.validate(), refused, "{window_ms}/{slide_ms}");
            assert!(DetectionEngine::new(cfg, internal).is_err());
        }
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
        let last = eng.finish().pop().unwrap();
        // The delta counters surface on the next report to close, and the
        // late flow is in no window.
        assert_eq!((last.late, last.dropped, last.flows), (1, 1, 1));
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
    fn finish_closes_partly_profiled_windows_as_a_lazy_engine_does() {
        // Sliding windows with a 10-minute reorder buffer: when the feed
        // ends at minute 75, windows 1 to 3 (20–80, 40–100 and 60–120
        // min) have taken in the flows up to minute 65, and the buffer
        // holds the rest, some of them twice. `finish` logs those flows
        // and each close takes in its window's share; its reports must be
        // those of an engine whose lateness holds every flow in the buffer
        // until `finish`, so that no window takes in a flow before its
        // close.
        let flows: Vec<FlowRecord> = two_hours()
            .into_iter()
            .filter(|f| f.start < SimTime::from_secs(75 * 60))
            .collect();
        for dedupe in [false, true] {
            let cfg = EngineConfig {
                window: SimDuration::from_mins(60),
                slide: SimDuration::from_mins(20),
                lateness: SimDuration::from_mins(10),
                dedupe,
                ..Default::default()
            };
            let mut eager = engine(cfg);
            let mut lazy = engine(EngineConfig {
                lateness: SimDuration::from_hours(2),
                ..cfg
            });
            let mut closed = Vec::new();
            for (i, f) in flows.iter().enumerate() {
                let copies = if i % 7 == 0 { 2 } else { 1 };
                for _ in 0..copies {
                    closed.extend(eager.push(*f).unwrap());
                    assert!(lazy.push(*f).unwrap().is_empty());
                }
            }
            assert_eq!(closed.iter().map(|w| w.index).collect::<Vec<_>>(), [0]);
            assert_eq!(eager.open_windows(), 3);
            assert!(eager.buffered() > 0);
            let finished = eager.finish();
            assert_eq!(finished.len(), 3);
            assert!(finished.iter().any(|w| w.duplicates > 0));
            closed.extend(finished);
            assert_eq!(lazy.finish(), closed, "dedupe {dedupe}");
            assert_eq!(eager.held_flows(), 0);
            assert_eq!(lazy.stats(), eager.stats());
            // A revived feed cannot reopen a closed window: its flows are
            // late.
            let err = eager.push(flows[flows.len() - 1]).unwrap_err();
            assert!(matches!(err, Error::LateFlow { .. }));
        }
    }

    #[test]
    fn pruned_contacts_keep_the_ones_open_windows_still_need() {
        // A burst of first contacts in the first half hour, then one host
        // meets the same peer at minutes 40 and 70. Closing window 0 (0–60
        // min) leaves one flow in the log and prunes the burst's contacts,
        // but not the minute-40 one: window 1 (30–90 min) needs it to see
        // a 30-minute gap at minute 70. The engine must report what one
        // whose lateness keeps every flow buffered until `finish` reports.
        let host = Ipv4Addr::new(10, 1, 0, 1);
        let peer = Ipv4Addr::new(60, 9, 0, 1);
        let mut flows: Vec<FlowRecord> = (0..400u32)
            .map(|i| {
                let dst = Ipv4Addr::from(0x4600_0000 + i);
                flow(
                    host,
                    dst,
                    SimTime::from_secs(u64::from(i) * 4),
                    10,
                    i % 3 == 0,
                )
            })
            .collect();
        for (src, dst, mins) in [
            (host, peer, 40),
            (Ipv4Addr::new(10, 1, 0, 2), peer, 61),
            (host, peer, 70),
        ] {
            flows.push(flow(src, dst, SimTime::from_secs(mins * 60), 10, false));
        }
        let cfg = EngineConfig {
            window: SimDuration::from_mins(60),
            slide: SimDuration::from_mins(30),
            lateness: SimDuration::ZERO,
            ..Default::default()
        };
        let mut eager = engine(cfg);
        let mut lazy = engine(EngineConfig {
            lateness: SimDuration::from_hours(3),
            ..cfg
        });
        let mut reports = Vec::new();
        for f in &flows {
            let closed = eager.push(*f).unwrap();
            if !closed.is_empty() {
                let minute_40 = SimTime::from_secs(40 * 60);
                let kept: Vec<_> = eager.contacts.values().collect();
                assert_eq!(kept, [&minute_40]);
            }
            reports.extend(closed);
            assert!(lazy.push(*f).unwrap().is_empty());
        }
        assert_eq!(reports.len(), 1);
        reports.extend(eager.finish());
        assert_eq!(reports, lazy.finish());
        assert!(eager.contacts.is_empty());
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
            max_flows: Some(400),
            ..Default::default()
        });
        let mut reports = Vec::new();
        for f in &flows {
            match eng.push(*f) {
                Ok(closed) => reports.extend(closed),
                Err(e) => assert!(matches!(e, Error::LateFlow { .. }), "{e}"),
            }
        }
        reports.extend(eng.finish());
        let s = eng.stats();
        assert!(s.late > 0, "{s:?}");
        assert_eq!(s.attempted, flows.len() as u64);
        assert_eq!(s.attempted, s.accepted + s.shed + s.quarantined + s.late);
        let reported: u64 = reports.iter().map(|w| w.dropped).sum();
        assert_eq!(
            reported,
            s.late + s.shed,
            "every dropped flow surfaces in a report"
        );
        let scored: usize = reports.iter().map(|w| w.flows).sum();
        assert_eq!(scored as u64, s.accepted);
    }
}
