//! Checkpoint/restore for the streaming engine.
//!
//! A long-running monitor must survive restarts without replaying a whole
//! day of flows and without emitting different verdicts than an
//! uninterrupted run would have. [`EngineCheckpoint`] is a complete,
//! serializable snapshot of a
//! [`DetectionEngine`](crate::stream::DetectionEngine): configuration,
//! watermark, reorder buffer, open windows, and every ingest counter.
//! [`DetectionEngine::checkpoint`](crate::stream::DetectionEngine::checkpoint)
//! produces one; [`DetectionEngine::restore`](crate::stream::DetectionEngine::restore)
//! revives an engine that continues *byte-identically* — same reports,
//! same thresholds bit-for-bit, same counters — at any thread count.
//!
//! # Serialized form
//!
//! The on-disk format is a versioned, line-oriented text file — the repo
//! deliberately takes no serialization dependency:
//!
//! ```text
//! peerwatch-checkpoint v3
//! engine window_ms=3600000 slide_ms=3600000 ... reject_invalid=0 tier=exact
//! detect with_reduction=1 tau_vol=p:4049000000000000 ... cut_fraction=3fa999999999999a
//! state watermark_ms=1234 applied_to_ms=1000 ...
//! stats attempted=100 accepted=98 ... profile_bytes=0 profiles_exact=0 profiles_sketched=0
//! deltas late=0 dropped=0 quarantined=0
//! buffer 2
//! <flow row in csvio line format>
//! <flow row in csvio line format>
//! window 7 1
//! <flow row in csvio line format>
//! end
//! checksum crc32=<8 hex digits>
//! ```
//!
//! Version 3 appends an integrity trailer as the final line —
//! `checksum crc32=<8 hex digits>` over every preceding byte — so a
//! truncated or bit-flipped snapshot is detected at restore time as a
//! typed error instead of silently parsing garbage (the line-oriented
//! format would otherwise accept many single-byte corruptions, e.g. a
//! flipped digit in a counter). Version 2 added the profile-tier knob and
//! the per-host memory gauges. Both older versions are still accepted:
//! they parse without a trailer, and v1 restores with
//! [`ProfileTier::Exact`] and zeroed memory gauges, which is exactly the
//! behaviour the engine had when the snapshot was written.
//!
//! For crash-safety beyond the atomic rename, [`write_checkpoint_retained`]
//! keeps the last *N* snapshots (`<path>.1` is the previous one, `<path>.2`
//! the one before, …) and [`read_checkpoint_recover`] walks that chain at
//! restore, returning the newest snapshot whose trailer verifies, plus an
//! accounting of everything it had to skip. A machine that loses its
//! primary checkpoint to a torn write resumes from the previous snapshot
//! and replays the gap — byte-identically, by the resume guarantee above.
//!
//! Floats (`cut_fraction`, absolute/percentile thresholds) are serialized
//! as the hexadecimal IEEE-754 bit pattern, so restore is exact — no
//! decimal round-trip can perturb a threshold and flip a verdict. Flow
//! rows reuse [`pw_flow::csvio`]'s row codec: [`EngineCheckpoint::serialize`]
//! sizes one buffer from the row count up front and appends every row into
//! it with [`push_flow`], and [`EngineCheckpoint::parse`] decodes each row
//! with [`parse_flow`].
//!
//! The `deltas` line is load-bearing: late/dropped/quarantined events are
//! attributed to the *next window to close* after the event, so a
//! checkpoint cut mid-window holds nonzero pending deltas. They ride
//! along in the snapshot and are re-armed by restore; losing them would
//! under-report the next window, re-counting them would double-report.
//! `tests/checkpoint_roundtrip.rs` sweeps a cut at every flow position
//! under every [`LatePolicy`] to pin this.
//!
//! [`write_checkpoint`] persists atomically (write to a temporary sibling,
//! then rename), so a crash mid-write leaves the previous checkpoint
//! intact; [`read_checkpoint`] refuses unknown versions and reports the
//! line number of any corruption.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use pw_flow::csvio::{parse_flow, push_flow};
use pw_flow::{FlowRecord, RowError};
use pw_netsim::{SimDuration, SimTime};

use crate::detectors::{ThetaHmConfig, ThetaHmMode, Threshold};
use crate::features::ProfileTier;
use crate::pipeline::FindPlottersConfig;
use crate::stream::{EngineConfig, EngineStats, EvictionPolicy, LatePolicy};

/// Magic first line of every checkpoint file; the version suffix gates
/// format evolution. Version 3 requires the `checksum crc32=` trailer.
pub const MAGIC: &str = "peerwatch-checkpoint v3";

/// The version-2 format, still accepted by [`EngineCheckpoint::parse`]:
/// same sections as v3 but no integrity trailer.
pub const MAGIC_V2: &str = "peerwatch-checkpoint v2";

/// The version-1 format, still accepted by [`EngineCheckpoint::parse`]:
/// no trailer, no `tier` field (implies [`ProfileTier::Exact`]), and no
/// memory gauges.
pub const MAGIC_V1: &str = "peerwatch-checkpoint v1";

/// Line prefix of the v3 integrity trailer.
const TRAILER_PREFIX: &str = "checksum crc32=";

/// Room [`EngineCheckpoint::serialize`] reserves for its section lines,
/// window headers and trailer.
const HEAD_BYTES: usize = 4096;

/// Room reserved per flow row: a campus-day row with its newline averages
/// about 100 bytes, so most snapshots fill one allocation.
const ROW_BYTES: usize = 128;

/// Appends the v3 integrity trailer: a `checksum crc32=<8 hex>` line
/// covering every byte already in `text`. Shared with the server-side
/// checkpoint format, which wraps an engine snapshot in its own trailer.
pub fn append_checksum_trailer(text: &mut String) {
    let crc = pw_flow::frame::crc32(text.as_bytes());
    text.push_str(&format!("{TRAILER_PREFIX}{crc:08x}\n"));
}

/// Verifies and strips a trailing `checksum crc32=` line, returning the
/// covered body.
///
/// # Errors
///
/// [`CheckpointError::Format`] if the final line is not a trailer (the
/// file was truncated, or the trailer itself was mangled beyond
/// recognition); [`CheckpointError::Checksum`] if the trailer parses but
/// does not match the body.
pub fn split_checksum_trailer(text: &str) -> Result<&str, CheckpointError> {
    let trimmed = text.strip_suffix('\n').unwrap_or(text);
    let body_len = trimmed.rfind('\n').map_or(0, |i| i + 1);
    let declared = trimmed[body_len..]
        .strip_prefix(TRAILER_PREFIX)
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .ok_or_else(|| CheckpointError::Format {
            line: 0,
            reason: "truncated or corrupt checkpoint: missing checksum trailer".to_string(),
        })?;
    let body = &text[..body_len];
    let computed = pw_flow::frame::crc32(body.as_bytes());
    if computed != declared {
        return Err(CheckpointError::Checksum { computed, declared });
    }
    Ok(body)
}

/// A complete snapshot of a streaming engine.
///
/// Produced by
/// [`DetectionEngine::checkpoint`](crate::stream::DetectionEngine::checkpoint),
/// consumed by
/// [`DetectionEngine::restore`](crate::stream::DetectionEngine::restore).
/// The fields are public so operators can inspect a snapshot (e.g. print
/// the watermark of a checkpoint file) without reviving an engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// The engine configuration at snapshot time (restore re-validates it).
    pub config: EngineConfig,
    /// Maximum flow start observed.
    pub watermark: SimTime,
    /// Flows starting before this instant were already applied to windows.
    pub applied_to: SimTime,
    /// Cumulative ingest accounting.
    pub stats: EngineStats,
    /// Late-flow delta awaiting the next report.
    pub window_late: u64,
    /// Dropped-flow delta awaiting the next report.
    pub window_dropped: u64,
    /// Quarantine delta awaiting the next report.
    pub window_quarantined: u64,
    /// Watermark value at the last stall check.
    pub stall_watermark: SimTime,
    /// Feed-clock instant of the last observed watermark advance.
    pub stall_progress_at: Option<SimTime>,
    /// Flows still in the reorder buffer (order-independent; restore
    /// rebuilds the buffer's canonical ordering).
    pub buffer: Vec<FlowRecord>,
    /// Open windows: `(index, flows)` in ascending index order.
    pub open: Vec<(u64, Vec<FlowRecord>)>,
}

/// Why a checkpoint could not be read.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The first line is not a supported [`MAGIC`] header.
    BadMagic {
        /// What the first line actually said.
        found: String,
    },
    /// A line did not match the expected shape.
    Format {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A serialized flow row failed to parse.
    Row(RowError),
    /// The v3 integrity trailer does not match the file body: the
    /// snapshot was corrupted after it was written.
    Checksum {
        /// CRC32 computed over the body as read.
        computed: u32,
        /// CRC32 the trailer claims.
        declared: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic { found } => write!(
                f,
                "not a peerwatch checkpoint (expected {MAGIC:?} header, found {found:?})"
            ),
            CheckpointError::Format { line, reason } => {
                write!(f, "corrupt checkpoint at line {line}: {reason}")
            }
            CheckpointError::Row(e) => write!(f, "corrupt checkpoint flow row: {e}"),
            CheckpointError::Checksum { computed, declared } => write!(
                f,
                "corrupt checkpoint: body crc32 {computed:08x} does not match trailer {declared:08x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Row(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<RowError> for CheckpointError {
    fn from(e: RowError) -> Self {
        CheckpointError::Row(e)
    }
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn threshold_str(t: Threshold) -> String {
    match t {
        Threshold::Percentile(p) => format!("p:{}", f64_hex(p)),
        Threshold::Absolute(v) => format!("a:{}", f64_hex(v)),
    }
}

fn opt_ms(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "none".to_string(),
    }
}

impl EngineCheckpoint {
    /// Serializes the snapshot into the versioned text form.
    pub fn serialize(&self) -> String {
        let c = &self.config;
        let rows = self.buffer.len() + self.open.iter().map(|(_, f)| f.len()).sum::<usize>();
        let mut out = String::with_capacity(HEAD_BYTES + rows * ROW_BYTES);
        out.push_str(MAGIC);
        out.push('\n');
        let eviction = match c.eviction {
            EvictionPolicy::WindowScoped => "window".to_string(),
            EvictionPolicy::IdleLongerThan(d) => format!("idle:{}", d.as_millis()),
        };
        let late = match c.late_policy {
            LatePolicy::Reject => "reject",
            LatePolicy::Drop => "drop",
            LatePolicy::ExtendOldest => "extend",
        };
        out.push_str(&format!(
            "engine window_ms={} slide_ms={} lateness_ms={} threads={} eviction={} \
             late_policy={} max_flows={} stall_timeout_ms={} dedupe={} reject_invalid={} \
             tier={}\n",
            c.window.as_millis(),
            c.slide.as_millis(),
            c.lateness.as_millis(),
            c.threads,
            eviction,
            late,
            opt_ms(c.max_flows.map(|n| n as u64)),
            opt_ms(c.stall_timeout.map(pw_netsim::SimDuration::as_millis)),
            u8::from(c.dedupe),
            u8::from(c.reject_invalid),
            c.tier.name(),
        ));
        out.push_str(&format!(
            "detect with_reduction={} tau_vol={} tau_churn={} tau_hm={} cut_fraction={} \
             theta_hm={} hm_tile={} hm_par_cutoff={} hm_profile={}\n",
            u8::from(c.detect.with_reduction),
            threshold_str(c.detect.tau_vol),
            threshold_str(c.detect.tau_churn),
            threshold_str(c.detect.tau_hm),
            f64_hex(c.detect.cut_fraction),
            c.detect.theta_hm.mode.name(),
            c.detect.theta_hm.tile,
            c.detect.theta_hm.par_cutoff,
            u8::from(c.detect.theta_hm.profile),
        ));
        out.push_str(&format!(
            "state watermark_ms={} applied_to_ms={} stall_watermark_ms={} stall_progress_at_ms={}\n",
            self.watermark.as_millis(),
            self.applied_to.as_millis(),
            self.stall_watermark.as_millis(),
            opt_ms(self.stall_progress_at.map(pw_netsim::SimTime::as_millis)),
        ));
        let s = self.stats;
        out.push_str(&format!(
            "stats attempted={} accepted={} late={} late_dropped={} late_extended={} shed={} \
             quarantined={} duplicates={} stall_flushes={} profile_bytes={} profiles_exact={} \
             profiles_sketched={}\n",
            s.attempted,
            s.accepted,
            s.late,
            s.late_dropped,
            s.late_extended,
            s.shed,
            s.quarantined,
            s.duplicates,
            s.stall_flushes,
            s.profile_bytes,
            s.profiles_exact,
            s.profiles_sketched,
        ));
        out.push_str(&format!(
            "deltas late={} dropped={} quarantined={}\n",
            self.window_late, self.window_dropped, self.window_quarantined,
        ));
        out.push_str(&format!("buffer {}\n", self.buffer.len()));
        for f in &self.buffer {
            push_flow(&mut out, f);
            out.push('\n');
        }
        for (index, flows) in &self.open {
            out.push_str(&format!("window {} {}\n", index, flows.len()));
            for f in flows {
                push_flow(&mut out, f);
                out.push('\n');
            }
        }
        out.push_str("end\n");
        append_checksum_trailer(&mut out);
        out
    }

    /// Parses the text form back into a snapshot.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] naming the offending line on any corruption;
    /// unknown versions are refused up front.
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        // v3 files must pass the integrity check before any line parsing;
        // older versions have no trailer to verify.
        let text = if text.starts_with(MAGIC) {
            split_checksum_trailer(text)?
        } else {
            text
        };
        let mut lines = text.lines().enumerate();
        let (_, magic) = lines.next().ok_or(CheckpointError::BadMagic {
            found: String::new(),
        })?;
        if magic != MAGIC && magic != MAGIC_V2 && magic != MAGIC_V1 {
            return Err(CheckpointError::BadMagic {
                found: magic.to_string(),
            });
        }

        let engine = section(&mut lines, "engine")?;
        let config_fields = Fields::new(engine.1, engine.0 + 1)?;
        let detect = section(&mut lines, "detect")?;
        let detect_fields = Fields::new(detect.1, detect.0 + 1)?;
        let state = section(&mut lines, "state")?;
        let state_fields = Fields::new(state.1, state.0 + 1)?;
        let stats_line = section(&mut lines, "stats")?;
        let stats_fields = Fields::new(stats_line.1, stats_line.0 + 1)?;
        let deltas = section(&mut lines, "deltas")?;
        let delta_fields = Fields::new(deltas.1, deltas.0 + 1)?;

        let config = EngineConfig {
            window: SimDuration::from_millis(config_fields.num("window_ms")?),
            slide: SimDuration::from_millis(config_fields.num("slide_ms")?),
            lateness: SimDuration::from_millis(config_fields.num("lateness_ms")?),
            threads: config_fields.num("threads")? as usize,
            eviction: config_fields.eviction()?,
            late_policy: config_fields.late_policy()?,
            max_flows: config_fields.opt_num("max_flows")?.map(|n| n as usize),
            stall_timeout: config_fields
                .opt_num("stall_timeout_ms")?
                .map(SimDuration::from_millis),
            dedupe: config_fields.flag("dedupe")?,
            reject_invalid: config_fields.flag("reject_invalid")?,
            tier: config_fields.tier()?,
            detect: FindPlottersConfig {
                with_reduction: detect_fields.flag("with_reduction")?,
                tau_vol: detect_fields.threshold("tau_vol")?,
                tau_churn: detect_fields.threshold("tau_churn")?,
                tau_hm: detect_fields.threshold("tau_hm")?,
                cut_fraction: detect_fields.f64_bits("cut_fraction")?,
                theta_hm: detect_fields.theta_hm()?,
            },
        };
        let stats = EngineStats {
            attempted: stats_fields.num("attempted")?,
            accepted: stats_fields.num("accepted")?,
            late: stats_fields.num("late")?,
            late_dropped: stats_fields.num("late_dropped")?,
            late_extended: stats_fields.num("late_extended")?,
            shed: stats_fields.num("shed")?,
            quarantined: stats_fields.num("quarantined")?,
            duplicates: stats_fields.num("duplicates")?,
            stall_flushes: stats_fields.num("stall_flushes")?,
            profile_bytes: stats_fields.num_or("profile_bytes", 0)?,
            profiles_exact: stats_fields.num_or("profiles_exact", 0)?,
            profiles_sketched: stats_fields.num_or("profiles_sketched", 0)?,
        };

        // Buffer section: "buffer <count>" then that many flow rows.
        let (buf_line, buf_rest) = section(&mut lines, "buffer")?;
        let buf_count: usize = buf_rest
            .trim()
            .parse()
            .map_err(|_| CheckpointError::Format {
                line: buf_line + 1,
                reason: format!("invalid buffer count {:?}", buf_rest.trim()),
            })?;
        let mut buffer = Vec::with_capacity(buf_count);
        for _ in 0..buf_count {
            buffer.push(flow_row(&mut lines)?);
        }

        // Zero or more "window <index> <count>" sections, then "end".
        let mut open = Vec::new();
        loop {
            let (lineno, line) = lines.next().ok_or(CheckpointError::Format {
                line: 0,
                reason: "truncated checkpoint: missing end marker".to_string(),
            })?;
            if line == "end" {
                break;
            }
            let rest = line
                .strip_prefix("window ")
                .ok_or_else(|| CheckpointError::Format {
                    line: lineno + 1,
                    reason: format!("expected window section or end marker, found {line:?}"),
                })?;
            let mut parts = rest.split_ascii_whitespace();
            let parse = |tok: Option<&str>, what: &str| -> Result<u64, CheckpointError> {
                tok.and_then(|t| t.parse().ok())
                    .ok_or_else(|| CheckpointError::Format {
                        line: lineno + 1,
                        reason: format!("invalid window {what}"),
                    })
            };
            let index = parse(parts.next(), "index")?;
            let count = parse(parts.next(), "flow count")? as usize;
            let mut flows = Vec::with_capacity(count);
            for _ in 0..count {
                flows.push(flow_row(&mut lines)?);
            }
            open.push((index, flows));
        }

        Ok(EngineCheckpoint {
            config,
            watermark: SimTime::from_millis(state_fields.num("watermark_ms")?),
            applied_to: SimTime::from_millis(state_fields.num("applied_to_ms")?),
            stats,
            window_late: delta_fields.num("late")?,
            window_dropped: delta_fields.num("dropped")?,
            window_quarantined: delta_fields.num("quarantined")?,
            stall_watermark: SimTime::from_millis(state_fields.num("stall_watermark_ms")?),
            stall_progress_at: state_fields
                .opt_num("stall_progress_at_ms")?
                .map(SimTime::from_millis),
            buffer,
            open,
        })
    }
}

/// Pulls the next line and checks its section tag, returning
/// `(0-based lineno, rest-of-line)`.
fn section<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    tag: &str,
) -> Result<(usize, &'a str), CheckpointError> {
    let (lineno, line) = lines.next().ok_or_else(|| CheckpointError::Format {
        line: 0,
        reason: format!("truncated checkpoint: missing {tag} section"),
    })?;
    let rest = line
        .strip_prefix(tag)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| CheckpointError::Format {
            line: lineno + 1,
            reason: format!("expected {tag} section, found {line:?}"),
        })?;
    Ok((lineno, rest))
}

/// Pulls the next line and parses it as a flow row.
fn flow_row<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
) -> Result<FlowRecord, CheckpointError> {
    let (lineno, line) = lines.next().ok_or(CheckpointError::Format {
        line: 0,
        reason: "truncated checkpoint: missing flow row".to_string(),
    })?;
    Ok(parse_flow(line.as_bytes(), lineno + 1)?)
}

/// `key=value` accessor over one section line.
struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
    line: usize,
}

impl<'a> Fields<'a> {
    fn new(rest: &'a str, line: usize) -> Result<Self, CheckpointError> {
        let mut pairs = Vec::new();
        for tok in rest.split_ascii_whitespace() {
            let (k, v) = tok.split_once('=').ok_or_else(|| CheckpointError::Format {
                line,
                reason: format!("expected key=value, found {tok:?}"),
            })?;
            pairs.push((k, v));
        }
        Ok(Self { pairs, line })
    }

    fn get(&self, key: &str) -> Result<&'a str, CheckpointError> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| CheckpointError::Format {
                line: self.line,
                reason: format!("missing field {key}"),
            })
    }

    fn bad(&self, key: &str, value: &str) -> CheckpointError {
        CheckpointError::Format {
            line: self.line,
            reason: format!("invalid value {value:?} for field {key}"),
        }
    }

    fn num(&self, key: &str) -> Result<u64, CheckpointError> {
        let v = self.get(key)?;
        v.parse().map_err(|_| self.bad(key, v))
    }

    /// Like [`num`](Self::num), but an *absent* key yields `default` — for
    /// fields added after v1 that older checkpoints legitimately lack. A
    /// present-but-malformed value is still an error.
    fn num_or(&self, key: &str, default: u64) -> Result<u64, CheckpointError> {
        match self.pairs.iter().find(|(k, _)| *k == key) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| self.bad(key, v)),
        }
    }

    fn opt_num(&self, key: &str) -> Result<Option<u64>, CheckpointError> {
        let v = self.get(key)?;
        if v == "none" {
            return Ok(None);
        }
        v.parse().map(Some).map_err(|_| self.bad(key, v))
    }

    fn flag(&self, key: &str) -> Result<bool, CheckpointError> {
        match self.get(key)? {
            "0" => Ok(false),
            "1" => Ok(true),
            v => Err(self.bad(key, v)),
        }
    }

    fn f64_from_hex(&self, key: &str, v: &str) -> Result<f64, CheckpointError> {
        u64::from_str_radix(v, 16)
            .map(f64::from_bits)
            .map_err(|_| self.bad(key, v))
    }

    fn f64_bits(&self, key: &str) -> Result<f64, CheckpointError> {
        let v = self.get(key)?;
        self.f64_from_hex(key, v)
    }

    fn threshold(&self, key: &str) -> Result<Threshold, CheckpointError> {
        let v = self.get(key)?;
        match v.split_once(':') {
            Some(("p", bits)) => Ok(Threshold::Percentile(self.f64_from_hex(key, bits)?)),
            Some(("a", bits)) => Ok(Threshold::Absolute(self.f64_from_hex(key, bits)?)),
            _ => Err(self.bad(key, v)),
        }
    }

    fn eviction(&self) -> Result<EvictionPolicy, CheckpointError> {
        let v = self.get("eviction")?;
        if v == "window" {
            return Ok(EvictionPolicy::WindowScoped);
        }
        if let Some(ms) = v.strip_prefix("idle:") {
            let ms: u64 = ms.parse().map_err(|_| self.bad("eviction", v))?;
            return Ok(EvictionPolicy::IdleLongerThan(SimDuration::from_millis(ms)));
        }
        Err(self.bad("eviction", v))
    }

    /// Profile tier: absent in v1 checkpoints, which ran exact profiles.
    fn tier(&self) -> Result<ProfileTier, CheckpointError> {
        match self.pairs.iter().find(|(k, _)| *k == "tier") {
            None => Ok(ProfileTier::Exact),
            Some((_, v)) => ProfileTier::from_name(v).ok_or_else(|| self.bad("tier", v)),
        }
    }

    /// Like [`flag`](Self::flag), but an absent key yields `default` — the
    /// same post-v1 compatibility contract as [`num_or`](Self::num_or).
    fn flag_or(&self, key: &str, default: bool) -> Result<bool, CheckpointError> {
        match self.pairs.iter().find(|(k, _)| *k == key) {
            None => Ok(default),
            Some((_, v)) => match *v {
                "0" => Ok(false),
                "1" => Ok(true),
                v => Err(self.bad(key, v)),
            },
        }
    }

    /// θ_hm clustering configuration: absent in checkpoints written before
    /// the bucketed mode existed, which always ran the exact path with the
    /// default tiling — exactly what [`ThetaHmConfig::default`] encodes.
    fn theta_hm(&self) -> Result<ThetaHmConfig, CheckpointError> {
        let d = ThetaHmConfig::default();
        let mode = match self.pairs.iter().find(|(k, _)| *k == "theta_hm") {
            None => d.mode,
            Some((_, v)) => ThetaHmMode::from_name(v).ok_or_else(|| self.bad("theta_hm", v))?,
        };
        Ok(ThetaHmConfig {
            mode,
            tile: self.num_or("hm_tile", d.tile as u64)? as usize,
            par_cutoff: self.num_or("hm_par_cutoff", d.par_cutoff as u64)? as usize,
            profile: self.flag_or("hm_profile", d.profile)?,
        })
    }

    fn late_policy(&self) -> Result<LatePolicy, CheckpointError> {
        match self.get("late_policy")? {
            "reject" => Ok(LatePolicy::Reject),
            "drop" => Ok(LatePolicy::Drop),
            "extend" => Ok(LatePolicy::ExtendOldest),
            v => Err(self.bad("late_policy", v)),
        }
    }
}

/// Writes `snapshot` to `path` atomically: the serialized form goes to a
/// temporary sibling (`<path>.tmp`) which is then renamed over `path`, so
/// a crash mid-write can never leave a truncated checkpoint — the previous
/// one survives intact.
pub fn write_checkpoint(path: &Path, snapshot: &EngineCheckpoint) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    fs::write(&tmp, snapshot.serialize())?;
    fs::rename(&tmp, path)
}

/// Reads a checkpoint previously persisted by [`write_checkpoint`].
pub fn read_checkpoint(path: &Path) -> Result<EngineCheckpoint, CheckpointError> {
    let text = fs::read_to_string(path)?;
    EngineCheckpoint::parse(&text)
}

/// The path of the `k`-th retained snapshot behind `path` (`k ≥ 1`):
/// `<path>.1` is the previous snapshot, `<path>.2` the one before it, …
pub fn retained_path(path: &Path, k: usize) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(format!(".{k}"));
    std::path::PathBuf::from(os)
}

/// Atomically persists `text` to `path`, first rotating the existing
/// snapshot chain down one slot (`path` → `path.1` → … → `path.retain`,
/// dropping the oldest). With `retain = 0` this is a plain atomic
/// overwrite. Shared by the engine and server checkpoint writers.
pub fn write_text_retained(path: &Path, text: &str, retain: usize) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    fs::write(&tmp, text)?;
    if retain > 0 && path.exists() {
        for k in (1..=retain).rev() {
            let src = if k == 1 {
                path.to_path_buf()
            } else {
                retained_path(path, k - 1)
            };
            if src.exists() {
                // A failed rotation only shortens history; the fresh
                // snapshot still lands atomically below.
                let _ = fs::rename(&src, retained_path(path, k));
            }
        }
    }
    fs::rename(&tmp, path)
}

/// [`write_checkpoint`] plus retention: keeps the previous `retain`
/// snapshots as `<path>.1 … <path>.retain` so restore can fall back past
/// a corrupted primary.
pub fn write_checkpoint_retained(
    path: &Path,
    snapshot: &EngineCheckpoint,
    retain: usize,
) -> io::Result<()> {
    write_text_retained(path, &snapshot.serialize(), retain)
}

/// A snapshot recovered by walking the retained chain, plus an exact
/// account of what had to be skipped to reach it.
#[derive(Debug)]
pub struct Recovered<T> {
    /// The newest snapshot that read and verified cleanly.
    pub snapshot: T,
    /// How many slots the recovery walked past: 0 means the primary was
    /// good, `k` means it resumed from `<path>.k`.
    pub fallbacks: u32,
    /// The newer snapshots that were skipped, with why each failed.
    pub skipped: Vec<(std::path::PathBuf, CheckpointError)>,
}

/// Walks `path`, `<path>.1`, …, `<path>.retain` and returns the first
/// snapshot that `parse` accepts — the newest verifiable one. Generic so
/// the server checkpoint (a different parse, same retention scheme) can
/// reuse the walk.
///
/// # Errors
///
/// The *primary's* error if nothing in the chain is readable — that is
/// the failure an operator needs to see first.
pub fn recover_with<T>(
    path: &Path,
    retain: usize,
    parse: impl Fn(&str) -> Result<T, CheckpointError>,
) -> Result<Recovered<T>, CheckpointError> {
    let mut skipped: Vec<(std::path::PathBuf, CheckpointError)> = Vec::new();
    for k in 0..=retain {
        let p = if k == 0 {
            path.to_path_buf()
        } else {
            retained_path(path, k)
        };
        let outcome = fs::read_to_string(&p)
            .map_err(CheckpointError::from)
            .and_then(|text| parse(&text));
        match outcome {
            Ok(snapshot) => {
                return Ok(Recovered {
                    snapshot,
                    fallbacks: k as u32,
                    skipped,
                });
            }
            Err(e) => skipped.push((p, e)),
        }
    }
    Err(skipped.swap_remove(0).1)
}

/// [`read_checkpoint`] plus recovery: on a truncated or corrupt primary,
/// falls back to the newest verifiable snapshot among the `retain`
/// retained copies written by [`write_checkpoint_retained`].
pub fn read_checkpoint_recover(
    path: &Path,
    retain: usize,
) -> Result<Recovered<EngineCheckpoint>, CheckpointError> {
    recover_with(path, retain, EngineCheckpoint::parse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::DetectionEngine;
    use pw_flow::{FlowState, Payload, Proto};
    use std::net::Ipv4Addr;

    fn internal(ip: Ipv4Addr) -> bool {
        ip.octets()[0] == 10
    }

    fn flow(k: u64) -> FlowRecord {
        FlowRecord {
            start: SimTime::from_secs(k * 40),
            end: SimTime::from_secs(k * 40 + 1),
            src: Ipv4Addr::new(10, 1, 0, (k % 5) as u8 + 1),
            sport: 40_000 + k as u16,
            dst: Ipv4Addr::new(60, 0, (k % 7) as u8, 1),
            dport: 80,
            proto: Proto::Tcp,
            src_pkts: 3,
            src_bytes: 100 + k,
            dst_pkts: 2,
            dst_bytes: 4_000,
            state: if k.is_multiple_of(4) {
                FlowState::SynNoAnswer
            } else {
                FlowState::Established
            },
            payload: Payload::capture(b"GET /"),
        }
    }

    fn busy_engine() -> DetectionEngine<fn(Ipv4Addr) -> bool> {
        let cfg = EngineConfig {
            window: SimDuration::from_mins(10),
            slide: SimDuration::from_mins(5),
            lateness: SimDuration::from_mins(3),
            max_flows: Some(10_000),
            stall_timeout: Some(SimDuration::from_mins(30)),
            detect: FindPlottersConfig {
                cut_fraction: 0.07,
                tau_vol: Threshold::Absolute(1234.5),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut eng = DetectionEngine::new(cfg, internal as fn(Ipv4Addr) -> bool).unwrap();
        for k in 0..40 {
            let _ = eng.push(flow(k));
        }
        eng.tick(SimTime::from_secs(1));
        eng
    }

    #[test]
    fn serialize_parse_round_trips_exactly() {
        let snap = busy_engine().checkpoint();
        assert!(!snap.buffer.is_empty() || !snap.open.is_empty());
        let parsed = EngineCheckpoint::parse(&snap.serialize()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn restore_continues_byte_identically() {
        // Uninterrupted run.
        let mut straight = busy_engine();
        let mut expected = Vec::new();
        for k in 40..80 {
            expected.extend(straight.push(flow(k)).unwrap());
        }
        expected.extend(straight.finish());

        // Checkpoint → serialize → parse → restore, then feed the rest.
        let snap = busy_engine().checkpoint();
        let revived = EngineCheckpoint::parse(&snap.serialize()).unwrap();
        let mut resumed =
            DetectionEngine::restore(&revived, internal as fn(Ipv4Addr) -> bool).unwrap();
        assert_eq!(resumed.stats(), snap.stats);
        let mut got = Vec::new();
        for k in 40..80 {
            got.extend(resumed.push(flow(k)).unwrap());
        }
        got.extend(resumed.finish());
        assert_eq!(got, expected);
        assert_eq!(resumed.stats(), straight.stats());
    }

    #[test]
    fn file_round_trip_is_atomic_and_exact() {
        let snap = busy_engine().checkpoint();
        let dir = std::env::temp_dir().join("pw-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.ckpt");
        write_checkpoint(&path, &snap).unwrap();
        assert!(
            !path.with_extension("ckpt.tmp").exists(),
            "tmp file renamed away"
        );
        let read = read_checkpoint(&path).unwrap();
        assert_eq!(read, snap);
        // Overwrite goes through the same atomic path.
        write_checkpoint(&path, &read).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_checkpoints_restore_as_exact_tier() {
        let snap = busy_engine().checkpoint();
        // Rewrite a v2 snapshot into the v1 form: old magic, no tier field,
        // no memory gauges.
        let v1: String = snap
            .serialize()
            .replacen(MAGIC, MAGIC_V1, 1)
            .lines()
            .map(|l| {
                let l = if l.starts_with("engine ") {
                    l.split(" tier=").next().unwrap()
                } else if l.starts_with("stats ") {
                    l.split(" profile_bytes=").next().unwrap()
                } else {
                    l
                };
                format!("{l}\n")
            })
            .collect();
        let parsed = EngineCheckpoint::parse(&v1).unwrap();
        assert_eq!(parsed.config.tier, ProfileTier::Exact);
        assert_eq!(parsed.stats.profile_bytes, 0);
        assert_eq!(parsed.stats.profiles_sketched, 0);
        // Apart from the gauges a v1 file cannot carry, nothing is lost.
        let mut expected = snap;
        expected.stats.profile_bytes = 0;
        expected.stats.profiles_exact = 0;
        expected.stats.profiles_sketched = 0;
        assert_eq!(parsed, expected);
        assert!(DetectionEngine::restore(&parsed, internal as fn(Ipv4Addr) -> bool).is_ok());
    }

    #[test]
    fn theta_hm_config_round_trips_exactly() {
        use crate::detectors::{BucketedHmParams, ThetaHmConfig, ThetaHmMode};
        let mut eng = busy_engine();
        let snap = eng.checkpoint();
        let theta = ThetaHmConfig {
            mode: ThetaHmMode::Bucketed(BucketedHmParams {
                exact_below: 1000,
                target_bucket: 300,
                quantiles: 24,
                kmeans_rounds: 3,
            }),
            tile: 96,
            par_cutoff: 200,
            profile: true,
        };
        let mut snap = snap;
        snap.config.detect.theta_hm = theta;
        let parsed = EngineCheckpoint::parse(&snap.serialize()).unwrap();
        assert_eq!(parsed.config.detect.theta_hm, theta);
        assert_eq!(parsed, snap);
        drop(eng.finish());
    }

    #[test]
    fn checkpoints_without_theta_hm_fields_restore_as_exact() {
        use crate::detectors::ThetaHmConfig;
        let snap = busy_engine().checkpoint();
        // Rewrite the snapshot into the pre-bucketed form: strip the θ_hm
        // fields off the detect line (they were appended last).
        let old: String = snap
            .serialize()
            .lines()
            .map(|l| {
                let l = if l.starts_with("detect ") {
                    l.split(" theta_hm=").next().unwrap()
                } else {
                    l
                };
                format!("{l}\n")
            })
            .collect();
        // The checksum trailer no longer matches the edited body, so parse
        // the v2 form (no trailer) instead — same line grammar.
        let old = old.replacen(MAGIC, MAGIC_V2, 1);
        let old = old.lines().filter(|l| !l.starts_with("checksum ")).fold(
            String::new(),
            |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            },
        );
        let parsed = EngineCheckpoint::parse(&old).unwrap();
        assert_eq!(parsed.config.detect.theta_hm, ThetaHmConfig::default());
        let mut expected = snap;
        expected.config.detect.theta_hm = ThetaHmConfig::default();
        assert_eq!(parsed, expected);
    }

    #[test]
    fn malformed_theta_hm_fields_are_refused() {
        let snap = busy_engine().checkpoint();
        let bad = snap.serialize().replacen(MAGIC, MAGIC_V2, 1);
        let bad: String = bad
            .lines()
            .filter(|l| !l.starts_with("checksum "))
            .map(|l| {
                let l = if l.starts_with("detect ") {
                    l.replace("theta_hm=exact", "theta_hm=warp")
                } else {
                    l.to_string()
                };
                format!("{l}\n")
            })
            .collect();
        let err = EngineCheckpoint::parse(&bad).unwrap_err();
        assert!(err.to_string().contains("theta_hm"));
    }

    #[test]
    fn unknown_version_and_corruption_are_refused() {
        let err = EngineCheckpoint::parse("peerwatch-checkpoint v99\n").unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic { .. }));
        assert!(err.to_string().contains("v99"));

        let snap = busy_engine().checkpoint();
        // On a v3 file, any body edit trips the checksum before line
        // parsing ever sees it.
        let text = snap
            .serialize()
            .replacen("watermark_ms=", "watermark_ms=bogus", 1);
        let err = EngineCheckpoint::parse(&text).unwrap_err();
        assert!(matches!(err, CheckpointError::Checksum { .. }), "{err}");
        // A v2 file (no trailer) still gets the line-numbered diagnosis.
        let text = snap.serialize().replacen(MAGIC, MAGIC_V2, 1).replacen(
            "watermark_ms=",
            "watermark_ms=bogus",
            1,
        );
        let text = text
            .strip_suffix('\n')
            .and_then(|t| t.rsplit_once('\n'))
            .map(|(body, _trailer)| format!("{body}\n"))
            .unwrap();
        let err = EngineCheckpoint::parse(&text).unwrap_err();
        assert!(matches!(err, CheckpointError::Format { .. }));
        assert!(err.to_string().contains("line"), "{err}");

        let truncated: String = snap
            .serialize()
            .lines()
            .take(7)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(EngineCheckpoint::parse(&truncated).is_err());
    }
}
