//! Checkpoint/restore for the streaming engine.
//!
//! A long-running monitor must survive restarts without replaying a whole
//! day of flows and without emitting different verdicts than an
//! uninterrupted run would have. [`EngineCheckpoint`] is a complete,
//! serializable snapshot of a
//! [`DetectionEngine`](crate::stream::DetectionEngine): configuration,
//! watermark, reorder buffer, window log, and every ingest counter.
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
//! peerwatch-checkpoint v7
//! engine window_ms=3600000 slide_ms=3600000 ... reject_invalid=0 tier=exact
//! detect with_reduction=1 tau_vol=p:4049000000000000 ... cut_fraction=3fa999999999999a
//! state watermark_ms=1234 applied_to_ms=1000 ...
//! stats attempted=100 accepted=98 ... profile_bytes=0 profiles_exact=0 profiles_sketched=0
//! deltas late=0 dropped=0 quarantined=0
//! buffer 2
//! <flow row in csvio line format>
//! <flow row in csvio line format>
//! log 3
//! <flow row in csvio line format>
//! <flow row in csvio line format>
//! <flow row in csvio line format>
//! end
//! checksum crc32=<8 hex digits>
//! ```
//!
//! `buffer N` lists the reorder buffer in drain order. `log N` lists every
//! flow applied to the open windows once, in canonical order
//! ([`FlowRecord::canonical_key`]); window `I` holds the logged flows
//! starting inside `[I·slide, I·slide + window)`, so a sliding window's
//! flows are not written once per window. The open windows are not
//! listed: they are the windows that cover a logged flow and end after
//! `applied_to`, and restore opens them from the log.
//!
//! # Layouts `parse` refuses
//!
//! The engine never repairs its state, so [`EngineCheckpoint::parse`]
//! refuses every layout no engine writes, with a
//! [`CheckpointError::Format`] naming the offending row:
//!
//! - a buffered flow that starts before `applied_to`, or a logged one that
//!   starts at or after it: drained flows must land behind every logged
//!   one, or windows that took those in would miss them;
//! - a log out of canonical order, which the window ranges' binary
//!   searches rely on;
//! - a logged flow whose covering windows have all ended by `applied_to`:
//!   the log drops a flow once all its windows have closed.
//!
//! The fields these checks compare are private, so a snapshot reaches
//! [`DetectionEngine::restore`](crate::stream::DetectionEngine::restore)
//! only in a layout `parse` accepts or an engine wrote.
//!
//! The final line is an integrity trailer — `checksum crc32=<8 hex
//! digits>` over every preceding byte — so a truncated or bit-flipped
//! snapshot is detected at restore time as a typed error instead of
//! silently parsing garbage (the line-oriented format would otherwise
//! accept many single-byte corruptions, e.g. a flipped digit in a
//! counter). Every field is required. The format has one version, v7:
//! [`EngineCheckpoint::parse`] checks the header before anything else and
//! refuses any other with [`CheckpointError::BadMagic`].
//!
//! Checkpoints have one I/O path. [`write_text_retained`] persists
//! atomically (write to a temporary sibling, then rename), so a crash
//! mid-write leaves the previous checkpoint intact, and keeps the last *N*
//! snapshots (`<path>.1` is the previous one, `<path>.2` the one before,
//! …). [`read_checkpoint_recover`] walks that chain at restore, returning
//! the newest snapshot whose trailer verifies, plus an accounting of
//! everything it had to skip. With `retain = 0` they are the plain atomic
//! write and read. A machine that loses its primary checkpoint to a torn
//! write resumes from the previous snapshot and replays the gap —
//! byte-identically, by the resume guarantee above.
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
//! `tests/checkpoint_roundtrip.rs` sweeps a cut at every flow position to
//! pin this.

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
use crate::stream::{covering, EngineConfig, EngineStats};

/// Magic first line of every checkpoint file; the version suffix gates
/// format evolution, and any other version is refused.
pub const MAGIC: &str = "peerwatch-checkpoint v7";

/// Line prefix of the integrity trailer.
const TRAILER_PREFIX: &str = "checksum crc32=";

/// Room [`EngineCheckpoint::serialize`] reserves for its section lines
/// and trailer.
const HEAD_BYTES: usize = 4096;

/// Room reserved per flow row: a campus-day row with its newline averages
/// about 100 bytes, so most snapshots fill one allocation.
const ROW_BYTES: usize = 128;

/// Appends the integrity trailer: a `checksum crc32=<8 hex>` line
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
/// [`DetectionEngine::checkpoint`](crate::stream::DetectionEngine::checkpoint)
/// or [`parse`](Self::parse), consumed by
/// [`DetectionEngine::restore`](crate::stream::DetectionEngine::restore).
/// The watermark and the counters are public fields, so operators can
/// inspect a snapshot (e.g. print the watermark of a checkpoint file)
/// without reviving an engine. The configuration, `applied_to` and the
/// rows, which `parse` checks against one another (see the [module
/// docs](self)), are private; accessors read the configuration and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// The engine configuration at snapshot time (restore re-validates it).
    pub(crate) config: EngineConfig,
    /// Maximum flow start observed.
    pub watermark: SimTime,
    /// Flows starting before this instant were already applied to windows.
    pub(crate) applied_to: SimTime,
    /// Cumulative ingest accounting.
    pub stats: EngineStats,
    /// Late-flow delta awaiting the next report.
    pub window_late: u64,
    /// Dropped-flow delta awaiting the next report.
    pub window_dropped: u64,
    /// Quarantine delta awaiting the next report.
    pub window_quarantined: u64,
    /// Flows still in the reorder buffer, in drain order.
    pub(crate) buffer: Vec<FlowRecord>,
    /// Every flow applied to the open windows, once, in canonical order.
    pub(crate) log: Vec<FlowRecord>,
}

/// Why a checkpoint could not be read.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The first line is not the [`MAGIC`] header: not a checkpoint, or
    /// one of another version.
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
    /// The integrity trailer does not match the file body: the
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
    /// The engine configuration at snapshot time (restore re-validates it).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Flows still in the reorder buffer, in drain order: flows with equal
    /// keys in arrival order.
    pub fn buffer(&self) -> &[FlowRecord] {
        &self.buffer
    }

    /// Every flow applied to the open windows, once, in canonical order.
    /// The open windows are those that cover one of these flows and end
    /// after the flows applied so far.
    pub fn log(&self) -> &[FlowRecord] {
        &self.log
    }

    /// Serializes the snapshot into the versioned text form.
    pub fn serialize(&self) -> String {
        let c = &self.config;
        let rows = self.buffer.len() + self.log.len();
        let mut out = String::with_capacity(HEAD_BYTES + rows * ROW_BYTES);
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!(
            "engine window_ms={} slide_ms={} lateness_ms={} threads={} \
             max_flows={} dedupe={} reject_invalid={} tier={}\n",
            c.window.as_millis(),
            c.slide.as_millis(),
            c.lateness.as_millis(),
            c.threads,
            opt_ms(c.max_flows.map(|n| n as u64)),
            u8::from(c.dedupe),
            u8::from(c.reject_invalid),
            c.tier.name(),
        ));
        out.push_str(&format!(
            "detect with_reduction={} tau_vol={} tau_churn={} tau_hm={} cut_fraction={} \
             theta_hm={} hm_profile={}\n",
            u8::from(c.detect.with_reduction),
            threshold_str(c.detect.tau_vol),
            threshold_str(c.detect.tau_churn),
            threshold_str(c.detect.tau_hm),
            f64_hex(c.detect.cut_fraction),
            c.detect.theta_hm.mode.name(),
            u8::from(c.detect.theta_hm.profile),
        ));
        out.push_str(&format!(
            "state watermark_ms={} applied_to_ms={}\n",
            self.watermark.as_millis(),
            self.applied_to.as_millis(),
        ));
        let s = self.stats;
        out.push_str(&format!(
            "stats attempted={} accepted={} late={} shed={} \
             quarantined={} duplicates={} profile_bytes={} profiles_exact={} \
             profiles_sketched={}\n",
            s.attempted,
            s.accepted,
            s.late,
            s.shed,
            s.quarantined,
            s.duplicates,
            s.profile_bytes,
            s.profiles_exact,
            s.profiles_sketched,
        ));
        out.push_str(&format!(
            "deltas late={} dropped={} quarantined={}\n",
            self.window_late, self.window_dropped, self.window_quarantined,
        ));
        out.push_str(&format!("buffer {}\n", self.buffer.len()));
        push_rows(&mut out, &self.buffer);
        out.push_str(&format!("log {}\n", self.log.len()));
        push_rows(&mut out, &self.log);
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
        // The header decides the format; the body must then pass the
        // integrity check before any line parsing.
        check_magic(text, MAGIC)?;
        let text = split_checksum_trailer(text)?;
        let total_lines = text.lines().count();
        let mut lines = text.lines().enumerate().skip(1);

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
            max_flows: config_fields.opt_num("max_flows")?.map(|n| n as usize),
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
            shed: stats_fields.num("shed")?,
            quarantined: stats_fields.num("quarantined")?,
            duplicates: stats_fields.num("duplicates")?,
            profile_bytes: stats_fields.num("profile_bytes")?,
            profiles_exact: stats_fields.num("profiles_exact")?,
            profiles_sketched: stats_fields.num("profiles_sketched")?,
        };

        // "buffer <count>" and "log <count>", each followed by its rows.
        let mut counted_rows = |tag: &str| -> Result<(usize, Vec<FlowRecord>), CheckpointError> {
            let (header, rest) = section(&mut lines, tag)?;
            let count: usize = rest.trim().parse().map_err(|_| CheckpointError::Format {
                line: header + 1,
                reason: format!("invalid {tag} count {:?}", rest.trim()),
            })?;
            Ok((header, flow_rows(&mut lines, count, header, total_lines)?))
        };
        let (buffer_header, buffer) = counted_rows("buffer")?;
        let (log_header, log) = counted_rows("log")?;
        let (lineno, line) = lines.next().ok_or(CheckpointError::Format {
            line: 0,
            reason: "truncated checkpoint: missing end marker".to_string(),
        })?;
        if line != "end" {
            return Err(CheckpointError::Format {
                line: lineno + 1,
                reason: format!("expected end marker, found {line:?}"),
            });
        }

        let snapshot = EngineCheckpoint {
            config,
            watermark: SimTime::from_millis(state_fields.num("watermark_ms")?),
            applied_to: SimTime::from_millis(state_fields.num("applied_to_ms")?),
            stats,
            window_late: delta_fields.num("late")?,
            window_dropped: delta_fields.num("dropped")?,
            window_quarantined: delta_fields.num("quarantined")?,
            buffer,
            log,
        };
        // A section's first row is two lines below its 0-based header.
        snapshot.check_layout(buffer_header + 2, log_header + 2)?;
        Ok(snapshot)
    }

    /// Refuses a layout no engine writes (see the module docs), naming the
    /// first offending row: `first_buffered` and `first_logged` are the
    /// 1-based lines of the first buffered and logged rows.
    fn check_layout(
        &self,
        first_buffered: usize,
        first_logged: usize,
    ) -> Result<(), CheckpointError> {
        let (window, slide, applied) = (self.config.window, self.config.slide, self.applied_to);
        let bound = format!("applied_to_ms={}", applied.as_millis());
        let refuse = |line, reason| Err(CheckpointError::Format { line, reason });
        // The oldest window that ends after `applied_to`. Restore refuses
        // an invalid configuration before it reads a row, so only a valid
        // one's window geometry is checked.
        let first_open = self
            .config
            .validate()
            .is_ok()
            .then(|| *covering(applied, window, slide).start());
        if let Some(row) = self.buffer.iter().position(|f| f.start < applied) {
            let reason = format!("buffered flow starts before {bound}");
            return refuse(first_buffered + row, reason);
        }
        let mut prev = None;
        for (row, f) in self.log.iter().enumerate() {
            let refused = |why: String| {
                let start = f.start.as_millis();
                refuse(
                    first_logged + row,
                    format!("logged flow starting at {start} ms {why}"),
                )
            };
            if prev
                .replace(f)
                .is_some_and(|p| f.canonical_key() < p.canonical_key())
            {
                return refused("is out of canonical order".to_owned());
            }
            if f.start >= applied {
                return refused(format!("is not before {bound}"));
            }
            if first_open.is_some_and(|first| *covering(f.start, window, slide).end() < first) {
                return refused("lies only in windows that have ended".to_owned());
            }
        }
        Ok(())
    }
}

fn push_rows(out: &mut String, rows: &[FlowRecord]) {
    for f in rows {
        push_flow(out, f);
        out.push('\n');
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

/// Refuses `text` unless its first line is exactly `magic`. Run before
/// anything else reads the text, so a file of another version or kind is
/// a [`CheckpointError::BadMagic`] whatever else it holds.
///
/// # Errors
///
/// [`CheckpointError::BadMagic`] naming the first line found.
pub fn check_magic(text: &str, magic: &str) -> Result<(), CheckpointError> {
    let first = text.lines().next().unwrap_or("");
    if first == magic {
        Ok(())
    } else {
        Err(CheckpointError::BadMagic {
            found: first.to_string(),
        })
    }
}

/// Pulls the `count` flow rows that follow the section header on 0-based
/// line `header` of a `total`-line text. `count` comes from the file, so
/// it is checked against the lines left before anything is reserved: a
/// forged count is a format error, not a huge allocation.
fn flow_rows<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    count: usize,
    header: usize,
    total: usize,
) -> Result<Vec<FlowRecord>, CheckpointError> {
    let left = total.saturating_sub(header + 1);
    if count > left {
        return Err(CheckpointError::Format {
            line: header + 1,
            reason: format!("{count} flow rows declared but only {left} lines follow"),
        });
    }
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let (lineno, line) = lines.next().ok_or(CheckpointError::Format {
            line: 0,
            reason: "truncated checkpoint: missing flow row".to_string(),
        })?;
        rows.push(parse_flow(line.as_bytes(), lineno + 1)?);
    }
    Ok(rows)
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

    fn tier(&self) -> Result<ProfileTier, CheckpointError> {
        let v = self.get("tier")?;
        ProfileTier::from_name(v).ok_or_else(|| self.bad("tier", v))
    }

    fn theta_hm(&self) -> Result<ThetaHmConfig, CheckpointError> {
        let mode = self.get("theta_hm")?;
        Ok(ThetaHmConfig {
            mode: ThetaHmMode::from_name(mode).ok_or_else(|| self.bad("theta_hm", mode))?,
            profile: self.flag("hm_profile")?,
        })
    }
}

/// The path of the `k`-th retained snapshot behind `path` (`k ≥ 1`):
/// `<path>.1` is the previous snapshot, `<path>.2` the one before it, …
pub fn retained_path(path: &Path, k: usize) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(format!(".{k}"));
    std::path::PathBuf::from(os)
}

/// Whether any snapshot of the chain at `path` is on disk: the primary or
/// one of the `retain` snapshots behind it. A resuming run recovers from
/// the chain when this holds and starts afresh when it does not.
pub fn chain_exists(path: &Path, retain: usize) -> bool {
    path.exists() || (1..=retain).any(|k| retained_path(path, k).exists())
}

/// The most previous snapshots a checkpoint chain may keep behind its
/// primary. Writing, recovering and probing a chain each walk every slot,
/// so `serve` and windowed `findplotters` refuse a larger
/// `--checkpoint-retain` before they touch the disk.
pub const MAX_CHECKPOINT_RETAIN: usize = 64;

/// Atomically persists `text` to `path`: the text goes to a temporary
/// sibling (`<path>.tmp`) which is then renamed over `path`. The existing
/// snapshot chain first rotates down one slot (`path` → `path.1` → … →
/// `path.retain`, dropping the oldest); with `retain = 0` this is a plain
/// atomic overwrite. The one writer of engine and server checkpoints.
///
/// The write is atomic against a killed process: one killed at any point
/// leaves every snapshot in the chain whole, never a truncated one. It
/// calls no `fsync`, so it does not promise durability across a power
/// loss or a kernel crash, after which a rename may have reached the disk
/// before the data it names. On ext4 with `auto_da_alloc` (the default),
/// the one rename of a full chain that replaces an existing file
/// (`path.1` → `path.2` at `retain = 2`) makes the kernel flush the
/// renamed snapshot, and that flush can cost more than the rest of a
/// checkpoint (see DESIGN.md "Checkpoint/restore").
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
/// snapshot that `parse` accepts — the newest verifiable one. The one
/// reader of engine and server checkpoints; with `retain = 0` it is a
/// plain read of `path`.
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

/// Reads the engine checkpoint at `path` through [`recover_with`]: on a
/// truncated or corrupt primary, falls back to the newest verifiable
/// snapshot among the `retain` retained copies written by
/// [`write_text_retained`].
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

    /// Applies `edit` to the body of a serialized checkpoint and seals it
    /// with a fresh trailer, so the edit reaches the line parser.
    fn resealed(text: &str, edit: impl FnOnce(&str) -> String) -> String {
        let mut body = edit(split_checksum_trailer(text).unwrap());
        append_checksum_trailer(&mut body);
        body
    }

    fn busy_engine() -> DetectionEngine<fn(Ipv4Addr) -> bool> {
        let cfg = EngineConfig {
            window: SimDuration::from_mins(10),
            slide: SimDuration::from_mins(5),
            lateness: SimDuration::from_mins(3),
            max_flows: Some(10_000),
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
        eng
    }

    #[test]
    fn serialize_parse_round_trips_exactly() {
        let snap = busy_engine().checkpoint();
        assert!(!snap.buffer.is_empty() && !snap.log.is_empty());
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
        write_text_retained(&path, &snap.serialize(), 0).unwrap();
        assert!(
            !path.with_extension("ckpt.tmp").exists(),
            "tmp file renamed away"
        );
        let read = read_checkpoint_recover(&path, 0).unwrap();
        assert_eq!(read.fallbacks, 0);
        assert_eq!(read.snapshot, snap);
        // Overwrite goes through the same atomic path.
        write_text_retained(&path, &read.snapshot.serialize(), 0).unwrap();
        assert_eq!(read_checkpoint_recover(&path, 0).unwrap().snapshot, snap);
        assert!(
            !retained_path(&path, 1).exists(),
            "retain = 0 keeps no history"
        );
        std::fs::remove_file(&path).ok();
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
    fn malformed_theta_hm_fields_are_refused() {
        let text = busy_engine().checkpoint().serialize();
        let bad = resealed(&text, |body| {
            body.replacen("theta_hm=exact", "theta_hm=warp", 1)
        });
        let err = EngineCheckpoint::parse(&bad).unwrap_err();
        assert!(err.to_string().contains("theta_hm"));
        // Every field is required: dropping the θ_hm fields is refused too.
        let bad = resealed(&text, |body| {
            body.lines()
                .map(|l| match l.split_once(" theta_hm=") {
                    Some((head, _)) if l.starts_with("detect ") => format!("{head}\n"),
                    _ => format!("{l}\n"),
                })
                .collect()
        });
        let err = EngineCheckpoint::parse(&bad).unwrap_err();
        assert!(matches!(err, CheckpointError::Format { .. }), "{err}");
        assert!(err.to_string().contains("missing field theta_hm"), "{err}");
    }

    #[test]
    fn unknown_version_and_corruption_are_refused() {
        let err = EngineCheckpoint::parse("peerwatch-checkpoint v99\n").unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic { .. }));
        assert!(err.to_string().contains("v99"));

        let snap = busy_engine().checkpoint();
        // Older versions are refused by their header, whatever follows it:
        // a v7 body, resealed or not, under a v1 to v6 header.
        for old in [
            "peerwatch-checkpoint v1",
            "peerwatch-checkpoint v2",
            "peerwatch-checkpoint v3",
            "peerwatch-checkpoint v4",
            "peerwatch-checkpoint v5",
            "peerwatch-checkpoint v6",
        ] {
            let unsealed = snap.serialize().replacen(MAGIC, old, 1);
            let sealed = resealed(&snap.serialize(), |body| body.replacen(MAGIC, old, 1));
            for text in [unsealed, sealed] {
                let err = EngineCheckpoint::parse(&text).unwrap_err();
                assert!(
                    matches!(&err, CheckpointError::BadMagic { found } if found == old),
                    "{old}: {err}"
                );
            }
        }

        // Any body edit trips the checksum before line parsing sees it.
        let text = snap
            .serialize()
            .replacen("watermark_ms=", "watermark_ms=bogus", 1);
        let err = EngineCheckpoint::parse(&text).unwrap_err();
        assert!(matches!(err, CheckpointError::Checksum { .. }), "{err}");
        // Resealed, the same edit gets the line-numbered diagnosis.
        let text = resealed(&snap.serialize(), |body| {
            body.replacen("watermark_ms=", "watermark_ms=bogus", 1)
        });
        let err = EngineCheckpoint::parse(&text).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Format { line: 4, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("line"), "{err}");

        let truncated: String = snap
            .serialize()
            .lines()
            .take(7)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(EngineCheckpoint::parse(&truncated).is_err());
    }

    /// Rewrites the lines of a resealed copy of `text` with `edit`.
    fn edit_lines(text: &str, edit: impl FnOnce(&mut Vec<String>)) -> String {
        resealed(text, |body| {
            let mut lines: Vec<String> = body.lines().map(str::to_owned).collect();
            edit(&mut lines);
            lines.iter().map(|l| format!("{l}\n")).collect()
        })
    }

    /// 0-based line of the first line starting with `prefix`.
    fn line_of(lines: &[String], prefix: &str) -> usize {
        lines.iter().position(|l| l.starts_with(prefix)).unwrap()
    }

    #[test]
    fn log_is_written_once_and_restore_reopens_its_windows() {
        let eng = busy_engine();
        assert!(eng.open_windows() > 1, "sliding windows overlap");
        let snap = eng.checkpoint();
        // Overlapping windows count a flow twice, and the file holds it once.
        let rows = snap.buffer.len() + snap.log.len();
        assert!(eng.held_flows() > rows, "{} held", eng.held_flows());
        let text = snap.serialize();
        let body = split_checksum_trailer(&text).unwrap();
        let flow_rows = body
            .lines()
            .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
            .count();
        assert_eq!(flow_rows, rows);
        assert!(body.contains(&format!("\nlog {}\n", snap.log.len())));
        assert!(body.ends_with("\nend\n"), "{body}");
        // The log reopens the windows that were open, holding as much.
        let revived = DetectionEngine::restore(&snap, internal as fn(Ipv4Addr) -> bool).unwrap();
        assert_eq!(revived.open_windows(), eng.open_windows());
        assert_eq!(revived.held_flows(), eng.held_flows());
    }

    #[test]
    fn log_out_of_order_is_refused() {
        let text = busy_engine().checkpoint().serialize();
        // Two log rows swapped: the second of them is out of order.
        let mut second = 0;
        let bad = edit_lines(&text, |lines| {
            let first = line_of(lines, "log ") + 1;
            lines.swap(first, first + 1);
            second = first + 2;
        });
        match EngineCheckpoint::parse(&bad) {
            Err(CheckpointError::Format { line, reason }) => {
                assert_eq!(line, second, "{reason}");
                assert!(reason.contains("canonical order"), "{reason}");
            }
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn layouts_no_engine_writes_are_refused_on_their_line() {
        // No engine writes these layouts. An engine restored from one would
        // have to repair it: insert a logged flow behind rows its windows
        // had taken in, or hold a flow no open window covers.
        let snap = busy_engine().checkpoint();
        // `parse` refuses the snapshot `s` on the line that reads `at`.
        let refused_on = |s: &EngineCheckpoint, at: &str, why: &str| {
            let text = s.serialize();
            let at = text.lines().position(|l| l == at).unwrap() + 1;
            match EngineCheckpoint::parse(&text) {
                Err(CheckpointError::Format { line, reason }) => {
                    assert_eq!(line, at, "{reason}");
                    assert!(reason.contains(why), "{reason}");
                }
                other => panic!("expected a format error, got {other:?}"),
            }
        };
        let row = |f: &FlowRecord| {
            let mut row = String::new();
            push_flow(&mut row, f);
            row
        };
        // The first buffered flow moved into the log.
        let mut moved = snap.clone();
        let first = moved.buffer.remove(0);
        moved.log.push(first);
        refused_on(&moved, &row(&first), "not before applied_to");

        // The last logged flow moved into the buffer.
        let mut moved = snap.clone();
        let last = moved.log.pop().unwrap();
        moved.buffer.insert(0, last);
        refused_on(&moved, &row(&last), "before applied_to");

        // `applied_to` moved back past the last logged flow.
        let mut moved = snap.clone();
        moved.applied_to = last.start;
        refused_on(&moved, &row(&last), "not before applied_to");

        // A logged flow older than every open window: all of its windows
        // have ended.
        let mut moved = snap.clone();
        let stale = FlowRecord {
            start: SimTime::ZERO,
            end: SimTime::from_secs(1),
            ..snap.log[0]
        };
        moved.log.insert(0, stale);
        refused_on(&moved, &row(&stale), "only in windows that have ended");
    }
}
