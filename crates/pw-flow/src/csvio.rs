//! CSV persistence for flow-record datasets.
//!
//! A deliberately simple, dependency-free line format (one record per line,
//! hex-encoded payload) so datasets can be saved, inspected with standard
//! tools, and reloaded for the multi-day experiments.
//!
//! [`read_flows_lossy`] is the one reader. Malformed rows come back as
//! typed [`RowError`]s (line number, offending field, reason) alongside the
//! rows that did parse, so a live feed with a corrupt record keeps flowing
//! and the damage can be quarantined instead of killing the monitor; a
//! caller that wants a clean file checks that there are none.
//!
//! [`push_flow`] and [`parse_flow`] are the single-row codec; the streaming
//! engine's checkpoint format reuses them verbatim. Both work on bytes and
//! make no allocation per row: `push_flow` appends decimal digits, dotted
//! quads and payload hex to the caller's buffer, and `parse_flow` decodes
//! a row as the writer wrote it in one pass, with hand-written decimal,
//! IPv4 and hex decoders.
//!
//! # Reading in blocks
//!
//! After the header, every complete line the reader's buffer holds is
//! parsed in place, as one block, and then consumed; only a line that does
//! not end inside the buffer is read into a reused line buffer. Line ends
//! are found a 64-bit word at a time.
//! A block of 2 MiB or more is cut after line ends into at most
//! `std::thread::available_parallelism` pieces of at least 1 MiB: the
//! calling thread parses the first piece while scoped threads parse the
//! rest, and their rows and errors are appended in piece order, with line
//! numbers counted across the pieces. So rows, errors and line numbers do
//! not depend on the core count or on the reader's buffer size. A file
//! reaches the cut when read through a [`READ_CAPACITY`] buffer; a slice
//! is one block.
//!
//! # Row grammar
//!
//! The first line is [`HEADER`]. Every later non-blank line, ending in `\n`
//! or `\r\n`, is one row of [`FIELDS`] comma-separated fields in the
//! header's order:
//!
//! - `start_ms`, `end_ms`, `src_pkts`, `src_bytes`, `dst_pkts` and
//!   `dst_bytes` are `u64`, `sport` and `dport` are `u16`, all in decimal;
//! - `src` and `dst` are dotted-quad IPv4 addresses;
//! - `proto` is `tcp` or `udp`, and `state` is a [`FlowState`] token
//!   (`EST`, `SYN`, `REJ`, `RSTD`, `UDPR` or `UDPS`);
//! - `payload_hex` is an even number of hex digits, possibly none; bytes
//!   past the 64th are dropped, as [`Payload::capture`] does.
//!
//! A field is accepted exactly when the standard library accepts it:
//! `u64`/`u16`/[`Ipv4Addr`] `from_str`, and `u8::from_str_radix(pair, 16)`
//! on each hex pair. The hand-written decoders take the forms the writer
//! emits (plain digits, dotted quads without leading zeros, hex digits).
//! A row they decline is split at its commas and every field goes to the
//! standard parsers, whose answer stands. So rarer forms such as `+5`
//! still parse as they always have, and every error is the standard
//! parser's.
//!
//! # Errors
//!
//! A rejected row becomes a [`RowError`] carrying its 1-based line number:
//! the header is line 1, and blank lines count. A row without exactly
//! [`FIELDS`] fields reports [`ParseError::WrongFieldCount`]. Otherwise the
//! first bad field in the order `proto`, `state`, `payload_hex`,
//! `start_ms`, `end_ms`, `src`, `sport`, `dst`, `dport`, `src_pkts`,
//! `src_bytes`, `dst_pkts`, `dst_bytes` is reported with its raw text, and
//! the standard parser's message on that slice is the reason.
//!
//! # UTF-8
//!
//! The hand-written decoders accept ASCII bytes only, so a row they
//! accept is valid UTF-8 by construction and is never checked. Only a row
//! they decline is checked, on its way to the standard parsers, which work
//! on text. If it is not UTF-8, they get its lossy text (each bad sequence
//! replaced by U+FFFD), so its error still names a field and carries
//! printable text. Such a row is quarantined like any other instead of
//! failing the whole load.

use std::io::{self, BufRead, Write};
use std::net::Ipv4Addr;
use std::str::FromStr;

use pw_netsim::SimTime;

use crate::packet::{Payload, Proto};
use crate::record::{FlowRecord, FlowState, ParseError};

/// Column header written by [`write_flows`].
pub const HEADER: &str =
    "start_ms,end_ms,src,sport,dst,dport,proto,src_pkts,src_bytes,dst_pkts,dst_bytes,state,payload_hex";

/// Fields per row in the flow CSV format.
pub const FIELDS: usize = 13;

/// One malformed row: where it was and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowError {
    /// 1-based line number in the source stream.
    pub line: usize,
    /// What was wrong ([`ParseError::field`] names the offending column,
    /// when one is identifiable).
    pub error: ParseError,
}

impl std::fmt::Display for RowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.error)
    }
}

impl std::error::Error for RowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Error raised while parsing a flow CSV.
#[derive(Debug)]
pub enum ParseFlowError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The first line was not the expected [`HEADER`].
    BadHeader {
        /// What the first line actually said (lossily decoded if it was
        /// not UTF-8).
        found: String,
    },
}

impl std::fmt::Display for ParseFlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseFlowError::Io(e) => write!(f, "i/o error reading flow csv: {e}"),
            ParseFlowError::BadHeader { found } => {
                write!(f, "unexpected flow csv header `{found}`")
            }
        }
    }
}

impl std::error::Error for ParseFlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseFlowError::Io(e) => Some(e),
            ParseFlowError::BadHeader { .. } => None,
        }
    }
}

impl From<io::Error> for ParseFlowError {
    fn from(e: io::Error) -> Self {
        ParseFlowError::Io(e)
    }
}

/// Lower-case hex digit of each nibble value.
const HEX_DIGITS: [u8; 16] = *b"0123456789abcdef";

/// Nibble value of every byte that is a hex digit (either case); 0xFF,
/// which no nibble has, for the rest.
const HEX_VALUES: [u8; 256] = {
    let mut table = [0xFF; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Appends `v` in decimal.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Appends `ip` as a dotted quad.
fn push_ipv4(out: &mut String, ip: Ipv4Addr) {
    for (i, octet) in ip.octets().into_iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        push_decimal(out, u64::from(octet));
    }
}

/// Appends one record to `out` as a CSV row, without a line terminator, in
/// the exact format [`write_flows`] emits and [`parse_flow`] reads back.
/// Nothing is allocated beyond `out`'s own growth.
pub fn push_flow(out: &mut String, r: &FlowRecord) {
    push_decimal(out, r.start.as_millis());
    out.push(',');
    push_decimal(out, r.end.as_millis());
    out.push(',');
    push_ipv4(out, r.src);
    out.push(',');
    push_decimal(out, u64::from(r.sport));
    out.push(',');
    push_ipv4(out, r.dst);
    out.push(',');
    push_decimal(out, u64::from(r.dport));
    out.push(',');
    out.push_str(r.proto.name());
    for count in [r.src_pkts, r.src_bytes, r.dst_pkts, r.dst_bytes] {
        out.push(',');
        push_decimal(out, count);
    }
    out.push(',');
    out.push_str(r.state.name());
    out.push(',');
    for &b in r.payload.as_bytes() {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xF)]));
    }
}

/// Parses one CSV row (as written by [`push_flow`], without its line
/// terminator) into a record.
///
/// # Errors
///
/// Returns a [`RowError`] carrying `lineno` and the offending field, as
/// the [module documentation](self) describes.
pub fn parse_flow(line: &[u8], lineno: usize) -> Result<FlowRecord, RowError> {
    match decode_written(line) {
        Some(r) => Ok(r),
        // Only a row the fast decoder declines is checked for UTF-8: one it
        // accepts is ASCII by construction.
        None => decode_any(&String::from_utf8_lossy(line)).map_err(|error| RowError {
            line: lineno,
            error,
        }),
    }
}

/// The fast path: decodes a row in the form [`push_flow`] writes, field by
/// field in one pass, with hand-written decimal, IPv4 and hex decoders.
/// `None` for anything else — a form only the standard parsers accept, or
/// a bad row — which [`decode_any`] then judges.
fn decode_written(line: &[u8]) -> Option<FlowRecord> {
    let mut rest = line;
    let start = take_decimal(&mut rest)?;
    let end = take_decimal(&mut rest)?;
    let src = take_ipv4(&mut rest)?;
    let sport = u16::try_from(take_decimal(&mut rest)?).ok()?;
    let dst = take_ipv4(&mut rest)?;
    let dport = u16::try_from(take_decimal(&mut rest)?).ok()?;
    let proto = Proto::from_token(take_token(&mut rest)?)?;
    let src_pkts = take_decimal(&mut rest)?;
    let src_bytes = take_decimal(&mut rest)?;
    let dst_pkts = take_decimal(&mut rest)?;
    let dst_bytes = take_decimal(&mut rest)?;
    let state = FlowState::from_token(take_token(&mut rest)?)?;
    // The payload is the rest of the row: a further comma is not hex.
    if !rest.len().is_multiple_of(2) {
        return None;
    }
    let mut payload = [0u8; Payload::MAX];
    for (i, pair) in rest.chunks_exact(2).enumerate() {
        let (hi, lo) = (
            HEX_VALUES[usize::from(pair[0])],
            HEX_VALUES[usize::from(pair[1])],
        );
        if (hi | lo) >= 16 {
            return None;
        }
        if let Some(slot) = payload.get_mut(i) {
            *slot = (hi << 4) | lo;
        }
    }
    Some(FlowRecord {
        start: SimTime::from_millis(start),
        end: SimTime::from_millis(end),
        src,
        sport,
        dst,
        dport,
        proto,
        src_pkts,
        src_bytes,
        dst_pkts,
        dst_bytes,
        state,
        payload: Payload::capture(&payload[..(rest.len() / 2).min(Payload::MAX)]),
    })
}

/// Takes the decimal digits before the next comma, and the comma. At most
/// 19 digits, so the value cannot overflow.
fn take_decimal(rest: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for (i, &b) in rest.iter().enumerate() {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            if b != b',' || i == 0 || i > 19 {
                return None;
            }
            *rest = rest.get(i + 1..)?;
            return Some(v);
        }
        v = v.wrapping_mul(10).wrapping_add(u64::from(digit));
    }
    None
}

/// Takes a dotted quad and the comma after it: four octets of one to three
/// digits, without the leading zeros `Ipv4Addr::from_str` refuses.
fn take_ipv4(rest: &mut &[u8]) -> Option<Ipv4Addr> {
    let mut octets = [0u8; 4];
    for (k, octet) in octets.iter_mut().enumerate() {
        let stop = if k == 3 { b',' } else { b'.' };
        let (mut value, mut digits) = (0u32, 0);
        loop {
            let &b = rest.get(digits)?;
            if b == stop {
                break;
            }
            let digit = b.wrapping_sub(b'0');
            if digit > 9 || digits == 3 || (digits > 0 && value == 0) {
                return None;
            }
            value = value * 10 + u32::from(digit);
            digits += 1;
        }
        if digits == 0 {
            return None;
        }
        *octet = u8::try_from(value).ok()?;
        *rest = rest.get(digits + 1..)?;
    }
    Some(Ipv4Addr::from(octets))
}

/// Takes an enum token (at most four bytes) and the comma after it.
fn take_token<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = rest.iter().take(5).position(|&b| b == b',')?;
    let token = rest.get(..len)?;
    *rest = rest.get(len + 1..)?;
    Some(token)
}

/// The general path: splits the row's text at its commas and parses every
/// field with the standard parsers, in the order that decides which bad
/// field is reported.
fn decode_any(line: &str) -> Result<FlowRecord, ParseError> {
    let mut fields = [""; FIELDS];
    let mut got = 0usize;
    for col in line.split(',') {
        if let Some(slot) = fields.get_mut(got) {
            *slot = col;
        }
        got += 1;
    }
    if got != FIELDS {
        return Err(ParseError::WrongFieldCount {
            expected: FIELDS,
            got,
        });
    }
    let [start, end, src, sport, dst, dport, proto, src_pkts, src_bytes, dst_pkts, dst_bytes, state, payload] =
        fields;
    let proto: Proto = proto.parse()?;
    let state: FlowState = state.parse()?;
    let payload = parse_payload(payload)?;
    Ok(FlowRecord {
        start: SimTime::from_millis(parse_field(start, "start_ms")?),
        end: SimTime::from_millis(parse_field(end, "end_ms")?),
        src: parse_field(src, "src")?,
        sport: parse_field(sport, "sport")?,
        dst: parse_field(dst, "dst")?,
        dport: parse_field(dport, "dport")?,
        proto,
        src_pkts: parse_field(src_pkts, "src_pkts")?,
        src_bytes: parse_field(src_bytes, "src_bytes")?,
        dst_pkts: parse_field(dst_pkts, "dst_pkts")?,
        dst_bytes: parse_field(dst_bytes, "dst_bytes")?,
        state,
        payload,
    })
}

fn invalid(field: &'static str, value: &str, reason: String) -> ParseError {
    ParseError::InvalidField {
        field,
        value: value.to_owned(),
        reason,
    }
}

fn parse_field<T>(s: &str, field: &'static str) -> Result<T, ParseError>
where
    T: FromStr,
    T::Err: ToString,
{
    s.parse()
        .map_err(|e: T::Err| invalid(field, s, e.to_string()))
}

/// `u8::from_str_radix(pair, 16)` on each pair, keeping the first
/// [`Payload::MAX`] bytes. A pair that splits a multi-byte character is
/// judged on its lossy text, so it fails as an invalid digit.
fn parse_payload(s: &str) -> Result<Payload, ParseError> {
    if !s.len().is_multiple_of(2) {
        return Err(invalid(
            "payload_hex",
            s,
            "odd-length hex payload".to_owned(),
        ));
    }
    let mut payload = [0u8; Payload::MAX];
    for (i, pair) in s.as_bytes().chunks_exact(2).enumerate() {
        let byte = u8::from_str_radix(&String::from_utf8_lossy(pair), 16)
            .map_err(|e| invalid("payload_hex", s, e.to_string()))?;
        if let Some(slot) = payload.get_mut(i) {
            *slot = byte;
        }
    }
    Ok(Payload::capture(
        &payload[..(s.len() / 2).min(Payload::MAX)],
    ))
}

/// Bytes [`write_flows`] gathers before each write to its sink.
const WRITE_CHUNK: usize = 64 * 1024;

/// Writes `flows` (preceded by [`HEADER`]) to `w`.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_flows<W: Write>(mut w: W, flows: &[FlowRecord]) -> io::Result<()> {
    let mut buf = String::with_capacity(2 * WRITE_CHUNK);
    buf.push_str(HEADER);
    buf.push('\n');
    for r in flows {
        push_flow(&mut buf, r);
        buf.push('\n');
        if buf.len() >= WRITE_CHUNK {
            w.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    w.write_all(buf.as_bytes())
}

/// Capacity of the `BufReader` a flow CSV file should be read through:
/// the reader parses every complete line the buffer holds as one block,
/// and only a block of at least `SPLIT_BYTES` (2 MiB) is cut across
/// cores. A reader over a slice hands over the whole slice at once.
pub const READ_CAPACITY: usize = 4 << 20;

/// A block this long or longer is cut into pieces parsed at the same time.
const SPLIT_BYTES: usize = 2 << 20;

/// Every piece but the last is longer than this.
const MIN_PIECE_BYTES: usize = 1 << 20;

/// The shortest row [`push_flow`] writes, with its `\n`: one-digit numbers,
/// `0.0.0.0` twice, a three-letter state and no payload. A worker's row
/// vector starts with room for its piece's bytes over this, plus one.
const MIN_ROW_BYTES: usize = 41;

/// Index of the first `\n` in `bytes`, searched a 64-bit word at a time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let (words, tail) = bytes.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        // A byte equal to `\n` is zero after the xor, and the lowest zero
        // byte of a word is the lowest byte this sets the high bit of.
        let x = u64::from_le_bytes(*word) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(i * 8 + (zeros.trailing_zeros() / 8) as usize);
        }
    }
    let at = words.len() * 8;
    tail.iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// Takes the next line off `rest` without its `\n` or `\r\n` terminator,
/// as `BufRead::lines` would: a last line without `\n` keeps every byte.
fn take_line<'a>(rest: &mut &'a [u8]) -> &'a [u8] {
    match find_newline(rest) {
        Some(at) => {
            let (line, tail) = rest.split_at(at);
            *rest = tail.get(1..).unwrap_or_default();
            line.strip_suffix(b"\r").unwrap_or(line)
        }
        None => std::mem::take(rest),
    }
}

/// Parses every line of `piece`, numbered from `lineno + 1`: a row that
/// parses goes to `rows`, one that does not to `bad`, and blank lines are
/// skipped. Returns the number of lines taken.
fn parse_piece(
    mut piece: &[u8],
    lineno: usize,
    rows: &mut Vec<FlowRecord>,
    bad: &mut Vec<RowError>,
) -> usize {
    let mut lines = 0;
    while !piece.is_empty() {
        let line = take_line(&mut piece);
        lines += 1;
        if line.is_empty() {
            continue;
        }
        match parse_flow(line, lineno + lines) {
            Ok(f) => rows.push(f),
            Err(e) => bad.push(e),
        }
    }
    lines
}

/// Cuts `block` into at most `pieces` pieces, each but the last ending
/// with the first line end past `block.len() / n` bytes, where `n` keeps
/// every share at least [`MIN_PIECE_BYTES`] long. A block shorter than
/// [`SPLIT_BYTES`] stays whole.
fn cut_block(block: &[u8], pieces: usize) -> Vec<&[u8]> {
    let n = if block.len() < SPLIT_BYTES {
        1
    } else {
        pieces.min(block.len() / MIN_PIECE_BYTES).max(1)
    };
    let share = block.len() / n;
    let mut cut = Vec::with_capacity(n);
    let mut rest = block;
    while cut.len() + 1 < n {
        let Some(at) = rest.get(share..).and_then(find_newline) else {
            break;
        };
        let (piece, tail) = rest.split_at(share + at + 1);
        if tail.is_empty() {
            break;
        }
        cut.push(piece);
        rest = tail;
    }
    cut.push(rest);
    cut
}

/// What one worker parsed of its piece, in numbering that starts at 0.
struct Parsed {
    rows: Vec<FlowRecord>,
    bad: Vec<RowError>,
    lines: usize,
}

/// Parses `block`, whose lines follow line `lineno`, as [`parse_piece`]
/// does, and returns the number of its last line. The block is cut by
/// [`cut_block`]; the calling thread parses the first piece straight into
/// `rows` while scoped threads parse the others into vectors allocated
/// here, which are appended in piece order with their error lines moved
/// past the pieces before them. So rows, errors and line numbers do not
/// depend on `pieces`.
fn parse_block(
    block: &[u8],
    lineno: usize,
    pieces: usize,
    rows: &mut Vec<FlowRecord>,
    bad: &mut Vec<RowError>,
) -> usize {
    let cut = cut_block(block, pieces);
    let [first, rest @ ..] = cut.as_slice() else {
        return lineno;
    };
    if rest.is_empty() {
        return lineno + parse_piece(first, lineno, rows, bad);
    }
    let mut parsed: Vec<Parsed> = rest
        .iter()
        .map(|piece| Parsed {
            // Capacity no row touches costs address space, not memory.
            rows: Vec::with_capacity(piece.len() / MIN_ROW_BYTES + 1),
            bad: Vec::new(),
            lines: 0,
        })
        .collect();
    let mut at = std::thread::scope(|scope| {
        let workers: Vec<_> = rest
            .iter()
            .zip(&mut parsed)
            .map(|(&piece, out)| {
                scope.spawn(move || {
                    out.lines = parse_piece(piece, 0, &mut out.rows, &mut out.bad);
                })
            })
            .collect();
        let lines = parse_piece(first, lineno, rows, bad);
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        lineno + lines
    });
    for mut piece in parsed {
        rows.append(&mut piece.rows);
        bad.extend(piece.bad.into_iter().map(|e| RowError {
            line: e.line + at,
            ..e
        }));
        at += piece.lines;
    }
    at
}

/// The block loop, cutting each large block into at most `pieces` pieces.
/// After the header it parses every complete line the reader's buffer
/// holds in place, as one block, and consumes it; only a line that does not
/// end inside the buffer is read into a line buffer of its own.
fn read_rows<R: BufRead>(
    mut r: R,
    pieces: usize,
) -> Result<(Vec<FlowRecord>, Vec<RowError>), ParseFlowError> {
    let (mut rows, mut bad) = (Vec::new(), Vec::new());
    let mut line = Vec::new();
    if r.read_until(b'\n', &mut line)? == 0 {
        return Ok((rows, bad));
    }
    let header = take_line(&mut line.as_slice());
    if header != HEADER.as_bytes() {
        return Err(ParseFlowError::BadHeader {
            found: String::from_utf8_lossy(header).into_owned(),
        });
    }
    let mut lineno = 1;
    loop {
        let buf = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if let Some(end) = buf.iter().rposition(|&b| b == b'\n') {
            lineno = parse_block(&buf[..=end], lineno, pieces, &mut rows, &mut bad);
            r.consume(end + 1);
        } else if buf.is_empty() {
            break;
        } else {
            line.clear();
            r.read_until(b'\n', &mut line)?;
            lineno += parse_piece(&line, lineno, &mut rows, &mut bad);
        }
    }
    Ok((rows, bad))
}

/// Reads flows previously written by [`write_flows`], tolerantly: rows
/// that parse are returned, rows that do not come back as [`RowError`]s in
/// line order for the caller to quarantine, and the load itself never
/// fails on row content.
///
/// Each block of complete lines the reader's buffer holds is parsed in
/// place, and a block of 2 MiB or more is cut across the cores
/// `std::thread::available_parallelism` reports (read files through a
/// [`READ_CAPACITY`] buffer to reach that size). The result does not depend
/// on the core count or the reader's capacity.
///
/// # Errors
///
/// Only I/O failures and a wrong header abort the read — a damaged header
/// means the whole file is in the wrong format, not that one row is bad.
pub fn read_flows_lossy<R: BufRead>(
    r: R,
) -> Result<(Vec<FlowRecord>, Vec<RowError>), ParseFlowError> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    read_rows(r, cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;

    fn sample() -> Vec<FlowRecord> {
        vec![
            FlowRecord {
                start: SimTime::from_millis(1000),
                end: SimTime::from_millis(2500),
                src: Ipv4Addr::new(10, 1, 0, 5),
                sport: 40000,
                dst: Ipv4Addr::new(8, 8, 8, 8),
                dport: 53,
                proto: Proto::Udp,
                src_pkts: 1,
                src_bytes: 70,
                dst_pkts: 1,
                dst_bytes: 200,
                state: FlowState::UdpReplied,
                payload: Payload::capture(b"query\x00\x01"),
            },
            FlowRecord {
                start: SimTime::from_millis(5000),
                end: SimTime::from_millis(5000),
                src: Ipv4Addr::new(10, 2, 3, 4),
                sport: 50000,
                dst: Ipv4Addr::new(1, 2, 3, 4),
                dport: 8,
                proto: Proto::Tcp,
                src_pkts: 3,
                src_bytes: 120,
                dst_pkts: 0,
                dst_bytes: 0,
                state: FlowState::SynNoAnswer,
                payload: Payload::empty(),
            },
        ]
    }

    fn row(f: &FlowRecord) -> String {
        let mut s = String::new();
        push_flow(&mut s, f);
        s
    }

    /// The one row error of a file holding `row` after the header.
    fn only_error(row: &str) -> RowError {
        let (ok, mut bad) = read_flows_lossy(format!("{HEADER}\n{row}\n").as_bytes()).unwrap();
        assert!(ok.is_empty() && bad.len() == 1, "{ok:?} {bad:?}");
        bad.remove(0)
    }

    #[test]
    fn round_trip() {
        let flows = sample();
        let mut buf = Vec::new();
        write_flows(&mut buf, &flows).unwrap();
        let (back, bad) = read_flows_lossy(buf.as_slice()).unwrap();
        assert!(bad.is_empty());
        assert_eq!(back, flows);
    }

    #[test]
    fn line_codec_round_trips() {
        for f in sample() {
            assert_eq!(parse_flow(row(&f).as_bytes(), 1).unwrap(), f);
        }
        assert_eq!(
            row(&sample()[0]),
            "1000,2500,10.1.0.5,40000,8.8.8.8,53,udp,1,70,1,200,UDPR,71756572790001"
        );
    }

    #[test]
    fn extreme_values_round_trip() {
        let f = FlowRecord {
            start: SimTime::from_millis(u64::MAX),
            end: SimTime::from_millis(0),
            src: Ipv4Addr::new(255, 255, 255, 255),
            sport: u16::MAX,
            dst: Ipv4Addr::new(0, 0, 0, 0),
            dport: 0,
            src_pkts: u64::MAX,
            payload: Payload::capture(&[0xAB; 64]),
            ..sample()[0]
        };
        assert_eq!(parse_flow(row(&f).as_bytes(), 1).unwrap(), f);
    }

    #[test]
    fn accepts_every_form_the_std_parsers_accept() {
        let line = b"+1000,0002500,10.1.0.5,+40000,8.8.8.8,053,udp,1,70,1,200,UDPR,+f00AB";
        let f = parse_flow(line, 1).unwrap();
        assert_eq!(f.start, SimTime::from_millis(1000));
        assert_eq!(f.end, SimTime::from_millis(2500));
        assert_eq!((f.sport, f.dport), (40000, 53));
        assert_eq!(f.payload.as_bytes(), &[0x0f, 0x00, 0xab]);
        // A 20-digit counter is past the fast decoder but still a u64.
        let big = b"18446744073709551615,1,10.1.0.5,1,8.8.8.8,2,tcp,1,1,1,1,EST,";
        assert_eq!(parse_flow(big, 1).unwrap().start.as_millis(), u64::MAX);
    }

    #[test]
    fn refuses_what_the_std_parsers_refuse() {
        let good = "1,2,10.0.0.1,1,10.0.0.2,2,tcp,1,40,0,0,SYN,ab";
        assert!(parse_flow(good.as_bytes(), 1).is_ok());
        for (col, bad) in [
            (0, ""),
            (1, "-2"),
            (2, "10.0.256.1"),
            (2, "10.0.0"),
            (2, "10.0.0.1.2"),
            (2, "1000.0.0.1"),
            (2, "10.01.0.5"),
            (3, "65536"),
            (4, "10..0.2"),
            (6, "tc"),
            (10, "0x0"),
            (11, "SYNN"),
            (12, "abc"),
            (12, "a,b"),
        ] {
            let mut cols: Vec<&str> = good.split(',').collect();
            cols[col] = bad;
            let row = cols.join(",");
            let err = parse_flow(row.as_bytes(), 1).unwrap_err().error;
            let expected = if bad.contains(',') {
                None
            } else {
                HEADER.split(',').nth(col)
            };
            assert_eq!(err.field(), expected, "{row}: {err}");
        }
        let over = b"18446744073709551616,1,10.1.0.5,1,8.8.8.8,2,tcp,1,1,1,1,EST,";
        assert_eq!(
            parse_flow(over, 1).unwrap_err().error,
            ParseError::InvalidField {
                field: "start_ms",
                value: "18446744073709551616".to_owned(),
                reason: "number too large to fit in target type".to_owned(),
            }
        );
    }

    #[test]
    fn non_utf8_rows_are_judged_on_their_lossy_text() {
        // Two bytes of a three-byte sequence decode to one U+FFFD, so the
        // payload is odd-length text although it is two bytes long.
        let line = b"1,2,10.0.0.1,1,10.0.0.2,2,tcp,1,40,0,0,SYN,\xE2\x82";
        assert_eq!(
            parse_flow(line, 7).unwrap_err(),
            RowError {
                line: 7,
                error: ParseError::InvalidField {
                    field: "payload_hex",
                    value: "\u{FFFD}".to_owned(),
                    reason: "odd-length hex payload".to_owned(),
                },
            }
        );
    }

    #[test]
    fn empty_round_trip() {
        let mut buf = Vec::new();
        write_flows(&mut buf, &[]).unwrap();
        // Entirely empty input is also fine.
        for file in [buf.as_slice(), b""] {
            let (ok, bad) = read_flows_lossy(file).unwrap();
            assert!(ok.is_empty() && bad.is_empty());
        }
    }

    #[test]
    fn rejects_bad_header() {
        // The whole file is in the wrong format, not one row.
        let e = read_flows_lossy(&b"nope\n"[..]).unwrap_err();
        assert!(e.to_string().contains("header"));
    }

    #[test]
    fn rejects_wrong_field_count() {
        let e = only_error("1,2,3");
        assert!(e.to_string().contains("line 2"));
        assert!(e.to_string().contains("13 fields"));
    }

    #[test]
    fn rejects_bad_payload_hex() {
        let e = only_error("1,2,10.0.0.1,1,10.0.0.2,2,tcp,1,40,0,0,SYN,zz");
        assert_eq!(e.error.field(), Some("payload_hex"));
    }

    #[test]
    fn rejects_non_ascii_payload_without_panicking() {
        let mut buf = format!("{HEADER}\n");
        buf.push_str("1,2,10.0.0.1,1,10.0.0.2,2,tcp,1,40,0,0,SYN,aéb\n");
        let (ok, bad) = read_flows_lossy(buf.as_bytes()).unwrap();
        assert!(ok.is_empty());
        assert_eq!(
            bad,
            vec![RowError {
                line: 2,
                error: ParseError::InvalidField {
                    field: "payload_hex",
                    value: "aéb".to_owned(),
                    reason: "invalid digit found in string".to_owned(),
                },
            }]
        );
    }

    #[test]
    fn rejects_bad_state() {
        let e = only_error("1,2,10.0.0.1,1,10.0.0.2,2,tcp,1,40,0,0,WAT,");
        assert!(e.to_string().contains("WAT"));
    }

    #[test]
    fn row_errors_name_line_and_field() {
        let e = only_error("1,2,10.0.0.1,notaport,10.0.0.2,2,tcp,1,40,0,0,SYN,");
        assert_eq!(e.line, 2);
        assert_eq!(e.error.field(), Some("sport"));
        assert!(e.to_string().contains("notaport"));
    }

    #[test]
    fn lossy_read_quarantines_bad_rows_and_keeps_good_ones() {
        let flows = sample();
        let mut buf = Vec::new();
        write_flows(&mut buf, &flows).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("1,2,3\n"); // line 4: field count
        text.push_str(&row(&flows[0]));
        text.push('\n'); // line 5: fine
        text.push_str("1,2,10.0.0.1,1,10.0.0.2,2,tcp,1,40,0,0,WAT,\n"); // line 6: state
        let (ok, bad) = read_flows_lossy(text.as_bytes()).unwrap();
        assert_eq!(ok.len(), 3);
        assert_eq!(ok[2], flows[0]);
        assert_eq!(bad.len(), 2);
        assert_eq!(bad[0].line, 4);
        assert_eq!(
            bad[0].error,
            ParseError::WrongFieldCount {
                expected: 13,
                got: 3
            }
        );
        assert_eq!(bad[1].line, 6);
        assert_eq!(bad[1].error.field(), Some("state"));
    }

    #[test]
    fn a_non_utf8_byte_quarantines_only_its_row() {
        let flows = sample();
        let mut buf = Vec::new();
        write_flows(&mut buf, &[flows[0], flows[1], flows[0]]).unwrap();
        // Line 3 is the second row; put a 0xFF inside its `src` field.
        let at = buf
            .split(|&b| b == b'\n')
            .take(2)
            .map(|l| l.len() + 1)
            .sum::<usize>()
            + "5000,5000,10".len();
        buf.insert(at, 0xFF);
        let (ok, bad) = read_flows_lossy(buf.as_slice()).unwrap();
        assert_eq!(ok, vec![flows[0], flows[0]]);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].line, 3);
        assert_eq!(bad[0].error.field(), Some("src"));
        assert!(
            bad[0].to_string().contains("10\u{FFFD}.2.3.4"),
            "{}",
            bad[0]
        );
    }

    #[test]
    fn line_endings_match_bufread_lines() {
        let flows = sample();
        let mut text = format!("{HEADER}\r\n");
        text.push_str(&row(&flows[0]));
        text.push_str("\r\n\r\n");
        text.push_str(&row(&flows[1]));
        // The last line has no `\n`, so its bare `\r` is kept, as
        // `BufRead::lines` keeps it: a row of one field.
        text.push_str("\n\r");
        let (ok, bad) = read_flows_lossy(text.as_bytes()).unwrap();
        assert_eq!(ok, flows);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].line, 5);
        assert_eq!(
            bad[0].error,
            ParseError::WrongFieldCount {
                expected: 13,
                got: 1
            }
        );
    }

    #[test]
    fn skips_blank_lines() {
        let flows = sample();
        let mut buf = Vec::new();
        write_flows(&mut buf, &flows).unwrap();
        buf.extend_from_slice(b"\n\n");
        let (ok, bad) = read_flows_lossy(buf.as_slice()).unwrap();
        assert_eq!((ok.len(), bad.len()), (2, 0));
    }

    #[test]
    fn newline_search_finds_the_first_newline_at_every_offset() {
        // Fillers that differ from `\n` only in the high bit, and by one.
        for filler in [b'\n' ^ 0x80, b'\n' + 1] {
            for len in 0..40 {
                for at in 0..=len {
                    let mut bytes = vec![filler; len];
                    if at < len {
                        bytes[at] = b'\n';
                        // A second newline later must not be the one found.
                        bytes[len - 1] = b'\n';
                    }
                    let want = bytes.iter().position(|&b| b == b'\n');
                    assert_eq!(find_newline(&bytes), want, "len {len}, at {at}");
                }
            }
        }
    }

    /// Header and rows of the sample flows, each with its own start of at
    /// least seven digits, until the file passes `bytes`; the last row
    /// has no `\n`.
    fn tiled(bytes: usize) -> Vec<u8> {
        let flows = sample();
        let mut text = format!("{HEADER}\n");
        let mut i = 0;
        while text.len() < bytes {
            let f = FlowRecord {
                start: SimTime::from_millis(1_000_000 + i),
                ..flows[(i % 2) as usize]
            };
            push_flow(&mut text, &f);
            text.push('\n');
            i += 1;
        }
        text.pop();
        text.into_bytes()
    }

    /// What the readers hand [`parse_block`] of a slice: every line after
    /// the header up to the last `\n`, and where that starts in `text`.
    fn block_of(text: &[u8]) -> (usize, &[u8]) {
        let from = HEADER.len() + 1;
        let end = text.iter().rposition(|&b| b == b'\n').unwrap();
        (from, &text[from..=end])
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum AtCut {
        Blank,
        CrLf,
        Bad,
    }

    /// Rewrites the line starting at `at` in place, keeping its length:
    /// its first byte becomes a blank line (the rest still a row), or moves
    /// to a `\r` before the `\n`, or becomes a bad `start_ms`.
    fn damage_line(text: &mut Vec<u8>, at: usize, kind: AtCut) {
        let len = text[at..].iter().position(|&b| b == b'\n').unwrap() + 1;
        match kind {
            AtCut::Blank => text[at] = b'\n',
            AtCut::CrLf => {
                text.remove(at);
                text.insert(at + len - 2, b'\r');
            }
            AtCut::Bad => text[at] = b'x',
        }
    }

    /// What the first line of `piece` is, if it is one of the [`AtCut`]s.
    fn first_line_kind(piece: &[u8]) -> Option<AtCut> {
        let line = &piece[..piece.iter().position(|&b| b == b'\n').unwrap()];
        if line.is_empty() {
            Some(AtCut::Blank)
        } else if line.ends_with(b"\r") {
            Some(AtCut::CrLf)
        } else if parse_flow(line, 1).is_err() {
            Some(AtCut::Bad)
        } else {
            None
        }
    }

    #[test]
    fn block_parse_is_the_same_at_every_piece_count() {
        // Past eight pieces of the minimum, so every count up to 8 cuts it
        // that many times.
        let mut text = tiled(8 * MIN_PIECE_BYTES + 4096);
        let (from, block) = block_of(&text);
        let mut cuts: Vec<usize> = (2..=8)
            .flat_map(|n| {
                let pieces = cut_block(block, n);
                assert_eq!(pieces.len(), n);
                pieces[1..]
                    .iter()
                    .map(|p| p.as_ptr() as usize - block.as_ptr() as usize)
                    .collect::<Vec<_>>()
            })
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let kinds = [AtCut::Blank, AtCut::CrLf, AtCut::Bad];
        for (i, &cut) in cuts.iter().enumerate() {
            damage_line(&mut text, from + cut, kinds[i % kinds.len()]);
        }
        // Each kind still opens a later piece at some count.
        let (_, block) = block_of(&text);
        let mut seen: Vec<AtCut> = (2..=8)
            .flat_map(|n| cut_block(block, n)[1..].to_vec())
            .filter_map(first_line_kind)
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, kinds);

        let want = read_rows(io::BufReader::with_capacity(64, text.as_slice()), 1).unwrap();
        let bad_lines: Vec<usize> = cuts
            .iter()
            .enumerate()
            .filter(|&(i, _)| kinds[i % kinds.len()] == AtCut::Bad)
            .map(|(_, &cut)| 2 + block[..cut].iter().filter(|&&b| b == b'\n').count())
            .collect();
        assert_eq!(want.1.iter().map(|e| e.line).collect::<Vec<_>>(), bad_lines);
        assert!(want.1.iter().all(|e| e.error.field() == Some("start_ms")));
        let last = text
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .count()
            - 1;
        assert_eq!(want.0.len() + want.1.len(), last);
        for pieces in 1..=8 {
            assert_eq!(
                read_rows(text.as_slice(), pieces).unwrap(),
                want,
                "{pieces} pieces"
            );
        }
    }
}
