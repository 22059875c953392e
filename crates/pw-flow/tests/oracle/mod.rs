//! Reference implementations the fast paths are checked against: the
//! `str`-based flow-row codec as it stood before the byte-level rewrite,
//! and CRC32 computed bit by bit from the polynomial. Deliberately slow and
//! literal; shared by the integration tests that include this module.

#![allow(dead_code)]

use std::net::Ipv4Addr;

use pw_flow::csvio::{FIELDS, HEADER};
use pw_flow::{FlowRecord, FlowState, ParseError, Payload, Proto, RowError};
use pw_netsim::SimTime;

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Panics when a pair splits a multi-byte character, as it always did;
/// callers that feed it non-ASCII text catch that.
fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex payload".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| e.to_string()))
        .collect()
}

/// One record as a CSV row, through `format!`.
pub fn format_flow(r: &FlowRecord) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{}",
        r.start.as_millis(),
        r.end.as_millis(),
        r.src,
        r.sport,
        r.dst,
        r.dport,
        r.proto,
        r.src_pkts,
        r.src_bytes,
        r.dst_pkts,
        r.dst_bytes,
        r.state,
        hex_encode(r.payload.as_bytes()),
    )
}

/// One CSV row parsed with the standard library's `str` parsers.
pub fn parse_flow(line: &str, lineno: usize) -> Result<FlowRecord, RowError> {
    let err = |error: ParseError| RowError {
        line: lineno,
        error,
    };
    let invalid = |field: &'static str, value: &str, reason: String| {
        err(ParseError::InvalidField {
            field,
            value: value.to_owned(),
            reason,
        })
    };
    let mut fields: [&str; FIELDS] = [""; FIELDS];
    let mut got = 0usize;
    for col in line.split(',') {
        if got < FIELDS {
            fields[got] = col;
        }
        got += 1;
    }
    if got != FIELDS {
        return Err(err(ParseError::WrongFieldCount {
            expected: FIELDS,
            got,
        }));
    }
    let parse_u64 = |s: &str, what: &'static str| {
        s.parse::<u64>()
            .map_err(|e| invalid(what, s, e.to_string()))
    };
    let parse_u16 = |s: &str, what: &'static str| {
        s.parse::<u16>()
            .map_err(|e| invalid(what, s, e.to_string()))
    };
    let parse_ip = |s: &str, what: &'static str| {
        s.parse::<Ipv4Addr>()
            .map_err(|e| invalid(what, s, e.to_string()))
    };
    let proto: Proto = fields[6].parse().map_err(err)?;
    let state: FlowState = fields[11].parse().map_err(err)?;
    let payload_bytes =
        hex_decode(fields[12]).map_err(|reason| invalid("payload_hex", fields[12], reason))?;
    Ok(FlowRecord {
        start: SimTime::from_millis(parse_u64(fields[0], "start_ms")?),
        end: SimTime::from_millis(parse_u64(fields[1], "end_ms")?),
        src: parse_ip(fields[2], "src")?,
        sport: parse_u16(fields[3], "sport")?,
        dst: parse_ip(fields[4], "dst")?,
        dport: parse_u16(fields[5], "dport")?,
        proto,
        src_pkts: parse_u64(fields[7], "src_pkts")?,
        src_bytes: parse_u64(fields[8], "src_bytes")?,
        dst_pkts: parse_u64(fields[9], "dst_pkts")?,
        dst_bytes: parse_u64(fields[10], "dst_bytes")?,
        state,
        payload: Payload::capture(&payload_bytes),
    })
}

/// Splits `bytes` into lines as `BufRead::lines` does: at `\n`, dropping a
/// `\r` just before it; a last line without `\n` keeps everything.
pub fn lines(bytes: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        match rest.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let line = &rest[..i];
                out.push(line.strip_suffix(b"\r").unwrap_or(line));
                rest = &rest[i + 1..];
            }
            None => {
                out.push(rest);
                rest = &[];
            }
        }
    }
    out
}

/// The lossy reader's contract, line by line: the header must match
/// exactly (`Err` carries what was found instead), blank lines are skipped,
/// and every other line is parsed by [`parse_flow`] from its lossily
/// decoded text.
pub fn read_flows_lossy(bytes: &[u8]) -> Result<(Vec<FlowRecord>, Vec<RowError>), String> {
    let mut lines = lines(bytes).into_iter().enumerate();
    match lines.next() {
        None => return Ok((Vec::new(), Vec::new())),
        Some((_, header)) if header == HEADER.as_bytes() => {}
        Some((_, header)) => return Err(String::from_utf8_lossy(header).into_owned()),
    }
    let (mut ok, mut bad) = (Vec::new(), Vec::new());
    for (idx, line) in lines {
        if line.is_empty() {
            continue;
        }
        match parse_flow(&String::from_utf8_lossy(line), idx + 1) {
            Ok(f) => ok.push(f),
            Err(e) => bad.push(e),
        }
    }
    Ok((ok, bad))
}

/// IEEE 802.3 CRC32 one bit at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}
