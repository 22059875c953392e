//! Server checkpoints: the engine snapshot plus exporter sequences, in
//! one atomically-written file.
//!
//! Exactly-once ingest across a server restart hinges on one invariant:
//! the revived engine state and the revived per-exporter sequence
//! numbers describe *the same instant*. If the sequences ran ahead of
//! the engine, flows would be skipped on replay; behind, double-applied.
//! So both live in a single [`ServerCheckpoint`], serialized into one
//! file:
//!
//! ```text
//! peerwatch-server-checkpoint v2
//! exporters 2
//! exporter 1 4023
//! exporter 7 911
//! engine-checkpoint
//! <pw_detect engine checkpoint text, verbatim>
//! checksum crc32=<8 hex digits>
//! ```
//!
//! The final line is the same `checksum crc32=` integrity trailer as the
//! engine format, covering the whole file (including the embedded engine
//! text, which carries its own trailer — the outer trailer is stripped
//! before the engine section is handed to the engine parser). The format
//! has one version, v2; any other header is refused with
//! [`CheckpointError::BadMagic`] before anything else is read. The file is
//! written through [`pw_detect::checkpoint::write_text_retained`] and read
//! through [`pw_detect::checkpoint::recover_with`], the engine's own I/O
//! path, so a torn or bit-flipped primary falls back to the newest
//! verifiable `<path>.k` snapshot.

use std::collections::BTreeMap;

use pw_detect::checkpoint::{
    append_checksum_trailer, check_magic, split_checksum_trailer, CheckpointError, EngineCheckpoint,
};

/// Magic first line; the version suffix gates format evolution, and any
/// other version is refused.
pub const SERVER_MAGIC: &str = "peerwatch-server-checkpoint v2";

/// A consistent snapshot of everything a restarted server needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerCheckpoint {
    /// Next expected sequence number per exporter id (flows below it are
    /// applied in `engine`).
    pub exporters: BTreeMap<u32, u64>,
    /// The engine at the same instant.
    pub engine: EngineCheckpoint,
}

impl ServerCheckpoint {
    /// Serializes into the versioned text form.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(SERVER_MAGIC);
        out.push('\n');
        out.push_str(&format!("exporters {}\n", self.exporters.len()));
        for (id, seq) in &self.exporters {
            out.push_str(&format!("exporter {id} {seq}\n"));
        }
        out.push_str("engine-checkpoint\n");
        out.push_str(&self.engine.serialize());
        append_checksum_trailer(&mut out);
        out
    }

    /// Parses the text form back.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] describing the offending line; the embedded
    /// engine section reports its own line numbers relative to itself.
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        // The header decides the format; the outer trailer is then
        // verified and shed, so the embedded engine text below ends at the
        // engine's own trailer.
        check_magic(text, SERVER_MAGIC)?;
        let text = split_checksum_trailer(text)?;
        let mut lines = text.lines().enumerate().skip(1);
        let (n, header) = lines.next().ok_or(CheckpointError::Format {
            line: 2,
            reason: "missing `exporters N` line".to_owned(),
        })?;
        let count: usize = header
            .strip_prefix("exporters ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| CheckpointError::Format {
                line: n + 1,
                reason: format!("expected `exporters N`, found {header:?}"),
            })?;
        let mut exporters = BTreeMap::new();
        for _ in 0..count {
            let (n, line) = lines.next().ok_or(CheckpointError::Format {
                line: count + 2,
                reason: "truncated exporter table".to_owned(),
            })?;
            let mut it = line.split(' ');
            let (tag, id, seq) = (it.next(), it.next(), it.next());
            let parsed = match (tag, id, seq, it.next()) {
                (Some("exporter"), Some(id), Some(seq), None) => {
                    id.parse::<u32>().ok().zip(seq.parse::<u64>().ok())
                }
                _ => None,
            };
            let (id, seq) = parsed.ok_or_else(|| CheckpointError::Format {
                line: n + 1,
                reason: format!("expected `exporter ID SEQ`, found {line:?}"),
            })?;
            if exporters.insert(id, seq).is_some() {
                return Err(CheckpointError::Format {
                    line: n + 1,
                    reason: format!("duplicate exporter id {id}"),
                });
            }
        }
        let (n, marker) = lines.next().ok_or(CheckpointError::Format {
            line: count + 3,
            reason: "missing `engine-checkpoint` marker".to_owned(),
        })?;
        if marker != "engine-checkpoint" {
            return Err(CheckpointError::Format {
                line: n + 1,
                reason: format!("expected `engine-checkpoint`, found {marker:?}"),
            });
        }
        // Everything after the marker is the engine's own format.
        let engine_text: String = text.lines().skip(n + 1).flat_map(|l| [l, "\n"]).collect();
        let engine = EngineCheckpoint::parse(&engine_text)?;
        Ok(ServerCheckpoint { exporters, engine })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_detect::checkpoint::{recover_with, retained_path, write_text_retained};
    use pw_detect::{DetectionEngine, EngineConfig};
    use std::net::Ipv4Addr;

    /// Seals `body` with a fresh trailer, so an edit reaches the parser.
    fn sealed(body: &str) -> String {
        let mut text = body.to_owned();
        append_checksum_trailer(&mut text);
        text
    }

    fn internal(ip: Ipv4Addr) -> bool {
        ip.octets()[0] == 10
    }

    fn sample() -> ServerCheckpoint {
        let engine = DetectionEngine::new(EngineConfig::default(), internal)
            .unwrap()
            .checkpoint();
        let mut exporters = BTreeMap::new();
        exporters.insert(1u32, 4023u64);
        exporters.insert(7, 911);
        ServerCheckpoint { exporters, engine }
    }

    #[test]
    fn round_trips_exactly() {
        let ckpt = sample();
        let text = ckpt.serialize();
        let back = ServerCheckpoint::parse(&text).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.serialize(), text, "serialize is a fixed point");
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let dir = std::env::temp_dir().join("pw-server-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.ckpt");
        let ckpt = sample();
        write_text_retained(&path, &ckpt.serialize(), 0).unwrap();
        let read = recover_with(&path, 0, ServerCheckpoint::parse).unwrap();
        assert_eq!(read.snapshot, ckpt);
        assert!(!path.with_extension("ckpt.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_refused_with_line_context() {
        let text = sample().serialize();
        // Edit the body and reseal it so line-level diagnoses are
        // reachable (otherwise the checksum trips first).
        let body = split_checksum_trailer(&text).unwrap();
        assert_eq!(ServerCheckpoint::parse(&sealed(body)).unwrap(), sample());

        // Older versions and other files are refused by their header,
        // sealed or not.
        let v1 = body.replacen(SERVER_MAGIC, "peerwatch-server-checkpoint v1", 1);
        for text in [
            v1.clone(),
            sealed(&v1),
            "peerwatch-checkpoint v1\n".to_owned(),
        ] {
            assert!(matches!(
                ServerCheckpoint::parse(&text),
                Err(CheckpointError::BadMagic { .. })
            ));
        }
        let truncated = sealed(&format!("{SERVER_MAGIC}\nexporters 3\nexporter 1 5\n"));
        assert!(matches!(
            ServerCheckpoint::parse(&truncated),
            Err(CheckpointError::Format { .. })
        ));
        let dup = sealed(&body.replace("exporter 7 911", "exporter 1 911"));
        assert!(matches!(
            ServerCheckpoint::parse(&dup),
            Err(CheckpointError::Format { line: 4, reason }) if reason.contains("duplicate")
        ));
        let garbled = sealed(&body.replace("exporter 7 911", "exporter seven 911"));
        assert!(matches!(
            ServerCheckpoint::parse(&garbled),
            Err(CheckpointError::Format { line: 4, .. })
        ));
    }

    #[test]
    fn embedded_engine_of_another_version_is_refused() {
        // A v2 server file around an engine section under the previous
        // engine header: both trailers re-sealed, so only the engine's
        // header check can refuse it.
        use pw_detect::checkpoint::MAGIC;
        let ckpt = sample();
        let engine = ckpt.engine.serialize();
        let old_body =
            split_checksum_trailer(&engine)
                .unwrap()
                .replacen(MAGIC, "peerwatch-checkpoint v6", 1);
        let mut text = String::from(SERVER_MAGIC);
        text.push_str("\nexporters 1\nexporter 1 4023\nengine-checkpoint\n");
        text.push_str(&sealed(&old_body));
        let err = ServerCheckpoint::parse(&sealed(&text)).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::BadMagic { found } if found == "peerwatch-checkpoint v6"),
            "{err}"
        );
    }

    #[test]
    fn v2_trailer_catches_any_edit() {
        let text = sample().serialize();
        assert!(text.ends_with('\n'));
        // The outer trailer covers the exporter table and the embedded
        // engine text (which keeps its own inner trailer).
        assert_eq!(text.matches("checksum crc32=").count(), 2);
        let edited = text.replace("exporter 1 4023", "exporter 1 4024");
        assert!(matches!(
            ServerCheckpoint::parse(&edited),
            Err(CheckpointError::Checksum { .. })
        ));
        // Truncation that loses the trailer is refused too.
        let cut = &text[..text.len() - 2];
        assert!(ServerCheckpoint::parse(cut).is_err());
    }

    #[test]
    fn retained_chain_recovers_past_a_corrupt_primary() {
        let dir = std::env::temp_dir().join("pw-server-checkpoint-recover-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.ckpt");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(retained_path(&path, 1));

        let mut older = sample();
        older.exporters.insert(9, 1);
        write_text_retained(&path, &older.serialize(), 1).unwrap();
        let newer = sample();
        write_text_retained(&path, &newer.serialize(), 1).unwrap();

        // Clean primary: no fallback.
        let got = recover_with(&path, 1, ServerCheckpoint::parse).unwrap();
        assert_eq!(got.snapshot, newer);
        assert_eq!(got.fallbacks, 0);

        // Torn primary: recovery lands on the retained previous snapshot.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let got = recover_with(&path, 1, ServerCheckpoint::parse).unwrap();
        assert_eq!(got.snapshot, older);
        assert_eq!(got.fallbacks, 1);
        assert_eq!(got.skipped.len(), 1);

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(retained_path(&path, 1)).ok();
    }
}
