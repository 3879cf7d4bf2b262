//! Pattern-base persistence: the on-disk stream history.
//!
//! §6's premise is that patterns are kept "for long-term analysis" — the
//! archive must survive the process. The format is deliberately simple and
//! self-describing: a magic/version header, then one record per pattern
//! (window id + packed SGS, §8.2's byte layout). Loading recomputes each
//! pattern's MBR and feature vector from its summary, so the search keys
//! are never serialized and can evolve freely.

use std::io::{self, Read, Write};

use sgs_core::WindowId;
use sgs_summarize::{packed, Sgs};

use crate::pattern_base::PatternBase;

const MAGIC: &[u8; 8] = b"SGSBASE\x01";
/// Most a record's length field may reserve before its bytes have
/// actually been read (a packed summary is a few hundred bytes).
const MAX_RECORD_PREALLOC: usize = 64 << 10;

/// Errors raised by archive persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a pattern-base archive (bad magic or version).
    BadMagic,
    /// A record could not be decoded.
    Corrupt(String),
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl core::fmt::Display for PersistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "archive I/O error: {e}"),
            PersistError::BadMagic => write!(f, "not a pattern-base archive"),
            PersistError::Corrupt(msg) => write!(f, "corrupt archive: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Serialize the pattern base into a writer.
pub fn save_to(base: &PatternBase, mut w: impl Write) -> Result<(), PersistError> {
    w.write_all(MAGIC)?;
    w.write_all(&(base.len() as u64).to_le_bytes())?;
    for pattern in base.iter() {
        w.write_all(&pattern.window.0.to_le_bytes())?;
        let bytes = packed::encode(&pattern.sgs);
        w.write_all(&(bytes.len() as u32).to_le_bytes())?;
        w.write_all(&bytes)?;
    }
    Ok(())
}

/// Decode the record stream into `(summary, window)` entries without
/// building any index — what recovery needs before it replays the WAL.
///
/// The stream comes from disk and carries no checksum, so the declared
/// sizes are checked rather than trusted: a record is read through
/// `take(len)` (never allocated up front from its length field), must be
/// exactly as long as its own packed header implies, and must be non-empty.
pub(crate) fn load_entries(mut r: impl Read) -> Result<Vec<(Sgs, WindowId)>, PersistError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let mut count_buf = [0u8; 8];
    r.read_exact(&mut count_buf)?;
    let count = u64::from_le_bytes(count_buf);

    let mut entries = Vec::new();
    for i in 0..count {
        let mut head = [0u8; 12];
        r.read_exact(&mut head)?;
        let window = WindowId(u64::from_le_bytes(head[..8].try_into().unwrap()));
        let len = u32::from_le_bytes(head[8..].try_into().unwrap()) as usize;
        let mut body = Vec::with_capacity(len.min(MAX_RECORD_PREALLOC));
        r.by_ref().take(len as u64).read_to_end(&mut body)?;
        // A short body (the stream ended first) fails the same test as a
        // wrong length field: what decodes is not `len` bytes long.
        let sgs = packed::decode(bytes::Bytes::from(body))
            .filter(|sgs| packed::archived_bytes(sgs) == len)
            .ok_or_else(|| {
                PersistError::Corrupt(format!("pattern {i} is not a {len}-byte packed summary"))
            })?;
        if sgs.cells.is_empty() {
            return Err(PersistError::Corrupt(format!("pattern {i} empty")));
        }
        entries.push((sgs, window));
    }
    Ok(entries)
}

/// Index decoded entries into a pattern base, in order.
pub(crate) fn base_of(entries: Vec<(Sgs, WindowId)>) -> PatternBase {
    let mut base = PatternBase::new();
    for (sgs, window) in entries {
        base.insert(sgs, window);
    }
    base
}

/// Deserialize a pattern base from a reader, rebuilding all indexes.
pub fn load_from(r: impl Read) -> Result<PatternBase, PersistError> {
    load_entries(r).map(base_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::GridGeometry;
    use sgs_matching::MatchConfig;
    use sgs_summarize::MemberSet;

    fn sample_base(n: usize) -> PatternBase {
        let g = GridGeometry::basic(2, 1.0);
        let mut base = PatternBase::new();
        for k in 0..n {
            let cores: Vec<Box<[f64]>> = (0..30 + k * 3)
                .map(|i| {
                    vec![
                        k as f64 * 7.0 + 0.05 + (i % 6) as f64 * 0.3,
                        0.05 + (i / 6) as f64 * 0.3,
                    ]
                    .into()
                })
                .collect();
            let sgs = Sgs::from_members(&MemberSet::new(cores, vec![]), &g);
            base.insert(sgs, WindowId(k as u64));
        }
        base
    }

    #[test]
    fn roundtrip_preserves_patterns() {
        let base = sample_base(12);
        let mut buf = Vec::new();
        save_to(&base, &mut buf).unwrap();
        let loaded = load_from(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), base.len());
        for (a, b) in base.iter().zip(loaded.iter()) {
            assert_eq!(a.window, b.window);
            assert_eq!(a.sgs.cells.len(), b.sgs.cells.len());
            assert_eq!(a.features[0], b.features[0]);
            assert_eq!(a.features[1], b.features[1]);
        }
    }

    #[test]
    fn loaded_base_answers_matching_queries() {
        let base = sample_base(10);
        let mut buf = Vec::new();
        save_to(&base, &mut buf).unwrap();
        let loaded = load_from(buf.as_slice()).unwrap();
        let query = base.iter().nth(4).unwrap().sgs.clone();
        let cfg = MatchConfig::equal_weights(true, 0.2);
        let orig = base.match_query(&query, &cfg);
        let redo = loaded.match_query(&query, &cfg);
        // Same matches (face connections survive packing; connectivity is a
        // non-locational feature, so distances can shift slightly — ids
        // must agree on the self-match).
        assert_eq!(redo.matches[0].id, orig.matches[0].id);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let base = sample_base(3);
        let mut buf = Vec::new();
        save_to(&base, &mut buf).unwrap();
        assert!(matches!(
            load_from(&b"NOTANARC"[..]),
            Err(PersistError::BadMagic) | Err(PersistError::Io(_))
        ));
        let truncated = &buf[..buf.len() - 5];
        assert!(load_from(truncated).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let base = sample_base(5);
        let path =
            std::env::temp_dir().join(format!("sgs_persist_test_{}.bin", std::process::id()));
        save_to(&base, std::fs::File::create(&path).unwrap()).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let loaded = load_from(io::BufReader::new(file)).unwrap();
        assert_eq!(loaded.len(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_base_roundtrips() {
        let base = PatternBase::new();
        let mut buf = Vec::new();
        save_to(&base, &mut buf).unwrap();
        let loaded = load_from(buf.as_slice()).unwrap();
        assert!(loaded.is_empty());
    }
}
