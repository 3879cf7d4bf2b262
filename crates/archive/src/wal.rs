//! The pattern base's write-ahead log (`DESIGN.md` §10).
//!
//! Every mutation of a [`DurablePatternBase`](crate::DurablePatternBase)
//! is framed, checksummed, appended, and fsynced *before* it touches the
//! in-memory base. The frame format is
//!
//! ```text
//! len: u32le | crc32(payload): u32le | payload
//! payload = seq: u64le | kind: u8 | body
//! ```
//!
//! with three record kinds: `Insert { window, packed SGS }` (an archived
//! pattern), `Coarsen { pattern index }` (retention demoted a pattern
//! one multi-resolution level) and `Seal` (the end of a checkpoint
//! store, which is this same log compacted to one `Insert` per pattern).
//! The CRC plus a strictly increasing `seq` give torn-write protection:
//! replay stops at the first frame whose length, checksum, or sequence is
//! wrong and truncates the log there — everything before that point is
//! the longest durable prefix, everything after is a torn tail a crash
//! left behind.

use bytes::Bytes;
use sgs_core::WindowId;

/// Frame header size: `len` + `crc`.
const FRAME_HEADER: usize = 8;
/// Payload prefix: `seq` + `kind`.
const PAYLOAD_PREFIX: usize = 9;
/// Reject absurd frame lengths up front: the largest legitimate record is
/// one packed SGS, and a multi-megabyte "length" is a torn header read
/// through garbage, not data.
const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

const KIND_INSERT: u8 = 1;
const KIND_COARSEN: u8 = 2;
const KIND_SEAL: u8 = 3;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time so
/// the offline workspace needs no checksum dependency.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32/IEEE of `bytes` (detects all single-bit flips and torn tails).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One logical WAL record (the payload body, without framing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A pattern was archived: its window id and packed SGS bytes.
    Insert {
        /// Window the pattern was extracted from.
        window: WindowId,
        /// Canonical packed encoding (`sgs_summarize::packed`).
        packed: Bytes,
    },
    /// Retention coarsened the pattern at this insertion index one level.
    Coarsen {
        /// Index of the pattern in insertion order.
        index: u64,
    },
    /// The last frame of a checkpoint store: every pattern precedes it,
    /// and its `seq` is the one the next WAL record carries. Never
    /// appended to the WAL itself.
    Seal,
}

/// Serialize one record into its on-disk frame, stamped with `seq`.
pub fn encode_frame(seq: u64, record: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(PAYLOAD_PREFIX + 16);
    payload.extend_from_slice(&seq.to_le_bytes());
    match record {
        WalRecord::Insert { window, packed } => {
            payload.push(KIND_INSERT);
            payload.extend_from_slice(&window.0.to_le_bytes());
            payload.extend_from_slice(packed);
        }
        WalRecord::Coarsen { index } => {
            payload.push(KIND_COARSEN);
            payload.extend_from_slice(&index.to_le_bytes());
        }
        WalRecord::Seal => payload.push(KIND_SEAL),
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Result of replaying a WAL byte stream.
#[derive(Debug, Default)]
pub struct Replay {
    /// Decoded records in log order, with their sequence numbers.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte offset just past the last good frame — the truncation point
    /// that discards the torn tail (equals the stream length when the
    /// log is clean).
    pub durable_len: u64,
}

/// Decode frames from the start of `bytes`, stopping at the first torn,
/// corrupt, or out-of-sequence frame. Never fails: a damaged log simply
/// yields a shorter durable prefix.
pub fn replay(bytes: &[u8]) -> Replay {
    let mut out = Replay::default();
    let mut pos = 0usize;
    let mut expect_seq: Option<u64> = None;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len < PAYLOAD_PREFIX as u32 || len > MAX_FRAME_LEN {
            break;
        }
        let end = pos + FRAME_HEADER + len as usize;
        if end > bytes.len() {
            break; // torn frame: header promises more bytes than exist
        }
        let payload = &bytes[pos + FRAME_HEADER..end];
        if crc32(payload) != crc {
            break;
        }
        let seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
        if let Some(expected) = expect_seq {
            if seq != expected {
                break; // stale or duplicated frame — not our tail
            }
        }
        let body = &payload[PAYLOAD_PREFIX..];
        let record = match payload[8] {
            KIND_INSERT if body.len() >= 8 => WalRecord::Insert {
                window: WindowId(u64::from_le_bytes(body[..8].try_into().unwrap())),
                packed: Bytes::from(body[8..].to_vec()),
            },
            KIND_COARSEN if body.len() == 8 => WalRecord::Coarsen {
                index: u64::from_le_bytes(body[..8].try_into().unwrap()),
            },
            KIND_SEAL if body.is_empty() => WalRecord::Seal,
            _ => break, // unknown kind or malformed body
        };
        out.records.push((seq, record));
        out.durable_len = end as u64;
        pos = end;
        expect_seq = Some(seq + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                window: WindowId(7),
                packed: Bytes::from(b"packed-sgs-bytes-alpha".to_vec()),
            },
            WalRecord::Coarsen { index: 0 },
            WalRecord::Insert {
                window: WindowId(8),
                packed: Bytes::from(b"packed-sgs-bytes-beta".to_vec()),
            },
            WalRecord::Seal,
        ]
    }

    fn log_of(records: &[WalRecord], first_seq: u64) -> Vec<u8> {
        let mut log = Vec::new();
        for (i, r) in records.iter().enumerate() {
            log.extend_from_slice(&encode_frame(first_seq + i as u64, r));
        }
        log
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check values for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn roundtrip_clean_log() {
        let records = sample_records();
        let log = log_of(&records, 5);
        let replayed = replay(&log);
        assert_eq!(replayed.durable_len, log.len() as u64);
        assert_eq!(replayed.records.len(), records.len());
        for (i, (seq, rec)) in replayed.records.iter().enumerate() {
            assert_eq!(*seq, 5 + i as u64);
            assert_eq!(rec, &records[i]);
        }
    }

    #[test]
    fn torn_tail_truncates_at_every_offset() {
        let records = sample_records();
        let log = log_of(&records, 0);
        // Durable prefix boundaries: cumulative frame ends.
        let mut boundaries = vec![0u64];
        let mut acc = 0u64;
        for r in &records {
            acc += encode_frame(0, r).len() as u64;
            boundaries.push(acc);
        }
        for cut in 0..log.len() {
            let replayed = replay(&log[..cut]);
            // The durable length must be the largest boundary ≤ cut.
            let expect = *boundaries
                .iter()
                .filter(|&&b| b <= cut as u64)
                .max()
                .unwrap();
            assert_eq!(replayed.durable_len, expect, "cut at {cut}");
            let n = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(replayed.records.len(), n, "cut at {cut}");
        }
    }

    #[test]
    fn single_bit_flip_never_extends_the_durable_prefix() {
        let records = sample_records();
        let log = log_of(&records, 0);
        let clean = replay(&log);
        for byte in 0..log.len() {
            for bit in 0..8 {
                let mut mangled = log.clone();
                mangled[byte] ^= 1 << bit;
                let replayed = replay(&mangled);
                // The flip invalidates the frame containing `byte` (or a
                // later one if it hit its own already-validated prefix) —
                // it can never *add* records or alter a decoded one that
                // precedes the damage.
                assert!(replayed.durable_len <= clean.durable_len);
                for (a, b) in replayed.records.iter().zip(clean.records.iter()) {
                    if replayed.durable_len == clean.durable_len {
                        continue; // flip landed in a frame after decode
                    }
                    assert_eq!(a, b, "byte {byte} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn seq_discontinuity_stops_replay() {
        let mut log = encode_frame(3, &WalRecord::Coarsen { index: 1 });
        log.extend_from_slice(&encode_frame(5, &WalRecord::Coarsen { index: 2 }));
        let replayed = replay(&log);
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.records[0].0, 3);
    }

    #[test]
    fn absurd_length_header_is_a_torn_tail() {
        let mut log = encode_frame(0, &WalRecord::Coarsen { index: 0 });
        let good_len = log.len() as u64;
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0u8; 12]);
        let replayed = replay(&log);
        assert_eq!(replayed.durable_len, good_len);
        assert_eq!(replayed.records.len(), 1);
    }
}
