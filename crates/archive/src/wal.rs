//! The pattern base's write-ahead log (`DESIGN.md` §10).
//!
//! Every insert into a [`DurablePatternBase`](crate::DurablePatternBase)
//! is framed, checksummed, appended, and fsynced *before* it touches the
//! in-memory base. The frame format is
//!
//! ```text
//! len: u32le | crc32(payload): u32le | payload
//! payload = seq: u64le | kind: u8 | body
//! ```
//!
//! with two record kinds: `Insert` (kind 4; body `window: u64le` then
//! the summary in `sgs_summarize::codec`, the encoding the wire sends), an
//! archived pattern; and `Seal` (kind 3; empty body), the end of a
//! checkpoint store, which is this same log compacted to one `Insert` per
//! pattern. Two kinds are retired: kind 1, an insert in the face-bit
//! packed layout an older format wrote, and kind 2, the in-place
//! coarsening of an archived pattern that byte-budget retention logged.
//!
//! The CRC plus a strictly increasing `seq` give torn-write protection:
//! replay stops at the first frame whose length, checksum, or sequence is
//! wrong — everything before that point is the longest durable prefix,
//! everything after is a torn tail a crash left behind. A length is
//! wrong only if it runs past the bytes read: a file is replayed from
//! memory, so a garbage length allocates nothing, and no cap may cut off
//! a large summary, which every record holds whole. A frame that
//! passes its CRC but does not parse — an unknown or retired kind, a
//! malformed body — was written whole by something else, so it is an
//! error, never a tail to cut off.

use sgs_core::WindowId;
use sgs_summarize::{codec, Sgs};

use crate::durable::PersistError;

/// Frame header size: `len` + `crc`.
const FRAME_HEADER: usize = 8;
/// Payload prefix: `seq` + `kind`.
const PAYLOAD_PREFIX: usize = 9;

/// Retired: an insert in the face-bit packed layout.
const KIND_PACKED_INSERT: u8 = 1;
/// Retired: byte-budget retention coarsened an archived pattern in place.
const KIND_COARSEN: u8 = 2;
const KIND_SEAL: u8 = 3;
const KIND_INSERT: u8 = 4;

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
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A pattern was archived: its window id and summary.
    Insert {
        /// Window the pattern was extracted from.
        window: WindowId,
        /// The summary, exactly as archived.
        sgs: Sgs,
    },
    /// The last frame of a checkpoint store: every pattern precedes it,
    /// and its `seq` is the one the next WAL record carries. Never
    /// appended to the WAL itself.
    Seal,
}

/// Frame `seq`, `kind` and the body `body` writes.
fn frame(seq: u64, kind: u8, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = vec![0; FRAME_HEADER];
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.push(kind);
    body(&mut frame);
    let payload = &frame[FRAME_HEADER..];
    let header = [
        (payload.len() as u32).to_le_bytes(),
        crc32(payload).to_le_bytes(),
    ];
    frame[..FRAME_HEADER].copy_from_slice(header.as_flattened());
    frame
}

/// The `Insert` frame of `sgs`, without taking ownership of it.
pub fn insert_frame(seq: u64, window: WindowId, sgs: &Sgs) -> Vec<u8> {
    frame(seq, KIND_INSERT, |out| {
        out.extend_from_slice(&window.0.to_le_bytes());
        codec::encode(sgs, out);
    })
}

/// Serialize one record into its on-disk frame, stamped with `seq`.
pub fn encode_frame(seq: u64, record: &WalRecord) -> Vec<u8> {
    match record {
        WalRecord::Insert { window, sgs } => insert_frame(seq, *window, sgs),
        WalRecord::Seal => frame(seq, KIND_SEAL, |_| {}),
    }
}

/// Parse a CRC-valid frame's record; anything unparseable is corruption.
fn parse(seq: u64, kind: u8, body: &[u8]) -> Result<WalRecord, PersistError> {
    let corrupt = |what: String| PersistError::Corrupt(format!("record {seq} {what}"));
    let (head, mut rest) = match body.split_first_chunk::<8>() {
        Some((head, rest)) => (Some(u64::from_le_bytes(*head)), rest),
        None => (None, body),
    };
    let record = match (kind, head) {
        (KIND_INSERT, Some(window)) => codec::decode(&mut rest).ok().map(|sgs| WalRecord::Insert {
            window: WindowId(window),
            sgs,
        }),
        (KIND_SEAL, None) => Some(WalRecord::Seal),
        (KIND_INSERT | KIND_SEAL, _) => None,
        (KIND_PACKED_INSERT, _) => {
            return Err(corrupt(
                "is a retired kind-1 insert: an older format wrote it".into(),
            ))
        }
        (KIND_COARSEN, _) => {
            return Err(corrupt(
                "is a retired kind-2 coarsening: an --archive-budget server wrote it".into(),
            ))
        }
        _ => return Err(corrupt(format!("has unknown kind {kind:#04x}"))),
    };
    record
        .filter(|_| rest.is_empty())
        .ok_or_else(|| corrupt(format!("has a malformed kind-{kind} body")))
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
/// checksum-failing, or out-of-sequence frame: a damaged tail simply
/// yields a shorter durable prefix. A frame that passes its checksum but
/// does not parse is [`PersistError::Corrupt`].
pub fn replay(bytes: &[u8]) -> Result<Replay, PersistError> {
    let mut out = Replay::default();
    let mut pos = 0usize;
    let mut expect_seq: Option<u64> = None;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len < PAYLOAD_PREFIX as u32 {
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
        let record = parse(seq, payload[8], &payload[PAYLOAD_PREFIX..])?;
        out.records.push((seq, record));
        out.durable_len = end as u64;
        pos = end;
        expect_seq = Some(seq + 1);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(window: u64) -> Sgs {
        let g = sgs_core::GridGeometry::basic(2, 1.0);
        let cores: Vec<Box<[f64]>> = (0..12)
            .map(|i| {
                vec![
                    window as f64 * 9.0 + (i % 4) as f64 * 0.3,
                    (i / 4) as f64 * 0.3,
                ]
                .into()
            })
            .collect();
        Sgs::from_members(&sgs_summarize::MemberSet::new(cores, vec![]), &g)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                window: WindowId(7),
                sgs: summary(7),
            },
            WalRecord::Insert {
                window: WindowId(8),
                sgs: summary(8),
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
        let replayed = replay(&log).unwrap();
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
            let replayed = replay(&log[..cut]).unwrap();
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
        let clean = replay(&log).unwrap();
        for byte in 0..log.len() {
            for bit in 0..8 {
                let mut mangled = log.clone();
                mangled[byte] ^= 1 << bit;
                let replayed = replay(&mangled).unwrap();
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
        let mut log = encode_frame(3, &WalRecord::Seal);
        log.extend_from_slice(&encode_frame(5, &WalRecord::Seal));
        let replayed = replay(&log).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.records[0].0, 3);
    }

    #[test]
    fn absurd_length_header_is_a_torn_tail() {
        let mut log = encode_frame(0, &WalRecord::Seal);
        let good_len = log.len() as u64;
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0u8; 12]);
        let replayed = replay(&log).unwrap();
        assert_eq!(replayed.durable_len, good_len);
        assert_eq!(replayed.records.len(), 1);
    }

    /// A frame that passes its CRC was written whole, so a kind replay
    /// does not know — a retired one included — is an error, not a torn
    /// tail to cut off with everything behind it.
    #[test]
    fn a_checksummed_frame_of_an_unknown_kind_is_corrupt() {
        let good = encode_frame(0, &WalRecord::Seal);
        for kind in [0x7F, KIND_PACKED_INSERT, KIND_COARSEN, 0] {
            let mut log = good.clone();
            log.extend_from_slice(&frame(1, kind, |out| out.extend_from_slice(&[0; 22])));
            let err = replay(&log).unwrap_err().to_string();
            assert!(err.contains("record 1"), "kind {kind}: {err}");
        }
        let mut log = good.clone();
        log.extend_from_slice(&frame(1, KIND_SEAL, |out| out.push(1)));
        assert!(replay(&log).is_err(), "a malformed body of a known kind");
        let mut log = good;
        log.extend_from_slice(&encode_frame(1, &sample_records()[0])[..20]);
        assert_eq!(
            replay(&log).unwrap().records.len(),
            1,
            "a torn frame is a tail"
        );
    }
}
