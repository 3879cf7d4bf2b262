//! The durable tiered pattern base (`DESIGN.md` §10).
//!
//! [`DurablePatternBase`] wraps the in-memory [`PatternBase`] with a
//! write-ahead log and periodic checkpoints. The base is append-only: an
//! archived pattern keeps the summary, and so the resolution, it was
//! archived with, and the one mutation is an insert.
//!
//! Both files speak one format, the CRC'd frames of [`wal`]: the WAL
//! logs every insert, and a checkpoint store is that log compacted —
//! one `Insert` frame per pattern in insertion order, then a `Seal`. An
//! insert logs the summary in the lossless encoding the wire sends
//! (`sgs_summarize::codec`), and the base stores exactly the summary it
//! was given, so a durable base holds — and MATCH answers over — what a
//! memory-only one does, and the live and the replayed base hold the same
//! summaries by construction. The recovery invariant — *replay ⇒
//! byte-identical* — rests on three rules:
//!
//! 1. every insert is a WAL record fsynced **before** it is applied in
//!    memory. A batch of inserts is one commit — one append, one `fsync`
//!    — so a torn commit recovers as a prefix of its records;
//! 2. a checkpoint atomically replaces the store file before truncating
//!    the log. The store's frames are numbered so its seal carries the
//!    sequence number the next WAL record will carry (`applied_seq`), and
//!    recovery skips WAL records below it — a crash between the two steps
//!    merely replays records that are already in the snapshot, and the
//!    skip makes that a no-op;
//! 3. after a failed write the base refuses every later mutation until it
//!    is reopened: the torn bytes stay in the log, replay stops at them,
//!    and a record appended behind them would be acknowledged and lost.

use std::io;
use std::path::Path;

use sgs_core::WindowId;
use sgs_summarize::Sgs;

use crate::io::{ArchiveIo, DiskIo};
use crate::pattern_base::{PatternBase, PatternId};
use crate::wal::{self, WalRecord};

/// Store file name inside the archive directory.
pub const STORE_FILE: &str = "base.store";
/// WAL file name inside the archive directory.
pub const WAL_FILE: &str = "base.wal";

/// Errors raised by the durable archive.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure, or a base refusing writes after one.
    Io(io::Error),
    /// The store is damaged, or a stored record could not be decoded.
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
            PersistError::Corrupt(msg) => write!(f, "corrupt archive: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Corrupt(_) => None,
        }
    }
}

/// Configuration of a durable pattern base: when to checkpoint.
/// Recovery itself has no knobs — it is one sequential pass over the
/// checkpoint, then the WAL tail.
#[derive(Clone, Debug)]
pub struct DurableConfig {
    /// Checkpoint once the WAL exceeds this many bytes.
    pub checkpoint_wal_bytes: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            checkpoint_wal_bytes: 1 << 20,
        }
    }
}

/// Counts nothing. Kept solely because the frozen benchmark's
/// `e2ebench/src/stages.rs` reads it through
/// [`DurablePatternBase::pool_stats`]: recovery reads the store whole, so
/// there is no page reader left to count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
}

struct Storage {
    io: Box<dyn ArchiveIo>,
    cfg: DurableConfig,
    /// Sequence number the next WAL record will carry.
    next_seq: u64,
    /// Current WAL length in bytes (checkpoint trigger).
    wal_len: u64,
    /// A write failed: the files may end in torn bytes, so nothing more
    /// is written until the base is reopened.
    failed: bool,
}

impl Storage {
    /// Refuse to write once a write has failed.
    fn usable(&self) -> Result<(), PersistError> {
        if self.failed {
            return Err(PersistError::Io(io::Error::other(
                "an earlier archive write failed; reopen the base to recover",
            )));
        }
        Ok(())
    }

    /// Pass `result` through, remembering a failure.
    fn check(&mut self, result: io::Result<()>) -> Result<(), PersistError> {
        self.failed |= result.is_err();
        Ok(result?)
    }

    /// Append the `Insert` records of `staged` to the WAL as one batch
    /// and fsync it — the commit point of every insert.
    fn commit(&mut self, staged: &[(Sgs, WindowId)]) -> Result<(), PersistError> {
        self.usable()?;
        let mut seqs = self.next_seq..;
        let mut batch = Vec::new();
        for ((sgs, window), seq) in staged.iter().zip(&mut seqs) {
            batch.extend_from_slice(&wal::insert_frame(seq, *window, sgs));
        }
        let m = crate::metrics::metrics();
        let start = std::time::Instant::now();
        let appended = self.io.append(WAL_FILE, &batch);
        m.wal_append_nanos.record_since(start);
        self.check(appended)?;
        let start = std::time::Instant::now();
        let synced = self.io.sync(WAL_FILE);
        m.wal_fsync_nanos.record_since(start);
        self.check(synced)?;
        self.next_seq = seqs.start;
        self.wal_len += batch.len() as u64;
        Ok(())
    }
}

/// A pattern base whose inserts survive process crashes.
///
/// Dereferences to [`PatternBase`] for all read paths (`len`, `get`,
/// `match_query`, …); every insert goes through
/// [`try_insert_all`](Self::try_insert_all), which write-ahead-logs
/// before touching memory. With no storage
/// attached ([`memory`](Self::memory)) it behaves exactly like the plain
/// in-memory base.
pub struct DurablePatternBase {
    base: PatternBase,
    storage: Option<Storage>,
}

impl std::ops::Deref for DurablePatternBase {
    type Target = PatternBase;

    fn deref(&self) -> &PatternBase {
        &self.base
    }
}

/// The store image of `base`: one `Insert` frame per pattern in
/// insertion order, numbered from `first_seq`, then the `Seal`.
pub(crate) fn store_image(base: &PatternBase, first_seq: u64) -> Vec<u8> {
    let mut image = Vec::new();
    for (seq, pattern) in (first_seq..).zip(base.iter()) {
        image.extend_from_slice(&wal::insert_frame(seq, pattern.window, &pattern.sgs));
    }
    let seal_seq = first_seq + base.len() as u64;
    image.extend_from_slice(&wal::encode_frame(seal_seq, &WalRecord::Seal));
    image
}

/// Apply one logged record to the base being recovered.
fn apply(base: &mut PatternBase, seq: u64, record: WalRecord) -> Result<(), PersistError> {
    match record {
        WalRecord::Insert { window, sgs } => {
            base.insert(sgs, window)
                .ok_or_else(|| PersistError::Corrupt(format!("insert {seq} is empty")))?;
        }
        WalRecord::Seal => {
            return Err(PersistError::Corrupt(format!("seal {seq} inside a log")));
        }
    }
    Ok(())
}

impl Default for DurablePatternBase {
    fn default() -> Self {
        Self::memory()
    }
}

impl DurablePatternBase {
    /// Memory-only base: no WAL, no checkpoints — the
    /// pre-durability behavior, byte-for-byte.
    pub fn memory() -> DurablePatternBase {
        DurablePatternBase {
            base: PatternBase::new(),
            storage: None,
        }
    }

    /// Open (or create) a durable base in directory `dir`, recovering
    /// whatever a previous process made durable.
    pub fn open(dir: impl AsRef<Path>, cfg: DurableConfig) -> Result<Self, PersistError> {
        let io = DiskIo::open(dir.as_ref())?;
        Self::open_with(Box::new(io), cfg)
    }

    /// Open over an explicit [`ArchiveIo`] — the seam the crash-injection
    /// tests use (`FaultFs`).
    pub fn open_with(mut io: Box<dyn ArchiveIo>, cfg: DurableConfig) -> Result<Self, PersistError> {
        // 1. The last checkpoint, if any: a log that must replay to its
        // last byte and end in its seal — anything less is damage, never
        // a shorter base.
        let mut base = PatternBase::new();
        let mut applied_seq = 0;
        if let Some(store) = io.read_file(STORE_FILE)? {
            let mut replayed = wal::replay(&store)?;
            let whole = replayed.durable_len == store.len() as u64;
            let Some((seal_seq, WalRecord::Seal)) = replayed.records.pop().filter(|_| whole) else {
                return Err(PersistError::Corrupt(format!(
                    "{STORE_FILE} is damaged after byte {}",
                    replayed.durable_len
                )));
            };
            for (seq, record) in replayed.records {
                apply(&mut base, seq, record)?;
            }
            applied_seq = seal_seq;
        }

        // 2. Replay the WAL tail, discarding torn bytes. A log that does
        // not parse is left as it is.
        let wal_bytes = io.read_file(WAL_FILE)?.unwrap_or_default();
        let replayed = wal::replay(&wal_bytes)?;
        if replayed.durable_len < wal_bytes.len() as u64 {
            io.truncate(WAL_FILE, replayed.durable_len)?;
        }
        let mut next_seq = applied_seq;
        for (seq, record) in replayed.records {
            if seq < applied_seq {
                continue; // already in the checkpoint
            }
            apply(&mut base, seq, record)?;
            next_seq = seq + 1;
        }

        Ok(DurablePatternBase {
            base,
            storage: Some(Storage {
                io,
                cfg,
                next_seq,
                wal_len: replayed.durable_len,
                failed: false,
            }),
        })
    }

    /// Whether this base is backed by storage.
    pub fn is_durable(&self) -> bool {
        self.storage.is_some()
    }

    /// `Some(PoolStats::default())` on a durable base, `None` on a
    /// memory-only one: an inert shim (see [`PoolStats`]).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.storage.as_ref().map(|_| PoolStats::default())
    }

    /// Current WAL length in bytes (durable mode only).
    pub fn wal_bytes(&self) -> Option<u64> {
        self.storage.as_ref().map(|s| s.wal_len)
    }

    /// Archive a batch as one commit — one WAL append and one `fsync` —
    /// and return the handles, skipping
    /// empty summaries. On `Ok` the batch is durable. On `Err` memory is
    /// untouched, recovery yields the previous state plus a prefix of the
    /// batch (all of it if the checkpoint after the commit failed), and the
    /// base refuses every write until it is reopened.
    pub fn try_insert_all(
        &mut self,
        batch: impl IntoIterator<Item = (Sgs, WindowId)>,
    ) -> Result<Vec<PatternId>, PersistError> {
        let Some(storage) = &mut self.storage else {
            let inserted = batch
                .into_iter()
                .map(|(sgs, window)| self.base.insert(sgs, window));
            return Ok(inserted.flatten().collect());
        };
        let staged: Vec<_> = batch
            .into_iter()
            .filter(|(sgs, _)| !sgs.cells.is_empty())
            .collect();
        if staged.is_empty() {
            return Ok(Vec::new());
        }
        // WAL first, memory second.
        storage.commit(&staged)?;
        let checkpoint_due = storage.wal_len >= storage.cfg.checkpoint_wal_bytes;
        let inserted = staged
            .into_iter()
            .map(|(sgs, window)| self.base.insert(sgs, window));
        let ids = inserted.flatten().collect();
        if checkpoint_due {
            self.checkpoint()?;
        }
        Ok(ids)
    }

    /// [`try_insert_all`](Self::try_insert_all) of one summary.
    pub fn try_insert(
        &mut self,
        sgs: Sgs,
        window: WindowId,
    ) -> Result<Option<PatternId>, PersistError> {
        Ok(self.try_insert_all([(sgs, window)])?.pop())
    }

    /// Force a checkpoint: write the base as a compacted log into the
    /// store file atomically, then truncate the WAL.
    pub fn checkpoint(&mut self) -> Result<(), PersistError> {
        let Some(storage) = &mut self.storage else {
            return Ok(());
        };
        storage.usable()?;
        let m = crate::metrics::metrics();
        let _span = sgs_obs::SpanGuard::new(&m.checkpoint_nanos);
        m.checkpoints.inc();
        // Every pattern cost at least one logged record, so
        // `next_seq ≥ len`, and the seal carries `next_seq`.
        let image = store_image(&self.base, storage.next_seq - self.base.len() as u64);
        let written = storage
            .io
            .write_file_atomic(STORE_FILE, &image)
            .and_then(|()| storage.io.truncate(WAL_FILE, 0));
        storage.check(written)?;
        storage.wal_len = 0;
        Ok(())
    }

    /// The base's store image with its frames numbered from 0 — the
    /// oracle the recovery tests compare: two bases are equivalent iff
    /// these bytes match.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        store_image(&self.base, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultFs, FaultMode, FaultPlan};
    use sgs_core::GridGeometry;
    use sgs_matching::MatchConfig;
    use sgs_summarize::{multires, MemberSet};

    fn blob(x0: f64, n: usize) -> Sgs {
        let cores: Vec<Box<[f64]>> = (0..n)
            .map(|i| {
                vec![
                    x0 + 0.05 + (i % 6) as f64 * 0.3,
                    0.05 + (i / 6) as f64 * 0.3,
                ]
                .into()
            })
            .collect();
        Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0))
    }

    /// A summary of exactly `cells` cells (a row of single-core cells from
    /// column `col0`), so its packed size is known in advance.
    fn row(col0: i32, cells: usize) -> Sgs {
        let g = GridGeometry::basic(2, 1.0);
        let cores: Vec<Box<[f64]>> = (0..cells)
            .map(|k| vec![(col0 as f64 + k as f64 + 0.5) * g.side(), 0.5 * g.side()].into())
            .collect();
        Sgs::from_members(&MemberSet::new(cores, vec![]), &g)
    }

    /// A checkpointed base of `summaries` on a fresh `FaultFs`.
    fn checkpointed(summaries: &[Sgs]) -> (FaultFs, DurablePatternBase) {
        let fs = FaultFs::new();
        let mut base =
            DurablePatternBase::open_with(Box::new(fs.clone()), DurableConfig::default()).unwrap();
        for (k, sgs) in summaries.iter().enumerate() {
            base.try_insert(sgs.clone(), WindowId(k as u64)).unwrap();
        }
        base.checkpoint().unwrap();
        (fs, base)
    }

    fn tiny_checkpoint_cfg() -> DurableConfig {
        DurableConfig {
            checkpoint_wal_bytes: 512,
        }
    }

    #[test]
    fn memory_mode_matches_plain_base() {
        let mut durable = DurablePatternBase::memory();
        let mut plain = PatternBase::new();
        for k in 0..6 {
            let sgs = blob(k as f64 * 9.0, 18 + k);
            assert_eq!(
                durable.try_insert(sgs.clone(), WindowId(k as u64)).unwrap(),
                plain.insert(sgs, WindowId(k as u64))
            );
        }
        assert!(!durable.is_durable());
        assert_eq!(durable.len(), plain.len());
        assert_eq!(durable.snapshot_bytes(), store_image(&plain, 0));
    }

    #[test]
    fn reopen_recovers_wal_only_state() {
        let fs = FaultFs::new();
        let cfg = DurableConfig::default();
        let mut a = DurablePatternBase::open_with(Box::new(fs.clone()), cfg.clone()).unwrap();
        for k in 0..5 {
            a.try_insert(blob(k as f64 * 9.0, 20), WindowId(k)).unwrap();
        }
        let want = a.snapshot_bytes();
        // No checkpoint has run: everything lives in the WAL.
        assert!(a.wal_bytes().unwrap() > 0);
        let b = DurablePatternBase::open_with(Box::new(fs), cfg).unwrap();
        assert_eq!(b.snapshot_bytes(), want);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn reopen_recovers_checkpoint_plus_tail() {
        let fs = FaultFs::new();
        let cfg = tiny_checkpoint_cfg();
        let mut a = DurablePatternBase::open_with(Box::new(fs.clone()), cfg.clone()).unwrap();
        for k in 0..12 {
            a.try_insert(blob(k as f64 * 9.0, 16 + k as usize), WindowId(k))
                .unwrap();
        }
        let want = a.snapshot_bytes();
        // The tiny threshold forces checkpoints mid-run, so recovery
        // exercises snapshot + WAL-tail composition and seq skipping.
        let mut b = DurablePatternBase::open_with(Box::new(fs), cfg).unwrap();
        assert_eq!(b.snapshot_bytes(), want);
        // The recovered base keeps accepting inserts.
        assert!(b
            .try_insert(blob(999.0, 25), WindowId(99))
            .unwrap()
            .is_some());
        assert_eq!(b.len(), 13);
    }

    #[test]
    fn explicit_checkpoint_empties_wal_and_preserves_bytes() {
        let fs = FaultFs::new();
        let cfg = DurableConfig::default();
        let mut a = DurablePatternBase::open_with(Box::new(fs.clone()), cfg.clone()).unwrap();
        let inserted: Vec<Sgs> = (0..4).map(|k| blob(k as f64 * 9.0, 20 + k)).collect();
        assert!(
            inserted.iter().all(has_a_non_face_connection),
            "the summaries must hold connections the face bits cannot"
        );
        for (k, sgs) in (0..).zip(&inserted) {
            a.try_insert(sgs.clone(), WindowId(k)).unwrap();
        }
        // The base returns what it was given: live, from the WAL alone,
        // and from a checkpoint.
        assert_holds(&a, &inserted);
        assert_holds(&reopen(&fs, &cfg), &inserted);
        a.checkpoint().unwrap();
        assert_eq!(a.wal_bytes(), Some(0));
        let want = a.snapshot_bytes();
        let b = reopen(&fs, &cfg);
        assert_eq!(b.snapshot_bytes(), want);
        assert_holds(&b, &inserted);
    }

    fn reopen(fs: &FaultFs, cfg: &DurableConfig) -> DurablePatternBase {
        DurablePatternBase::open_with(Box::new(fs.clone()), cfg.clone()).unwrap()
    }

    /// Whether `sgs` links two cells that are not face neighbours.
    fn has_a_non_face_connection(sgs: &Sgs) -> bool {
        sgs.cells.iter().any(|cell| {
            cell.connections.iter().any(|&j| {
                let other = sgs.cells.get(j as usize).unwrap().coord;
                let steps = cell.coord.iter().zip(other);
                steps.map(|(a, b)| a.abs_diff(*b)).sum::<u32>() > 1
            })
        })
    }

    /// `base` holds exactly `inserted`, in order.
    fn assert_holds(base: &DurablePatternBase, inserted: &[Sgs]) {
        let held: Vec<&Sgs> = base.iter().map(|p| &p.sgs).collect();
        assert_eq!(held, inserted.iter().collect::<Vec<_>>());
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let fs = FaultFs::new();
        let cfg = DurableConfig::default();
        let mut a = DurablePatternBase::open_with(Box::new(fs.clone()), cfg.clone()).unwrap();
        a.try_insert(blob(0.0, 20), WindowId(0)).unwrap();
        a.try_insert(blob(9.0, 20), WindowId(1)).unwrap();
        let want_one = {
            let mut solo =
                DurablePatternBase::open_with(Box::new(FaultFs::new()), cfg.clone()).unwrap();
            solo.try_insert(blob(0.0, 20), WindowId(0)).unwrap();
            solo.snapshot_bytes()
        };
        // Tear the last 3 bytes off the WAL by hand.
        let wal = fs.contents(WAL_FILE).unwrap();
        let mut io: Box<dyn ArchiveIo> = Box::new(fs.clone());
        io.truncate(WAL_FILE, wal.len() as u64 - 3).unwrap();
        let b = DurablePatternBase::open_with(Box::new(fs.clone()), cfg).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.snapshot_bytes(), want_one);
        // The torn tail is gone from disk too.
        assert!(fs.contents(WAL_FILE).unwrap().len() < wal.len() - 3);
    }

    /// On real files: a base that has not logged yet has no WAL to
    /// truncate, and a checkpoint killed mid-flight leaves a torn staging
    /// file beside the good store. Neither may break `checkpoint`/`open`.
    #[test]
    fn disk_checkpoint_before_first_insert_and_over_stale_tmp() {
        let dir = std::env::temp_dir().join(format!("sgs_durable_fresh_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DurableConfig::default();

        let mut a = DurablePatternBase::open(&dir, cfg.clone()).unwrap();
        a.checkpoint().unwrap();
        drop(a);
        let mut a = DurablePatternBase::open(&dir, cfg.clone()).unwrap();
        assert!(a.is_empty());
        for k in 0..4 {
            a.try_insert(blob(k as f64 * 9.0, 20), WindowId(k)).unwrap();
        }
        a.checkpoint().unwrap();
        let want = a.snapshot_bytes();
        drop(a);

        let tmp = dir.join(format!("{STORE_FILE}.tmp"));
        std::fs::write(&tmp, b"torn half-written garbage").unwrap();
        let mut b = DurablePatternBase::open(&dir, cfg.clone()).unwrap();
        assert_eq!(b.snapshot_bytes(), want);
        b.try_insert(blob(99.0, 20), WindowId(4)).unwrap();
        b.checkpoint().unwrap();
        assert!(!tmp.exists(), "the next checkpoint replaces the stale tmp");
        let want = b.snapshot_bytes();
        drop(b);
        let c = DurablePatternBase::open(&dir, cfg).unwrap();
        assert_eq!(c.snapshot_bytes(), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The store is a log whose every byte is under a CRC and whose seal
    /// closes it, so a damaged store is an error: every truncation and
    /// every single-bit flip, never a panic and never a base.
    #[test]
    fn damaged_store_is_an_error_never_a_shorter_base() {
        let summaries: Vec<Sgs> = (0..10).map(|k| row(k * 40, 3 + k as usize % 4)).collect();
        let (fs, base) = checkpointed(&summaries);
        let image = fs.contents(STORE_FILE).unwrap();
        let open_image = |image: &[u8]| {
            let mut fs = FaultFs::new();
            fs.write_file_atomic(STORE_FILE, image).unwrap();
            DurablePatternBase::open_with(Box::new(fs), DurableConfig::default())
        };
        assert_eq!(
            open_image(&image).unwrap().snapshot_bytes(),
            base.snapshot_bytes()
        );
        for cut in 0..image.len() {
            assert!(open_image(&image[..cut]).is_err(), "cut at {cut} unnoticed");
        }
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut damaged = image.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    open_image(&damaged).is_err(),
                    "byte {byte} bit {bit} flipped unnoticed"
                );
            }
        }
    }

    /// A failed WAL write leaves torn bytes that replay stops at. An
    /// insert appended behind them would return `Ok` and vanish on
    /// reopen, so the base refuses every later write instead.
    #[test]
    fn a_failed_wal_write_refuses_every_later_write() {
        let fs = FaultFs::new();
        let mut base =
            DurablePatternBase::open_with(Box::new(fs.clone()), DurableConfig::default()).unwrap();
        base.try_insert(blob(0.0, 20), WindowId(0)).unwrap();
        fs.arm(FaultPlan {
            at: fs.total_written() + 10,
            mode: FaultMode::Truncate,
        });
        assert!(base.try_insert(blob(9.0, 20), WindowId(1)).is_err());
        fs.disarm();
        assert!(
            base.try_insert(blob(18.0, 20), WindowId(2)).is_err(),
            "an insert behind a torn write was acknowledged"
        );
        assert!(base.checkpoint().is_err());
        assert_eq!(base.len(), 1);

        let mut reopened =
            DurablePatternBase::open_with(Box::new(fs), DurableConfig::default()).unwrap();
        assert_eq!(reopened.snapshot_bytes(), base.snapshot_bytes());
        reopened.try_insert(blob(18.0, 20), WindowId(2)).unwrap();
        assert_eq!(reopened.len(), 2);
    }

    /// A frame that passes its CRC was written whole, so a record kind
    /// this build does not know — the retired kind-1 packed insert an
    /// older format wrote and the retired kind-2 coarsening included — is
    /// corruption. Opening fails and leaves both files as they were,
    /// instead of cutting the log at that frame and opening as a shorter
    /// base.
    #[test]
    fn a_checksummed_frame_of_an_unknown_kind_is_corrupt_and_changes_nothing() {
        let frame = |seq: u64, kind: u8, body: &[u8]| {
            let mut payload = seq.to_le_bytes().to_vec();
            payload.push(kind);
            payload.extend_from_slice(body);
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&wal::crc32(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            frame
        };
        // Window 7, then a 2-d one-cell summary in the retired face-bit
        // layout: dim, level, cell count, side; then the cell's position,
        // status, population and face mask.
        let packed_insert = [
            &7u64.to_le_bytes()[..],
            &[2, 0],
            &1u32.to_le_bytes(),
            &0.5f64.to_le_bytes(),
            &[0; 8],
            &[1],
            &20u32.to_le_bytes(),
            &[0, 0],
        ]
        .concat();
        // The coarsening of the pattern at insertion index 0.
        let index = 0u64;
        let cfg = DurableConfig::default();
        for (kind, body) in [
            (0x7F, &b"future"[..]),
            (1, &packed_insert),
            (2, &index.to_le_bytes()),
        ] {
            let (fs, _) = checkpointed(&[blob(9.0, 20)]);
            let mut base = reopen(&fs, &cfg);
            base.try_insert(blob(18.0, 20), WindowId(1)).unwrap();
            let seq = base.storage.as_ref().unwrap().next_seq;
            drop(base);
            let mut io: Box<dyn ArchiveIo> = Box::new(fs.clone());
            io.append(WAL_FILE, &frame(seq, kind, body)).unwrap();
            let files = |fs: &FaultFs| (fs.contents(STORE_FILE), fs.contents(WAL_FILE));
            let before = files(&fs);
            let err = DurablePatternBase::open_with(Box::new(fs.clone()), cfg.clone());
            assert!(
                matches!(err, Err(PersistError::Corrupt(ref msg)) if msg.contains("kind")),
                "kind {kind:#04x}: {:?}",
                err.map(|b| b.len())
            );
            assert!(files(&fs) == before, "kind {kind:#04x}: the files changed");
        }
        // A store an older format wrote is refused the same way.
        let mut store = frame(0, 1, &packed_insert);
        store.extend_from_slice(&frame(1, 3, &[]));
        let mut fs = FaultFs::new();
        fs.write_file_atomic(STORE_FILE, &store).unwrap();
        let err = DurablePatternBase::open_with(Box::new(fs.clone()), cfg);
        assert!(matches!(err, Err(PersistError::Corrupt(_))));
        assert_eq!(fs.contents(STORE_FILE).unwrap(), store);
    }

    /// A store whose `Insert`s hold coarsened summaries opens as it is:
    /// the level is part of the summary an insert logs, so recovery holds
    /// each pattern at the resolution it was archived at.
    #[test]
    fn a_store_of_coarsened_inserts_opens_as_it_is() {
        let coarse: Vec<Sgs> = (0..4)
            .map(|k| (0..k % 3).fold(blob(k as f64 * 9.0, 24), |s, _| multires::coarsen(&s, 2)))
            .collect();
        assert!(coarse.iter().any(|sgs| sgs.level > 0));
        let (fs, base) = checkpointed(&coarse);
        assert_eq!(base.wal_bytes(), Some(0));
        let reopened = reopen(&fs, &DurableConfig::default());
        assert_eq!(reopened.snapshot_bytes(), base.snapshot_bytes());
        assert_holds(&reopened, &coarse);
    }

    /// A `FaultFs` that counts WAL appends and fsyncs.
    struct Counting(FaultFs, std::sync::Arc<[std::sync::atomic::AtomicUsize; 2]>);

    impl ArchiveIo for Counting {
        fn read_file(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
            self.0.read_file(name)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
            self.1[0].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.append(name, bytes)
        }
        fn sync(&mut self, name: &str) -> io::Result<()> {
            self.1[1].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.sync(name)
        }
        fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
            self.0.truncate(name, len)
        }
        fn write_file_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
            self.0.write_file_atomic(name, bytes)
        }
    }

    /// A batch is one commit — one append, one fsync — and the base it
    /// leaves is the one recovery rebuilds. It logs exactly the bytes the
    /// same inserts make one at a time.
    #[test]
    fn a_batch_is_one_commit() {
        let summaries: Vec<Sgs> = (0..6).map(|k| blob(k as f64 * 9.0, 20 + k)).collect();
        let batch = || {
            (0..)
                .map(WindowId)
                .zip(summaries.clone())
                .map(|(w, s)| (s, w))
        };
        let cfg = DurableConfig::default();
        let fs = FaultFs::new();
        let counts = std::sync::Arc::new([0, 0].map(std::sync::atomic::AtomicUsize::new));
        let io = Counting(fs.clone(), counts.clone());
        let mut base = DurablePatternBase::open_with(Box::new(io), cfg.clone()).unwrap();
        let empty = Sgs {
            cells: Default::default(),
            ..summaries[0].clone()
        };
        assert!(base
            .try_insert_all([(empty, WindowId(9))])
            .unwrap()
            .is_empty());
        let ids = base.try_insert_all(batch()).unwrap();
        assert_eq!(ids, (0..6).map(PatternId).collect::<Vec<_>>());
        let counted = counts
            .each_ref()
            .map(|c| c.load(std::sync::atomic::Ordering::Relaxed));
        assert_eq!(counted, [1, 1], "(appends, fsyncs)");
        let reopened = DurablePatternBase::open_with(Box::new(fs.clone()), cfg.clone()).unwrap();
        assert_eq!(reopened.snapshot_bytes(), base.snapshot_bytes());
        let one_by_one = FaultFs::new();
        let mut single = DurablePatternBase::open_with(Box::new(one_by_one.clone()), cfg).unwrap();
        for (sgs, window) in batch() {
            single.try_insert(sgs, window).unwrap();
        }
        assert_eq!(one_by_one.contents(WAL_FILE), fs.contents(WAL_FILE));
    }

    /// A checkpointed and reopened base answers MATCH as the live one did.
    #[test]
    fn loaded_base_answers_matching_queries() {
        let summaries: Vec<Sgs> = (0..10).map(|k| blob(k as f64 * 7.0, 30 + k * 3)).collect();
        let (fs, base) = checkpointed(&summaries);
        let loaded = DurablePatternBase::open_with(Box::new(fs), DurableConfig::default()).unwrap();
        let query = base.iter().nth(4).unwrap().sgs.clone();
        let cfg = MatchConfig::equal_weights(true, 0.2);
        let live = base.match_query(&query, &cfg);
        let redo = loaded.match_query(&query, &cfg);
        assert_eq!(redo.matches[0].id, live.matches[0].id);
        assert!(redo.matches[0].distance < 1e-9);
    }

    /// A durable insert costs the same into a large base as into an empty
    /// one: nothing may touch the patterns already archived. (A ratio, so
    /// machine speed cancels; copying the base per insert put it near 8.)
    #[test]
    fn insert_cost_does_not_grow_with_the_base() {
        let mut base = DurablePatternBase::open_with(
            Box::new(FaultFs::new()),
            DurableConfig {
                checkpoint_wal_bytes: u64::MAX,
            },
        )
        .unwrap();
        // Seconds per insert over the quietest 100-insert stretch of
        // `range`: a shared box only ever adds time, so the minimum is the
        // estimate least disturbed by it.
        let mut cost = |range: std::ops::Range<u64>| {
            let mut best = f64::INFINITY;
            for chunk in range.step_by(100) {
                let summaries: Vec<Sgs> = (chunk..chunk + 100)
                    .map(|k| blob(k as f64 * 9.0, 20 + (k % 7) as usize))
                    .collect();
                let start = std::time::Instant::now();
                for (k, sgs) in (chunk..).zip(summaries) {
                    base.try_insert(sgs, WindowId(k)).unwrap();
                }
                best = best.min(start.elapsed().as_secs_f64() / 100.0);
            }
            best
        };
        let early = cost(0..500);
        cost(500..2000);
        let late = cost(2000..2500);
        assert!(
            late < 3.0 * early,
            "insert {:.1} us into a 2k base vs {:.1} us into an empty one",
            late * 1e6,
            early * 1e6
        );
    }
}
