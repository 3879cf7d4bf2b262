//! The durable tiered pattern base (`DESIGN.md` §10).
//!
//! [`DurablePatternBase`] wraps the in-memory [`PatternBase`] with a
//! write-ahead log, periodic checkpoints, and retention that **coarsens
//! instead of dropping** (§6.1): when a byte budget is exceeded, the
//! oldest patterns are demoted one multi-resolution level at a time, so
//! MATCH keeps answering over the full history at degraded granularity.
//!
//! Both files speak one format, the CRC'd frames of [`wal`]: the WAL
//! logs every mutation, and a checkpoint store is that log compacted —
//! one `Insert` frame per pattern in insertion order, then a `Seal`. The
//! recovery invariant — *replay ⇒ byte-identical* — rests on four rules:
//!
//! 1. every mutation is a WAL record fsynced **before** it is applied in
//!    memory (an insert logs the pattern's packed bytes; a retention
//!    demotion logs the pattern's index);
//! 2. the in-memory base stores the *canonical* form of every pattern —
//!    `packed::decode(packed::encode(sgs))` — which is exactly what WAL
//!    replay reconstructs, so live state and replayed state coarsen
//!    identically;
//! 3. a checkpoint atomically replaces the store file before truncating
//!    the log. The store's frames are numbered so its seal carries the
//!    sequence number the next WAL record will carry (`applied_seq`), and
//!    recovery skips WAL records below it — a crash between the two steps
//!    merely replays records that are already in the snapshot, and the
//!    skip makes that a no-op;
//! 4. after a failed write the base refuses every later mutation until it
//!    is reopened: the torn bytes stay in the log, replay stops at them,
//!    and a record appended behind them would be acknowledged and lost.

use std::io;
use std::path::Path;

use sgs_core::{ArchiveRetention, WindowId};
use sgs_summarize::{multires, packed, Sgs};

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

impl std::error::Error for PersistError {}

/// Configuration of a durable pattern base: when to coarsen and when to
/// checkpoint. Recovery itself has no knobs — it is one
/// sequential pass over the checkpoint, then the WAL tail.
#[derive(Clone, Debug)]
pub struct DurableConfig {
    /// What happens as the archive grows ([`ArchiveRetention`]).
    pub retention: ArchiveRetention,
    /// Checkpoint once the WAL exceeds this many bytes.
    pub checkpoint_wal_bytes: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            retention: ArchiveRetention::Unbounded,
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

/// Multi-resolution compression rate θ retention coarsens by (§6.1). A
/// constant, not a setting: WAL replay must demote exactly as the live
/// base did, so the θ a store was written with is the one it replays with.
const RETENTION_THETA: u32 = 2;
/// Coarsest level retention demotes a pattern to.
pub const RETENTION_MAX_LEVEL: u8 = 4;

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

    /// Append `records` to the WAL as one batch and fsync it — the commit
    /// point of every mutation.
    fn commit(&mut self, records: &[WalRecord]) -> Result<(), PersistError> {
        self.usable()?;
        let mut batch = Vec::new();
        for (seq, record) in (self.next_seq..).zip(records) {
            batch.extend_from_slice(&wal::encode_frame(seq, record));
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
        self.next_seq += records.len() as u64;
        self.wal_len += batch.len() as u64;
        Ok(())
    }
}

/// A pattern base whose mutations survive process crashes.
///
/// Dereferences to [`PatternBase`] for all read paths (`len`, `get`,
/// `match_query`, …); mutation goes through [`insert`](Self::insert),
/// which write-ahead-logs before touching memory. With no storage
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

/// The canonical archived form: what packing keeps (face connections,
/// sorted cells). Live inserts store this so WAL replay — which can only
/// reconstruct from packed bytes — produces bit-for-bit the same base.
fn canonical(sgs: &Sgs) -> Option<(bytes::Bytes, Sgs)> {
    sgs.mbr()?;
    let packed = packed::encode(sgs);
    let canon = packed::decode(packed.clone())?;
    Some((packed, canon))
}

/// One retention demotion: `sgs` a multi-resolution level coarser, in
/// canonical form. Live retention and WAL replay both go through here, so
/// a replayed `Coarsen` reproduces the live result bit for bit. `None` if
/// coarsening left nothing to archive.
fn demote(sgs: &Sgs) -> Option<Sgs> {
    canonical(&multires::coarsen(sgs, RETENTION_THETA)).map(|(_, canon)| canon)
}

/// Index decoded entries into a pattern base, in order.
pub(crate) fn base_of(entries: Vec<(Sgs, WindowId)>) -> PatternBase {
    let mut base = PatternBase::new();
    for (sgs, window) in entries {
        base.insert(sgs, window);
    }
    base
}

/// The store image of `base`: one `Insert` frame per pattern in
/// insertion order, numbered from `first_seq`, then the `Seal`.
fn store_image(base: &PatternBase, first_seq: u64) -> Vec<u8> {
    let mut image = Vec::new();
    for (seq, pattern) in (first_seq..).zip(base.iter()) {
        let record = WalRecord::Insert {
            window: pattern.window,
            packed: packed::encode(&pattern.sgs),
        };
        image.extend_from_slice(&wal::encode_frame(seq, &record));
    }
    let seal_seq = first_seq + base.len() as u64;
    image.extend_from_slice(&wal::encode_frame(seal_seq, &WalRecord::Seal));
    image
}

/// Apply one logged record to the entries being recovered.
fn apply(
    entries: &mut Vec<(Sgs, WindowId)>,
    seq: u64,
    record: WalRecord,
) -> Result<(), PersistError> {
    match record {
        WalRecord::Insert { window, packed } => {
            let sgs = packed::decode(packed)
                .filter(|sgs| !sgs.cells.is_empty())
                .ok_or_else(|| PersistError::Corrupt(format!("insert {seq} undecodable")))?;
            entries.push((sgs, window));
        }
        WalRecord::Coarsen { index } => {
            let (sgs, _) = entries.get_mut(index as usize).ok_or_else(|| {
                PersistError::Corrupt(format!("coarsen {seq} targets missing pattern {index}"))
            })?;
            *sgs = demote(sgs).ok_or_else(|| {
                PersistError::Corrupt(format!("coarsen {seq} emptied pattern {index}"))
            })?;
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
    /// Memory-only base: no WAL, no checkpoints, no retention — the
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
        // a shorter base. The indexes are built once, after the WAL has
        // had its say.
        let mut entries = Vec::new();
        let mut applied_seq = 0;
        if let Some(store) = io.read_file(STORE_FILE)? {
            let mut replayed = wal::replay(&store);
            let whole = replayed.durable_len == store.len() as u64;
            let Some((seal_seq, WalRecord::Seal)) = replayed.records.pop().filter(|_| whole) else {
                return Err(PersistError::Corrupt(format!(
                    "{STORE_FILE} is damaged after byte {}",
                    replayed.durable_len
                )));
            };
            for (seq, record) in replayed.records {
                apply(&mut entries, seq, record)?;
            }
            applied_seq = seal_seq;
        }

        // 2. Replay the WAL tail, discarding torn bytes.
        let wal_bytes = io.read_file(WAL_FILE)?.unwrap_or_default();
        let replayed = wal::replay(&wal_bytes);
        if replayed.durable_len < wal_bytes.len() as u64 {
            io.truncate(WAL_FILE, replayed.durable_len)?;
        }
        let mut next_seq = applied_seq;
        for (seq, record) in replayed.records {
            if seq < applied_seq {
                continue; // already in the checkpoint
            }
            apply(&mut entries, seq, record)?;
            next_seq = seq + 1;
        }

        Ok(DurablePatternBase {
            base: base_of(entries),
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

    /// Archive a summary, surviving a crash at any point: on `Ok`, the
    /// insert is durable; on `Err`, recovery yields either the previous
    /// state or — if the crash hit after the WAL commit — this state, and
    /// this base refuses every later write until it is reopened.
    /// Empty summaries return `Ok(None)` without logging.
    pub fn try_insert(
        &mut self,
        sgs: Sgs,
        window: WindowId,
    ) -> Result<Option<PatternId>, PersistError> {
        let Some(storage) = &mut self.storage else {
            return Ok(self.base.insert(sgs, window));
        };
        let Some((packed, canon)) = canonical(&sgs) else {
            return Ok(None);
        };

        // WAL first, memory second.
        storage.commit(&[WalRecord::Insert { window, packed }])?;
        let id = self.base.insert(canon, window);
        self.enforce_retention()?;
        self.maybe_checkpoint()?;
        Ok(id)
    }

    /// Infallible [`try_insert`](Self::try_insert) for the runtime's
    /// archiving hot path.
    ///
    /// # Panics
    /// Panics if the underlying storage fails — a durable archive that
    /// cannot log can no longer honor its recovery contract.
    pub fn insert(&mut self, sgs: Sgs, window: WindowId) -> Option<PatternId> {
        self.try_insert(sgs, window)
            .expect("durable pattern base: WAL write failed")
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

    fn maybe_checkpoint(&mut self) -> Result<(), PersistError> {
        let due = self
            .storage
            .as_ref()
            .is_some_and(|s| s.wal_len >= s.cfg.checkpoint_wal_bytes);
        if due {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Apply the retention policy by coarsening — never dropping —
    /// patterns, oldest first, one level per pass, logging each demotion
    /// to the WAL before rebuilding the in-memory base.
    fn enforce_retention(&mut self) -> Result<(), PersistError> {
        let Some(storage) = &mut self.storage else {
            return Ok(());
        };
        // Most inserts demote nothing: settle that on the live base before
        // paying for a scratch copy of it.
        let ArchiveRetention::ByteBudget(budget) = storage.cfg.retention else {
            return Ok(());
        };
        let mut total = self.base.archived_bytes();
        if total <= budget {
            return Ok(());
        }

        // Decide the demotions on a scratch copy of the entries.
        let mut entries: Vec<(Sgs, WindowId)> = self
            .base
            .iter()
            .map(|p| (p.sgs.clone(), p.window))
            .collect();
        let mut demoted: Vec<WalRecord> = Vec::new();
        // Oldest-first passes; each pass demotes each pattern at most one
        // level, so resolution degrades evenly from the old end instead of
        // one pattern collapsing to dust.
        'outer: while total > budget {
            let mut progressed = false;
            for (i, (sgs, _)) in entries.iter_mut().enumerate() {
                if total <= budget {
                    break 'outer;
                }
                if sgs.level >= RETENTION_MAX_LEVEL {
                    continue;
                }
                let before = packed::archived_bytes(sgs);
                let Some(coarse) = demote(sgs) else {
                    continue;
                };
                total = total - before + packed::archived_bytes(&coarse);
                *sgs = coarse;
                demoted.push(WalRecord::Coarsen { index: i as u64 });
                progressed = true;
            }
            if !progressed {
                break; // everything is at the coarsest level already
            }
        }
        if demoted.is_empty() {
            return Ok(());
        }

        // Log the whole demotion batch, commit, then apply in memory.
        storage.commit(&demoted)?;
        crate::metrics::metrics()
            .coarsenings
            .add(demoted.len() as u64);
        self.base = base_of(entries);
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
    use sgs_summarize::MemberSet;

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
            ..DurableConfig::default()
        }
    }

    #[test]
    fn memory_mode_matches_plain_base() {
        let mut durable = DurablePatternBase::memory();
        let mut plain = PatternBase::new();
        for k in 0..6 {
            let sgs = blob(k as f64 * 9.0, 18 + k);
            assert_eq!(
                durable.insert(sgs.clone(), WindowId(k as u64)),
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
        for k in 0..4 {
            a.try_insert(blob(k as f64 * 9.0, 20), WindowId(k)).unwrap();
        }
        a.checkpoint().unwrap();
        assert_eq!(a.wal_bytes(), Some(0));
        let want = a.snapshot_bytes();
        let b = DurablePatternBase::open_with(Box::new(fs), cfg).unwrap();
        assert_eq!(b.snapshot_bytes(), want);
    }

    #[test]
    fn byte_budget_coarsens_oldest_never_drops() {
        let fs = FaultFs::new();
        let mut base = DurablePatternBase::open_with(
            Box::new(fs.clone()),
            DurableConfig {
                retention: ArchiveRetention::ByteBudget(700),
                ..DurableConfig::default()
            },
        )
        .unwrap();
        for k in 0..10 {
            base.try_insert(blob(k as f64 * 9.0, 30), WindowId(k))
                .unwrap();
        }
        assert_eq!(base.len(), 10, "retention must never drop patterns");
        assert!(base.archived_bytes() <= 700);
        // Oldest-first: the first pattern is at least as coarse as the last.
        let levels: Vec<u8> = base.iter().map(|p| p.sgs.level).collect();
        assert!(levels[0] >= *levels.last().unwrap());
        assert!(
            levels.iter().any(|&l| l > 0),
            "something must have coarsened"
        );
        // And the demotions are WAL-logged: recovery reproduces them.
        let want = base.snapshot_bytes();
        let b = DurablePatternBase::open_with(
            Box::new(fs),
            DurableConfig {
                retention: ArchiveRetention::ByteBudget(700),
                ..DurableConfig::default()
            },
        )
        .unwrap();
        assert_eq!(b.snapshot_bytes(), want);
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
    /// one: while retention has nothing to demote — `Unbounded`, or a byte
    /// budget not yet reached — nothing may touch the patterns already
    /// archived. (A ratio, so machine speed cancels; copying the base per
    /// insert put it near 8.)
    #[test]
    fn insert_cost_does_not_grow_with_the_base() {
        for retention in [
            ArchiveRetention::Unbounded,
            ArchiveRetention::ByteBudget(usize::MAX / 2),
        ] {
            let mut base = DurablePatternBase::open_with(
                Box::new(FaultFs::new()),
                DurableConfig {
                    retention,
                    checkpoint_wal_bytes: u64::MAX,
                },
            )
            .unwrap();
            // Seconds per insert over the quietest 100-insert stretch of
            // `range`: a shared box only ever adds time, so the minimum is
            // the estimate least disturbed by it.
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
                "{retention:?}: insert {:.1} us into a 2k base vs {:.1} us into an empty one",
                late * 1e6,
                early * 1e6
            );
        }
    }
}
