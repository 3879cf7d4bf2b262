//! The durable tiered pattern base (`DESIGN.md` §10).
//!
//! [`DurablePatternBase`] wraps the in-memory [`PatternBase`] with a
//! write-ahead log, periodic page-store checkpoints, and retention that
//! **coarsens instead of dropping** (§6.1): when a byte budget is
//! exceeded, the oldest patterns are demoted one multi-resolution level at
//! a time, so MATCH keeps answering over the full history at degraded
//! granularity.
//!
//! The recovery invariant — *replay ⇒ byte-identical* — rests on three
//! rules:
//!
//! 1. every mutation is a WAL record fsynced **before** it is applied in
//!    memory (an insert logs the pattern's packed bytes; a retention
//!    demotion logs the pattern's index);
//! 2. the in-memory base stores the *canonical* form of every pattern —
//!    `packed::decode(packed::encode(sgs))` — which is exactly what WAL
//!    replay reconstructs, so live state and replayed state coarsen
//!    identically;
//! 3. a checkpoint atomically replaces the store file (whose header
//!    records `applied_seq`) before truncating the log, and recovery
//!    skips WAL records older than `applied_seq` — a crash between the
//!    two steps merely replays records that are already in the snapshot,
//!    and the skip makes that a no-op.

use std::path::Path;

use sgs_core::{ArchiveRetention, WindowId};
use sgs_summarize::{multires, packed, Sgs};

use crate::io::{ArchiveIo, DiskIo};
use crate::pager::{self, PoolStats, StoreReader};
use crate::pattern_base::{PatternBase, PatternId};
use crate::persist::{self, PersistError};
use crate::wal::{self, WalRecord};

/// Store file name inside the archive directory.
pub const STORE_FILE: &str = "base.store";
/// WAL file name inside the archive directory.
pub const WAL_FILE: &str = "base.wal";

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

/// Multi-resolution compression rate θ retention coarsens by (§6.1). A
/// constant, not a setting: WAL replay must demote exactly as the live
/// base did, so the θ a store was written with is the one it replays with.
const RETENTION_THETA: u32 = 2;
/// Coarsest level retention demotes a pattern to.
pub const RETENTION_MAX_LEVEL: u8 = 4;

struct Storage {
    io: Box<dyn ArchiveIo>,
    cfg: DurableConfig,
    /// What the checkpoint scan at `open` read.
    open_reads: PoolStats,
    /// Sequence number the next WAL record will carry.
    next_seq: u64,
    /// Current WAL length in bytes (checkpoint trigger).
    wal_len: u64,
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
        // 1. The last checkpoint, if any — decoded to bare entries; the
        // indexes are built once, after the WAL has had its say.
        let (mut entries, applied_seq, open_reads) =
            match pager::read_header(io.as_mut(), STORE_FILE)? {
                Some(header) => {
                    let mut reader = StoreReader::new(io.as_mut(), STORE_FILE, header);
                    let entries = persist::load_entries(&mut reader)?;
                    (entries, header.applied_seq, reader.stats)
                }
                None => (Vec::new(), 0, PoolStats::default()),
            };

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
            match record {
                WalRecord::Insert { window, packed } => {
                    let sgs = packed::decode(packed).ok_or_else(|| {
                        PersistError::Corrupt(format!("WAL insert {seq} undecodable"))
                    })?;
                    entries.push((sgs, window));
                }
                WalRecord::Coarsen { index } => {
                    let (sgs, _) = entries.get_mut(index as usize).ok_or_else(|| {
                        PersistError::Corrupt(format!(
                            "WAL coarsen {seq} targets missing pattern {index}"
                        ))
                    })?;
                    *sgs = demote(sgs).ok_or_else(|| {
                        PersistError::Corrupt(format!("WAL coarsen {seq} emptied pattern {index}"))
                    })?;
                }
            }
            next_seq = seq + 1;
        }

        Ok(DurablePatternBase {
            base: persist::base_of(entries),
            storage: Some(Storage {
                io,
                cfg,
                open_reads,
                next_seq,
                wal_len: replayed.durable_len,
            }),
        })
    }

    /// Whether this base is backed by storage.
    pub fn is_durable(&self) -> bool {
        self.storage.is_some()
    }

    /// Read counters of the checkpoint scan that opened this base
    /// (durable mode only): store pages fetched, and reads served from
    /// the page in hand.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.storage.as_ref().map(|s| s.open_reads)
    }

    /// Current WAL length in bytes (durable mode only).
    pub fn wal_bytes(&self) -> Option<u64> {
        self.storage.as_ref().map(|s| s.wal_len)
    }

    /// Archive a summary, surviving a crash at any point: on `Ok`, the
    /// insert is durable; on `Err`, recovery yields either the previous
    /// state or — if the crash hit after the WAL commit — this state.
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
        let frame = wal::encode_frame(storage.next_seq, &WalRecord::Insert { window, packed });
        let m = crate::metrics::metrics();
        let start = std::time::Instant::now();
        storage.io.append(WAL_FILE, &frame)?;
        m.wal_append_nanos.record_since(start);
        let start = std::time::Instant::now();
        storage.io.sync(WAL_FILE)?;
        m.wal_fsync_nanos.record_since(start);
        storage.next_seq += 1;
        storage.wal_len += frame.len() as u64;

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

    /// Force a checkpoint: snapshot the base into the store file
    /// atomically, then truncate the WAL.
    pub fn checkpoint(&mut self) -> Result<(), PersistError> {
        let Some(storage) = &mut self.storage else {
            return Ok(());
        };
        let m = crate::metrics::metrics();
        let _span = sgs_obs::SpanGuard::new(&m.checkpoint_nanos);
        m.checkpoints.inc();
        let mut payload = Vec::new();
        persist::save_to(&self.base, &mut payload)?;
        let image = pager::encode_store(storage.next_seq, &payload);
        storage.io.write_file_atomic(STORE_FILE, &image)?;
        storage.io.truncate(WAL_FILE, 0)?;
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
        let mut demoted: Vec<u64> = Vec::new();
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
                demoted.push(i as u64);
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
        let mut batch = Vec::new();
        for &index in &demoted {
            batch.extend_from_slice(&wal::encode_frame(
                storage.next_seq,
                &WalRecord::Coarsen { index },
            ));
            storage.next_seq += 1;
        }
        let m = crate::metrics::metrics();
        let start = std::time::Instant::now();
        storage.io.append(WAL_FILE, &batch)?;
        m.wal_append_nanos.record_since(start);
        let start = std::time::Instant::now();
        storage.io.sync(WAL_FILE)?;
        m.wal_fsync_nanos.record_since(start);
        m.coarsenings.add(demoted.len() as u64);
        storage.wal_len += batch.len() as u64;
        self.base = persist::base_of(entries);
        Ok(())
    }

    /// The base's persist-format byte image — the oracle the recovery
    /// tests compare: two bases are equivalent iff these bytes match.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        persist::save_to(&self.base, &mut buf).expect("Vec write cannot fail");
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::FaultFs;
    use sgs_core::GridGeometry;
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
        let mut plain_bytes = Vec::new();
        persist::save_to(&plain, &mut plain_bytes).unwrap();
        assert_eq!(durable.snapshot_bytes(), plain_bytes);
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

    /// Recovery is one pass: every payload page is fetched exactly once,
    /// whether or not the payload ends on a page boundary.
    #[test]
    fn open_fetches_each_store_page_exactly_once() {
        // 16 B stream header + 15 × (12 B record header + 14 B packed
        // header) + 246 cells × 15 B = exactly one page.
        let mut summaries: Vec<Sgs> = (0..14).map(|k| row(k * 40, 16)).collect();
        summaries.push(row(14 * 40, 22));
        let one_page = checkpointed(&summaries);
        assert_eq!(one_page.1.snapshot_bytes().len(), pager::PAGE_SIZE);
        summaries.extend((15..40).map(|k| row(k * 40, 30)));
        let ragged = checkpointed(&summaries);
        assert_ne!(ragged.1.snapshot_bytes().len() % pager::PAGE_SIZE, 0);

        for (fs, written) in [one_page, ragged] {
            let payload = written.snapshot_bytes();
            let reopened =
                DurablePatternBase::open_with(Box::new(fs), DurableConfig::default()).unwrap();
            assert_eq!(reopened.snapshot_bytes(), payload);
            assert_eq!(
                reopened.pool_stats().unwrap().misses,
                payload.len().div_ceil(pager::PAGE_SIZE) as u64
            );
        }
    }

    /// The store payload carries no checksum, so a damaged one must be
    /// caught by the decoder: a typed error, never a panic, an oversized
    /// allocation, or a silently shorter base.
    #[test]
    fn damaged_store_is_an_error_never_a_shorter_base() {
        let summaries: Vec<Sgs> = (0..40).map(|k| row(k * 40, 20 + k as usize % 7)).collect();
        let (fs, base) = checkpointed(&summaries);
        let want = base.snapshot_bytes();
        let image = fs.contents(STORE_FILE).unwrap();
        let payload_end = pager::PAGE_SIZE + want.len();
        assert!(
            image.len() >= 4 * pager::PAGE_SIZE,
            "want a multi-page store"
        );
        let open_image = |image: &[u8]| {
            let mut fs = FaultFs::new();
            fs.write_file_atomic(STORE_FILE, image).unwrap();
            DurablePatternBase::open_with(Box::new(fs), DurableConfig::default())
        };

        // (a) Cut at every page boundary and one byte either side.
        for boundary in (0..=image.len()).step_by(pager::PAGE_SIZE) {
            for cut in [boundary.wrapping_sub(1), boundary, boundary + 1] {
                if cut >= image.len() {
                    continue;
                }
                let opened = open_image(&image[..cut]);
                if cut < pager::PAGE_SIZE {
                    assert!(opened.is_err(), "header page cut at {cut} unnoticed");
                } else if cut < payload_end {
                    let short = matches!(&opened, Err(PersistError::Io(e))
                        if e.kind() == std::io::ErrorKind::UnexpectedEof);
                    assert!(short, "cut at {cut} lost payload unnoticed");
                } else {
                    // Only zero padding is gone.
                    assert_eq!(opened.unwrap().snapshot_bytes(), want);
                }
            }
        }

        // (b) Flip each bit of record 0's length field (after the 16 B
        // stream header and the record's 8 B window id).
        let len_field = pager::PAGE_SIZE + 16 + 8;
        for bit in 0..32 {
            let mut damaged = image.clone();
            damaged[len_field + bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(open_image(&damaged), Err(PersistError::Corrupt(_))),
                "length bit {bit} flipped unnoticed"
            );
        }
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
