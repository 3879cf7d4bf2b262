//! # sgs-archive
//!
//! The **Pattern Archiver** (§6) and **Pattern Base** (§7.1):
//!
//! * [`PatternArchiver`] — only decides *which* clusters to keep
//!   (sampling- or feature-based selection, §6.2) and stores them at the
//!   resolution they were built at; §6.1's multi-resolution hierarchy is
//!   storage accounting ([`choose_level`]), never applied to a stored
//!   pattern,
//! * [`PatternBase`] — stores the archived summaries with each one's MBR
//!   and 4-d feature vector (volume, core-cell count, average density,
//!   average connectivity), and executes **cluster matching queries** with
//!   the filter-and-refine strategy of §7.2, filtering in one scan,
//! * [`SharedPatternBase`] — a `parking_lot`-locked handle for the
//!   extractor → archiver → analyst pipeline (the system diagram of
//!   Fig. 4, where matching queries run against a base that is being
//!   appended to concurrently),
//! * [`DurablePatternBase`] — the durable tier (`DESIGN.md` §10): a
//!   CRC-framed write-ahead log whose checkpoint is the same log
//!   compacted, so every stored byte is checksummed and recovery is one
//!   replay of the store and then of the log's tail. Its one write,
//!   [`DurablePatternBase::try_insert_all`], commits a batch in one `fsync`,
//!   and nothing changes a pattern after its insert.

pub mod archiver;
pub mod durable;
pub mod io;
pub(crate) mod metrics;
pub mod pattern_base;
pub mod wal;

use std::path::Path;
use std::sync::Arc;

pub use archiver::{choose_level, ArchivePolicy, PatternArchiver};
pub use durable::{DurableConfig, DurablePatternBase, PersistError, PoolStats};
pub use io::{ArchiveIo, DiskIo};
pub use pattern_base::{ArchivedPattern, MatchOutcome, MatchResult, PatternBase, PatternId};

#[cfg(any(test, feature = "test-util"))]
pub use io::{FaultFs, FaultMode, FaultPlan};

/// Thread-safe handle to a pattern base (writer: archiver; readers:
/// matching queries). Since the durable tier landed (`DESIGN.md` §10)
/// this wraps [`DurablePatternBase`]; read paths reach [`PatternBase`]
/// through its `Deref`, and a memory-only handle behaves exactly as the
/// plain base used to.
pub type SharedPatternBase = Arc<parking_lot::RwLock<DurablePatternBase>>;

/// Create an empty, memory-only shared pattern base.
pub fn shared_pattern_base() -> SharedPatternBase {
    Arc::new(parking_lot::RwLock::new(DurablePatternBase::memory()))
}

/// Open (or recover) a durable shared pattern base in `dir`.
pub fn shared_durable_base(
    dir: impl AsRef<Path>,
    cfg: DurableConfig,
) -> Result<SharedPatternBase, PersistError> {
    Ok(Arc::new(parking_lot::RwLock::new(
        DurablePatternBase::open(dir, cfg)?,
    )))
}
