//! Construction-time metric handles of the durable archive tier
//! (`DESIGN.md` §11). Process-wide: every durable base in the process
//! shares these.

use std::sync::{Arc, OnceLock};

use sgs_obs::{registry, Counter, Histogram};

pub(crate) struct ArchiveMetrics {
    /// WAL frame append latency, nanoseconds.
    pub wal_append_nanos: Arc<Histogram>,
    /// WAL fsync latency, nanoseconds — the durability cost of one
    /// commit.
    pub wal_fsync_nanos: Arc<Histogram>,
    /// Full checkpoint duration (snapshot + atomic store write + WAL
    /// truncate), nanoseconds.
    pub checkpoint_nanos: Arc<Histogram>,
    /// Checkpoints taken.
    pub checkpoints: Arc<Counter>,
}

pub(crate) fn metrics() -> &'static ArchiveMetrics {
    static METRICS: OnceLock<ArchiveMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = registry();
        ArchiveMetrics {
            wal_append_nanos: r.histogram("sgs_archive_wal_append_nanos"),
            wal_fsync_nanos: r.histogram("sgs_archive_wal_fsync_nanos"),
            checkpoint_nanos: r.histogram("sgs_archive_checkpoint_nanos"),
            checkpoints: r.counter("sgs_archive_checkpoints_total"),
        }
    })
}
