//! The registry of concurrent continuous queries: identity, lifecycle
//! state, and per-query execution statistics.
//!
//! Statistics are written by the query's executor task after every
//! processed batch and read by callers through [`Runtime::stats`]; the
//! shared cell is a vendored-`parking_lot` [`RwLock`] so a stats read
//! never blocks ingestion for longer than one batch update.
//!
//! [`Runtime::stats`]: crate::runtime::Runtime::stats

use std::sync::Arc;

use parking_lot::RwLock;

/// Stable handle of a registered continuous query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

/// Opaque tag of one registration session (a network connection, a
/// notebook, ...): queries registered with it
/// ([`Runtime::submit_detect`]) are the ones the owner-aware listings,
/// feeders, teardown steps and byte gauges of the runtime select. Mint
/// one per session with [`Runtime::new_owner`].
///
/// [`Runtime::submit_detect`]: crate::runtime::Runtime::submit_detect
/// [`Runtime::new_owner`]: crate::runtime::Runtime::new_owner
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OwnerId(pub u64);

impl core::fmt::Display for OwnerId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl core::fmt::Display for QueryId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// Lifecycle state of a registered query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryState {
    /// Receiving points and emitting windows.
    Running,
    /// Alive but not receiving points: tuples ingested while paused are
    /// skipped for this query (a gap in its stream), not buffered.
    Paused,
    /// Stopped by [`Runtime::cancel`]; final stats remain readable.
    ///
    /// [`Runtime::cancel`]: crate::runtime::Runtime::cancel
    Cancelled,
    /// The worker hit an unrecoverable error (e.g. a dimension mismatch);
    /// subsequent points are dropped. See [`QueryStats::error`].
    Failed,
}

/// Execution statistics of one continuous query.
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Points this query has processed.
    pub points: u64,
    /// Windows emitted.
    pub windows: u64,
    /// Clusters extracted across all emitted windows.
    pub clusters: u64,
    /// Clusters this query's archiver admitted to the shared history.
    pub archived: u64,
    /// Packed bytes of those summaries as archived.
    pub archive_bytes: usize,
    /// Worker-side processing time (extraction + summarization +
    /// archival), in nanoseconds. Excludes time spent waiting for input.
    pub busy_nanos: u64,
    /// The error message that moved the query to
    /// [`QueryState::Failed`], if any.
    pub error: Option<String>,
}

impl QueryStats {
    /// Mean clusters per emitted window.
    pub fn clusters_per_window(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.clusters as f64 / self.windows as f64
        }
    }
}

/// State + stats cell shared between a query's executor task and the
/// runtime front-end.
#[derive(Debug)]
pub(crate) struct Status {
    pub state: QueryState,
    pub stats: QueryStats,
}

pub(crate) type SharedStatus = Arc<RwLock<Status>>;

pub(crate) fn new_shared_status() -> SharedStatus {
    Arc::new(RwLock::new(Status {
        state: QueryState::Running,
        stats: QueryStats::default(),
    }))
}

/// A point-in-time public view of one registered query.
#[derive(Clone, Debug)]
pub struct QueryDescriptor {
    /// The query's handle.
    pub id: QueryId,
    /// The statement text (canonical rendering of the submitted AST).
    pub text: String,
    /// Lifecycle state at the time of the snapshot.
    pub state: QueryState,
    /// Statistics at the time of the snapshot.
    pub stats: QueryStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_derived_rates() {
        let mut s = QueryStats::default();
        assert_eq!(s.clusters_per_window(), 0.0);
        s.windows = 4;
        s.clusters = 10;
        assert!((s.clusters_per_window() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn query_id_displays_compactly() {
        assert_eq!(QueryId(3).to_string(), "Q3");
    }

    #[test]
    fn status_defaults_to_running() {
        let status = new_shared_status();
        assert_eq!(status.read().state, QueryState::Running);
    }
}
