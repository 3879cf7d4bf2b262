//! Continuous clustering query configuration.
//!
//! Mirrors the query template of Figure 2 in the paper:
//!
//! ```text
//! DETECT DensityBasedClusters(f+s) FROM stream
//! USING theta_range = r AND theta_cnt = c
//! IN Windows WITH win = w AND slide = s
//! ```

use crate::cell::GridGeometry;
use crate::error::{Error, Result};
use crate::window::WindowSpec;

/// Configures nothing. Kept solely because the frozen benchmark's
/// `e2ebench/src/workloads.rs` compiles against it: every query's
/// extractor is one sequential pass (`DESIGN.md` §6), and
/// [`ClusterQuery::with_shards`] and `RuntimeConfig::default_shards`
/// accept a value and ignore it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardCount {
    /// Ignored.
    #[default]
    Auto,
    /// Ignored.
    Fixed(u32),
}

/// How many worker threads the shared scheduler pool runs (see
/// `DESIGN.md` §8, "The shared scheduler pool"). The unit of parallelism
/// is the query: concurrent queries multiplex over these workers, so this
/// is the system's *one* thread budget: idle queries cost zero threads
/// regardless of how many are registered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolThreads {
    /// One worker per available CPU
    /// (`std::thread::available_parallelism`, falling back to 1 when
    /// that is unknown) — and concretely the process-wide shared pool,
    /// so runtimes with this setting all schedule on the same workers.
    #[default]
    Auto,
    /// Exactly this many workers on a dedicated pool. `Fixed(0)` is
    /// clamped to one worker.
    Fixed(u32),
}

impl PoolThreads {
    /// The concrete worker count (always ≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            PoolThreads::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            PoolThreads::Fixed(n) => (n as usize).max(1),
        }
    }
}

/// Parameters of a continuous density-based clustering query.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterQuery {
    /// Range threshold θr: two objects are neighbors iff their distance is
    /// at most θr (Def. 3.1).
    pub theta_r: f64,
    /// Count threshold θc: an object with at least θc neighbors is a core
    /// object (Def. 3.1). The object itself is not counted.
    pub theta_c: u32,
    /// Dimensionality of the data space.
    pub dim: usize,
    /// Sliding-window specification.
    pub window: WindowSpec,
}

impl ClusterQuery {
    /// Build and validate a query.
    pub fn new(theta_r: f64, theta_c: u32, dim: usize, window: WindowSpec) -> Result<Self> {
        // `!(x > 0)` rather than `x <= 0` deliberately: it also rejects NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(theta_r > 0.0) || !theta_r.is_finite() {
            return Err(Error::InvalidQuery(format!(
                "theta_r must be positive and finite, got {theta_r}"
            )));
        }
        if theta_c == 0 {
            return Err(Error::InvalidQuery(
                "theta_c must be at least 1 (a core object needs neighbors)".into(),
            ));
        }
        if dim == 0 {
            return Err(Error::InvalidQuery(
                "dimensionality must be positive".into(),
            ));
        }
        Ok(ClusterQuery {
            theta_r,
            theta_c,
            dim,
            window,
        })
    }

    /// Returns `self` unchanged. Kept solely because the frozen
    /// benchmark's `e2ebench/src/workloads.rs` calls it; see
    /// [`ShardCount`].
    pub fn with_shards(self, _: ShardCount) -> Self {
        self
    }

    /// The basic (finest, level-0) grid geometry for this query: cell
    /// diagonal = θr (§4.3).
    pub fn basic_grid(&self) -> GridGeometry {
        GridGeometry::basic(self.dim, self.theta_r)
    }

    /// Squared range threshold for hot-path comparisons.
    #[inline]
    pub fn theta_r_sq(&self) -> f64 {
        self.theta_r * self.theta_r
    }

    /// Number of window views (`win / slide`).
    #[inline]
    pub fn views(&self) -> u64 {
        self.window.views()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WindowSpec {
        WindowSpec::count(100, 10).unwrap()
    }

    #[test]
    fn valid_query_builds() {
        let q = ClusterQuery::new(0.5, 4, 2, spec()).unwrap();
        assert_eq!(q.views(), 10);
        assert!((q.basic_grid().diagonal() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_theta_r() {
        assert!(ClusterQuery::new(0.0, 4, 2, spec()).is_err());
        assert!(ClusterQuery::new(-1.0, 4, 2, spec()).is_err());
        assert!(ClusterQuery::new(f64::NAN, 4, 2, spec()).is_err());
        assert!(ClusterQuery::new(f64::INFINITY, 4, 2, spec()).is_err());
    }

    #[test]
    fn rejects_zero_theta_c_and_dim() {
        assert!(ClusterQuery::new(0.5, 0, 2, spec()).is_err());
        assert!(ClusterQuery::new(0.5, 4, 0, spec()).is_err());
    }

    #[test]
    fn pool_threads_resolution() {
        assert!(PoolThreads::Auto.resolve() >= 1);
        assert_eq!(PoolThreads::Fixed(0).resolve(), 1);
        assert_eq!(PoolThreads::Fixed(3).resolve(), 3);
        assert_eq!(PoolThreads::default(), PoolThreads::Auto);
    }
}
