//! The customizable cluster distance metric of §7.2:
//!
//! ```text
//! Dist(Ca, Cb) = ps · Dist_location + Σ wi · Dist_nlf_i(Ca, Cb)
//! ```
//!
//! `Dist_location` is binary — 1 when the clusters do not overlap in data
//! space, 0 otherwise; `ps` switches position sensitivity. The four
//! non-locational features are those of §7.1: volume (cell count), status
//! count (core cells), average density, and average connectivity, each
//! compared by bounded relative difference so every term lies in `[0, 1]`.

use sgs_core::{Error, Result};
use sgs_summarize::Sgs;

/// The anytime alignment search's default evaluation budget
/// ([`MatchConfig::alignment_budget`]): what [`MatchConfig::equal_weights`]
/// and a parsed MATCH query start from.
pub const DEFAULT_ALIGNMENT_BUDGET: usize = 64;

/// Configuration of a cluster matching query.
#[derive(Clone, Debug, PartialEq)]
pub struct MatchConfig {
    /// Whether matched clusters must overlap in data space (`ps` = 1).
    pub position_sensitive: bool,
    /// Analyst weights on the four non-locational features
    /// `[volume, core_count, avg_density, avg_connectivity]`; must sum
    /// to 1.
    pub weights: [f64; 4],
    /// Maximum distance for a cluster to count as a match.
    pub threshold: f64,
    /// Evaluation budget for the anytime alignment search (number of
    /// candidate alignments examined) in the non-position-sensitive refine
    /// phase.
    pub alignment_budget: usize,
}

impl MatchConfig {
    /// Equal-weight configuration (the setting used in §8.2).
    pub fn equal_weights(position_sensitive: bool, threshold: f64) -> Self {
        MatchConfig {
            position_sensitive,
            weights: [0.25; 4],
            threshold,
            alignment_budget: DEFAULT_ALIGNMENT_BUDGET,
        }
    }

    /// Validate weights and threshold.
    pub fn validate(&self) -> Result<()> {
        if self.weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
            return Err(Error::InvalidMatchQuery(
                "feature weights must be non-negative and finite".into(),
            ));
        }
        let sum: f64 = self.weights.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(Error::InvalidMatchQuery(format!(
                "feature weights must sum to 1 (got {sum})"
            )));
        }
        if !(0.0..=1.0).contains(&self.threshold) {
            return Err(Error::InvalidMatchQuery(format!(
                "threshold must lie in [0, 1] (got {})",
                self.threshold
            )));
        }
        Ok(())
    }
}

/// Bounded relative difference `|a − b| / max(|a|, |b|)`, 0 when both are
/// 0 — shared with the extractor hot paths via [`sgs_core::kernel`], so
/// every cost loop in the system compares features through one
/// implementation.
pub use sgs_core::kernel::rel_diff;

/// Weighted distance between two feature vectors; each component is a
/// bounded relative difference, so the result lies in `[0, 1]` when the
/// weights sum to 1.
pub fn feature_distance(a: &[f64; 4], b: &[f64; 4], weights: &[f64; 4]) -> f64 {
    sgs_core::kernel::weighted_rel_diff_sum(a, b, weights)
}

/// Binary locational distance: 0 if the MBRs overlap, 1 otherwise (§7.2).
pub fn location_distance(a: &Sgs, b: &Sgs) -> f64 {
    match (a.mbr(), b.mbr()) {
        (Some(ra), Some(rb)) if ra.intersects(&rb) => 0.0,
        _ => 1.0,
    }
}

/// The cluster-level (filter-phase) distance of §7.2. For
/// position-sensitive queries a non-overlap immediately yields the maximum
/// distance 1 and no feature comparison is performed.
pub fn cluster_distance(a: &Sgs, b: &Sgs, config: &MatchConfig) -> f64 {
    if config.position_sensitive && location_distance(a, b) > 0.0 {
        return 1.0;
    }
    feature_distance(&a.features(), &b.features(), &config.weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::GridGeometry;
    use sgs_summarize::MemberSet;

    fn blob(x0: f64, n: usize) -> Sgs {
        let cores: Vec<Box<[f64]>> = (0..n)
            .map(|i| vec![x0 + i as f64 * 0.3, 0.1].into())
            .collect();
        Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0))
    }

    #[test]
    fn config_validation() {
        let mut c = MatchConfig::equal_weights(false, 0.2);
        c.validate().unwrap();
        c.weights = [0.5, 0.5, 0.5, 0.5];
        assert!(c.validate().is_err());
        c.weights = [1.0, 0.0, 0.0, 0.0];
        c.threshold = 1.5;
        assert!(c.validate().is_err());
        c.threshold = 0.3;
        c.validate().unwrap();
        c.weights = [-0.5, 0.5, 0.5, 0.5];
        assert!(c.validate().is_err());
    }

    #[test]
    fn rel_diff_bounds() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(1.0, 1.0), 0.0);
        assert_eq!(rel_diff(0.0, 5.0), 1.0);
        assert!((rel_diff(10.0, 20.0) - 0.5).abs() < 1e-12);
        assert_eq!(rel_diff(10.0, 20.0), rel_diff(20.0, 10.0));
    }

    #[test]
    fn identical_clusters_have_zero_distance() {
        let a = blob(0.0, 10);
        let cfg = MatchConfig::equal_weights(true, 0.5);
        assert_eq!(cluster_distance(&a, &a, &cfg), 0.0);
    }

    #[test]
    fn position_sensitive_rejects_disjoint() {
        // Shift by an exact multiple of the cell side (plus the same inner
        // offset) so the far blob has the identical cell structure.
        let side = GridGeometry::basic(2, 1.0).side();
        let a = blob(0.05, 10);
        let b = blob(0.05 + 140.0 * side, 10); // same shape, far away
        let ps = MatchConfig::equal_weights(true, 0.5);
        let nps = MatchConfig::equal_weights(false, 0.5);
        assert_eq!(cluster_distance(&a, &b, &ps), 1.0);
        // Non-position-sensitive: identical features → distance 0.
        assert_eq!(cluster_distance(&a, &b, &nps), 0.0);
    }

    #[test]
    fn feature_distance_respects_weights() {
        let a = [10.0, 5.0, 2.0, 1.0];
        let b = [20.0, 5.0, 2.0, 1.0]; // only volume differs (rel 0.5)
        assert!((feature_distance(&a, &b, &[1.0, 0.0, 0.0, 0.0]) - 0.5).abs() < 1e-12);
        assert_eq!(feature_distance(&a, &b, &[0.0, 1.0, 0.0, 0.0]), 0.0);
        assert!((feature_distance(&a, &b, &[0.25; 4]) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn bigger_clusters_are_farther() {
        let a = blob(0.0, 6);
        let slightly = blob(0.0, 8);
        let very = blob(0.0, 30);
        let cfg = MatchConfig::equal_weights(false, 1.0);
        assert!(cluster_distance(&a, &slightly, &cfg) < cluster_distance(&a, &very, &cfg));
    }
}
