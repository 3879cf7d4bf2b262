//! Filter-phase candidate range computation (§7.2).
//!
//! Given the to-be-matched cluster's features, the analyst weights and the
//! distance threshold, each feature dimension admits a closed interval
//! outside of which a candidate *cannot* be a match — because a single
//! feature's weighted relative difference already exceeds the threshold
//! (every other term of the metric is non-negative). A position-insensitive
//! MATCH keeps as candidates the archived patterns whose features all lie
//! in these intervals.

/// Interval of admissible candidate values on one feature dimension.
///
/// With bounded relative difference `|x − q| / max(x, q) ≤ r` where
/// `r = min(threshold / weight, 1)`, a non-negative feature `q` admits
/// `x ∈ [q·(1−r), q/(1−r)]` (upper bound unbounded as `r → 1`).
pub fn search_range(q: f64, weight: f64, threshold: f64) -> (f64, f64) {
    debug_assert!(q >= 0.0, "features are non-negative");
    if weight <= f64::EPSILON {
        // Unweighted feature constrains nothing.
        return (0.0, f64::INFINITY);
    }
    let r = (threshold / weight).min(1.0);
    if r >= 1.0 {
        return (0.0, f64::INFINITY);
    }
    let lo = q * (1.0 - r);
    let hi = if q == 0.0 { 0.0 } else { q / (1.0 - r) };
    (lo, hi)
}

/// Per-dimension admissible ranges for all four non-locational features.
pub fn feature_ranges(features: &[f64; 4], weights: &[f64; 4], threshold: f64) -> [(f64, f64); 4] {
    [
        search_range(features[0], weights[0], threshold),
        search_range(features[1], weights[1], threshold),
        search_range(features[2], weights[2], threshold),
        search_range(features[3], weights[3], threshold),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::rel_diff;

    #[test]
    fn range_is_sound() {
        // Any x outside the range must violate the per-feature bound; any
        // x inside must satisfy it.
        let (q, w, t) = (20.0, 0.4, 0.2);
        let (lo, hi) = search_range(q, w, t);
        for x in [lo, lo + 0.01, q, hi - 0.01, hi] {
            assert!(w * rel_diff(x, q) <= t + 1e-9, "x={x} should be admissible");
        }
        for x in [lo - 0.1, hi + 0.1] {
            assert!(w * rel_diff(x, q) > t, "x={x} should be excluded");
        }
    }

    #[test]
    fn paper_example_shape() {
        // §7.2's example: volume 20, effective ratio 0.5 → range [10, 40]
        // under the max-normalized metric (the paper's min-normalized
        // variant gives [14, 30]; both are sound filters for their metric).
        let (lo, hi) = search_range(20.0, 0.4, 0.2);
        assert!((lo - 10.0).abs() < 1e-9);
        assert!((hi - 40.0).abs() < 1e-9);
    }

    #[test]
    fn loose_threshold_means_unbounded() {
        let (lo, hi) = search_range(20.0, 0.2, 0.2); // r = 1
        assert_eq!(lo, 0.0);
        assert!(hi.is_infinite());
        let (lo, hi) = search_range(20.0, 0.0, 0.2); // zero weight
        assert_eq!(lo, 0.0);
        assert!(hi.is_infinite());
    }

    #[test]
    fn zero_feature_admits_only_zero_when_tight() {
        let (lo, hi) = search_range(0.0, 0.5, 0.1);
        assert_eq!((lo, hi), (0.0, 0.0));
    }

    #[test]
    fn all_four_ranges() {
        let ranges = feature_ranges(&[10.0, 5.0, 2.0, 1.0], &[0.25; 4], 0.125);
        for (i, (lo, hi)) in ranges.iter().enumerate() {
            assert!(lo < hi, "dim {i}");
            assert!(*lo >= 0.0);
        }
    }
}
