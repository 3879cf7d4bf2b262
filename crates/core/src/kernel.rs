//! Batched distance kernels for the hot loops.
//!
//! Every neighbor check in the system funnels through squared Euclidean
//! distance, and the profile is dominated by one shape: *one* query point
//! against *many* candidates that sit contiguously in memory (a grid
//! cell's coordinate slab, a summary's point list). The kernels here
//! exploit that shape by vectorizing **across candidate points** — four
//! independent distance accumulations per step — instead of across
//! dimensions.
//!
//! ## The bit-exactness contract
//!
//! Each pairwise distance is still summed coordinate by coordinate in the
//! original order, exactly as [`crate::dist_sq`] does: the four lanes of a
//! chunk are four *independent* scalar evaluations, never a reassociated
//! horizontal sum. Every finite or ±∞ result is therefore bit-identical
//! to the scalar path, and NaN arises exactly where it would there (IEEE
//! 754 leaves NaN sign/payload bits unspecified and no consumer reads
//! them — a NaN distance simply fails every threshold), which is what
//! lets the extractor keep its byte-identical `WindowOutput` contract
//! while the index layer switches to batched scans (`DESIGN.md` §13). The speedup
//! comes from instruction-level parallelism and cache-friendly slab
//! layout, not from changing the arithmetic.

/// One scalar distance evaluation with a compile-time dimensionality, so
/// the per-coordinate loop fully unrolls. The operation sequence is
/// exactly [`crate::dist_sq`]'s: `acc = 0; acc += d·d` in coordinate
/// order.
#[inline(always)]
fn dist_sq_fixed<const D: usize>(q: &[f64; D], p: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..D {
        let d = q[i] - p[i];
        acc += d * d;
    }
    acc
}

/// Scalar fallback for dimensionalities without a fixed-size
/// specialization; still the exact [`crate::dist_sq`] sequence.
#[inline(always)]
fn dist_sq_dyn(q: &[f64], p: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..q.len() {
        let d = q[i] - p[i];
        acc += d * d;
    }
    acc
}

/// Visit each candidate's squared distance, four points per step.
///
/// `slab` holds the candidates point-major (`dim` consecutive
/// coordinates per point). The four evaluations of a chunk are
/// independent scalar chains — the compiler turns them into SIMD lanes /
/// overlapping pipelines without any licence to reassociate within one
/// distance.
#[inline(always)]
fn for_each_dist_sq_chunked<const D: usize>(
    q: &[f64; D],
    slab: &[f64],
    mut f: impl FnMut(usize, f64),
) {
    let n = slab.len() / D;
    let mut j = 0;
    while j + 4 <= n {
        let base = j * D;
        let d0 = dist_sq_fixed(q, &slab[base..base + D]);
        let d1 = dist_sq_fixed(q, &slab[base + D..base + 2 * D]);
        let d2 = dist_sq_fixed(q, &slab[base + 2 * D..base + 3 * D]);
        let d3 = dist_sq_fixed(q, &slab[base + 3 * D..base + 4 * D]);
        f(j, d0);
        f(j + 1, d1);
        f(j + 2, d2);
        f(j + 3, d3);
        j += 4;
    }
    while j < n {
        f(j, dist_sq_fixed(q, &slab[j * D..j * D + D]));
        j += 1;
    }
}

/// Dispatch a slab visit to the fixed-dimension kernels the workloads
/// actually use (2-d GMTI, 3-d trajectories, 4-d STT), falling back to
/// the dynamic-dimension chunked loop elsewhere.
#[inline]
fn visit_dists(query: &[f64], slab: &[f64], mut f: impl FnMut(usize, f64)) {
    debug_assert_eq!(slab.len() % query.len().max(1), 0, "ragged slab");
    match query.len() {
        1 => for_each_dist_sq_chunked::<1>(query.try_into().unwrap(), slab, f),
        2 => for_each_dist_sq_chunked::<2>(query.try_into().unwrap(), slab, f),
        3 => for_each_dist_sq_chunked::<3>(query.try_into().unwrap(), slab, f),
        4 => for_each_dist_sq_chunked::<4>(query.try_into().unwrap(), slab, f),
        d => {
            let n = slab.len().checked_div(d).unwrap_or(0);
            let mut j = 0;
            while j + 4 <= n {
                let base = j * d;
                let d0 = dist_sq_dyn(query, &slab[base..base + d]);
                let d1 = dist_sq_dyn(query, &slab[base + d..base + 2 * d]);
                let d2 = dist_sq_dyn(query, &slab[base + 2 * d..base + 3 * d]);
                let d3 = dist_sq_dyn(query, &slab[base + 3 * d..base + 4 * d]);
                f(j, d0);
                f(j + 1, d1);
                f(j + 2, d2);
                f(j + 3, d3);
                j += 4;
            }
            while j < n {
                f(j, dist_sq_dyn(query, &slab[j * d..j * d + d]));
                j += 1;
            }
        }
    }
}

/// Call `f(index)` for every slab point within `theta_sq` of `query`
/// (squared-threshold comparison, inclusive — the Def. 3.1 neighbor
/// predicate), in slab order.
///
/// `slab` is point-major: `slab.len() / query.len()` candidate points of
/// `query.len()` coordinates each, and each distance compared is
/// bit-identical to `dist_sq(query, candidate)`.
///
/// The threshold test happens *after* the batched distance evaluation, so
/// the per-candidate loop the caller used to run (distance + id-exclusion
/// branch per entry) collapses to one branch per *match*.
#[inline]
pub fn for_each_within(query: &[f64], slab: &[f64], theta_sq: f64, mut f: impl FnMut(usize)) {
    visit_dists(query, slab, |j, d| {
        if d <= theta_sq {
            f(j);
        }
    });
}

/// Bounded relative difference `|a − b| / max(|a|, |b|)`, 0 when both are
/// (near) zero — the feature comparator of the §7.2 matching metric,
/// hoisted here so the matcher's cost loops share one kernel layer.
#[inline]
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let m = a.abs().max(b.abs());
    if m <= f64::EPSILON {
        0.0
    } else {
        ((a - b).abs() / m).min(1.0)
    }
}

/// Weighted sum of component-wise bounded relative differences — the
/// non-locational feature distance of §7.2 in one pass.
#[inline]
pub fn weighted_rel_diff_sum(a: &[f64], b: &[f64], weights: &[f64]) -> f64 {
    debug_assert!(a.len() == b.len() && b.len() == weights.len());
    weights
        .iter()
        .zip(a.iter().zip(b.iter()))
        .map(|(w, (x, y))| w * rel_diff(*x, *y))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_sq;

    fn slab_of(points: &[Vec<f64>]) -> Vec<f64> {
        points.iter().flatten().copied().collect()
    }

    /// Whether the batched distance to `point` has the bits of the
    /// scalar one: within its own scalar distance, and not within the
    /// next smaller threshold, so a one-ulp difference either way tells.
    /// A NaN scalar distance must be NaN batched: within no threshold.
    fn batched_has_scalar_bits(q: &[f64], slab: &[f64], j: usize, want: f64) -> bool {
        let within = |theta_sq: f64| {
            let mut hit = false;
            for_each_within(q, slab, theta_sq, |k| hit |= k == j);
            hit
        };
        if want.is_nan() {
            !within(f64::INFINITY)
        } else {
            within(want) && !within(want.next_down())
        }
    }

    #[test]
    fn batch_matches_scalar_bitwise_all_dims() {
        for dim in 1..=6usize {
            let q: Vec<f64> = (0..dim).map(|i| 0.25 * i as f64 - 1.0).collect();
            // Enough points to cover chunked body and tail.
            let pts: Vec<Vec<f64>> = (0..11)
                .map(|j| {
                    (0..dim)
                        .map(|i| (j * dim + i) as f64 * 0.37 - 2.0)
                        .collect()
                })
                .collect();
            let slab = slab_of(&pts);
            for (j, p) in pts.iter().enumerate() {
                assert!(
                    batched_has_scalar_bits(&q, &slab, j, dist_sq(&q, p)),
                    "dim {dim}, point {j}"
                );
            }
        }
    }

    #[test]
    fn batch_propagates_non_finite_like_scalar() {
        let q = [0.0, f64::INFINITY];
        let pts = vec![
            vec![1.0, 2.0],
            vec![f64::NAN, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![f64::NEG_INFINITY, 3.0],
            vec![0.0, 0.0],
        ];
        let slab = slab_of(&pts);
        for (j, p) in pts.iter().enumerate() {
            assert!(
                batched_has_scalar_bits(&q, &slab, j, dist_sq(&q, p)),
                "point {j}"
            );
        }
    }

    #[test]
    fn within_filter_matches_manual_scan() {
        let q = [0.5, 0.5];
        let pts: Vec<Vec<f64>> = (0..23).map(|j| vec![j as f64 * 0.2, 0.4]).collect();
        let slab = slab_of(&pts);
        let theta_sq = 0.81;
        let mut got = Vec::new();
        for_each_within(&q, &slab, theta_sq, |j| got.push(j));
        let want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| dist_sq(&q, p) <= theta_sq)
            .map(|(j, _)| j)
            .collect();
        assert_eq!(got, want);
        for_each_within(&q, &slab, -1.0, |_| panic!("no distance is negative"));
    }

    #[test]
    fn empty_slab_is_a_no_op() {
        for_each_within(&[1.0, 2.0], &[], f64::INFINITY, |_| panic!("no candidates"));
        for_each_within(&[1.0], &[], 10.0, |_| panic!("no candidates"));
    }

    #[test]
    fn rel_diff_kernel_semantics() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(0.0, 5.0), 1.0);
        assert!((rel_diff(10.0, 20.0) - 0.5).abs() < 1e-12);
        let a = [10.0, 5.0];
        let b = [20.0, 5.0];
        assert!((weighted_rel_diff_sum(&a, &b, &[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }
}
