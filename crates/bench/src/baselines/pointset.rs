//! Point-set distance for RSP matching (§8.2).
//!
//! The paper measures RSP-to-RSP distance with the subset matching
//! algorithm of \[15\]; the operative quantity is "how far is each sampled
//! point from the other cluster's sample". We implement the symmetric
//! (average-of-both-directions) Chamfer distance, normalized by the sets'
//! spread so it lands in `[0, 1]` — the same O(n·m) cost profile that makes
//! RSP matching slow in Fig. 8.

use super::rsp::Rsp;

/// Normalized symmetric Chamfer distance between two point samples.
pub fn chamfer_distance(a: &Rsp, b: &Rsp) -> f64 {
    chamfer_points(&a.sample, &b.sample)
}

/// Chamfer distance on raw point buffers.
pub fn chamfer_points(a: &[Box<[f64]>], b: &[Box<[f64]>]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    let dir = |from: &[Box<[f64]>], to: &[Box<[f64]>]| -> f64 {
        from.iter()
            .map(|p| {
                to.iter()
                    .map(|q| sgs_core::dist(p, q))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            / from.len() as f64
    };
    let spread = {
        let dim = a[0].len();
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for p in a.iter().chain(b.iter()) {
            for d in 0..dim {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        lo.iter()
            .zip(hi.iter())
            .map(|(l, h)| (h - l) * (h - l))
            .sum::<f64>()
            .sqrt()
            .max(1e-9)
    };
    (((dir(a, b) + dir(b, a)) / 2.0) / spread).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Box<[f64]>> {
        v.iter().map(|(x, y)| vec![*x, *y].into()).collect()
    }

    #[test]
    fn identical_sets_have_zero_distance() {
        let a = pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        assert_eq!(chamfer_points(&a, &a), 0.0);
    }

    #[test]
    fn empty_set_cases() {
        let a = pts(&[(0.0, 0.0)]);
        assert_eq!(chamfer_points(&[], &[]), 0.0);
        assert_eq!(chamfer_points(&a, &[]), 1.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = pts(&[(0.5, 0.5), (2.0, 2.0), (3.0, 0.0)]);
        assert!((chamfer_points(&a, &b) - chamfer_points(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn closer_shapes_are_closer() {
        let base = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let near = pts(&[(0.1, 0.1), (1.1, 0.0), (2.0, 0.1)]);
        let far = pts(&[(0.0, 5.0), (5.0, 5.0), (9.0, 0.0)]);
        assert!(chamfer_points(&base, &near) < chamfer_points(&base, &far));
    }

    #[test]
    fn bounded_by_one() {
        let a = pts(&[(0.0, 0.0)]);
        let b = pts(&[(1000.0, 1000.0)]);
        let d = chamfer_points(&a, &b);
        assert!((0.0..=1.0).contains(&d));
    }
}
