//! The bit-exactness contract of the batched distance kernels
//! (`DESIGN.md` §13): for arbitrary dimensionalities, candidate counts,
//! and inputs, `kernel::for_each_within` compares exactly the bits
//! `dist_sq` would — with NaN results compared as NaN-for-NaN, since
//! IEEE 754 leaves NaN sign/payload bits unspecified and the optimizer
//! may pick different ones per code path — and so selects exactly the
//! scalar path's matches.

use proptest::prelude::*;
use sgs_core::{dist_sq, kernel};

/// Inject non-finite values deterministically: `sel` picks which special
/// value (if any) replaces the generated coordinate.
fn specialize(x: f64, sel: u8) -> f64 {
    match sel {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        _ => x,
    }
}

proptest! {
    /// Every distance the batched threshold filter compares is
    /// `to_bits`-identical to scalar `dist_sq` across dims 1–8 and slab
    /// lengths 0–257, with NaN/∞ sprinkled over both query and
    /// candidates. Each threshold is a candidate's own scalar distance or
    /// the next smaller one, so a one-ulp difference in any candidate's
    /// batched distance flips it in or out of the filter; the infinite
    /// threshold tells a NaN from a number.
    #[test]
    fn for_each_within_is_bit_identical_to_scalar(
        dim in 1usize..9,
        n in 0usize..258,
        raw in prop::collection::vec(-1e3f64..1e3, 8),
        sels in prop::collection::vec(0u64..64, 16),
        slab_raw in prop::collection::vec(-1e3f64..1e3, 258 * 8),
    ) {
        let query: Vec<f64> = (0..dim)
            .map(|i| specialize(raw[i], (sels[i] % 32) as u8))
            .collect();
        let slab: Vec<f64> = (0..n * dim)
            .map(|k| specialize(slab_raw[k], (sels[k % 16] >> (k % 5)) as u8 % 32))
            .collect();
        let scalar: Vec<f64> = (0..n)
            .map(|j| dist_sq(&query, &slab[j * dim..j * dim + dim]))
            .collect();
        let thresholds = scalar.iter().flat_map(|&d| [d, d.next_down()]);
        for theta_sq in thresholds.chain([f64::INFINITY]) {
            let mut got = Vec::new();
            kernel::for_each_within(&query, &slab, theta_sq, |j| got.push(j));
            let want: Vec<usize> = (0..n).filter(|&j| scalar[j] <= theta_sq).collect();
            prop_assert_eq!(&got, &want, "dim {} threshold {:?}", dim, theta_sq);
        }
    }

    /// The threshold filter visits exactly the indices the scalar
    /// comparison accepts, in slab order — NaN distances never match
    /// (`NaN <= θ²` is false), exact-threshold distances always do.
    #[test]
    fn for_each_within_matches_scalar_filter(
        dim in 1usize..9,
        n in 0usize..258,
        theta_sq in 0.0f64..1e5,
        sels in prop::collection::vec(0u64..64, 16),
        raw in prop::collection::vec(-1e2f64..1e2, 8),
        slab_raw in prop::collection::vec(-1e2f64..1e2, 258 * 8),
    ) {
        let query: Vec<f64> = (0..dim)
            .map(|i| specialize(raw[i], (sels[i] % 32) as u8))
            .collect();
        let slab: Vec<f64> = (0..n * dim)
            .map(|k| specialize(slab_raw[k], (sels[k % 16] >> (k % 5)) as u8 % 32))
            .collect();
        let mut got = Vec::new();
        kernel::for_each_within(&query, &slab, theta_sq, |j| got.push(j));
        let want: Vec<usize> = (0..n)
            .filter(|&j| dist_sq(&query, &slab[j * dim..j * dim + dim]) <= theta_sq)
            .collect();
        prop_assert_eq!(&got, &want);
    }
}
