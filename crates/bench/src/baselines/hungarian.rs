//! The Hungarian algorithm (Kuhn–Munkres) for minimum-cost assignment —
//! the substrate under the bipartite graph-edit-distance approximation of
//! [`super::ged`].
//!
//! Implementation: the O(n³) shortest-augmenting-path formulation with
//! dual potentials (Jonker–Volgenant style), operating on a dense square
//! cost matrix.

/// Solve the square assignment problem.
///
/// `cost` is row-major `n × n`. Returns `(assignment, total)` where
/// `assignment[row] = column` and `total` is the minimum total cost.
///
/// # Panics
/// Panics if `cost.len() != n * n`.
pub fn hungarian(cost: &[f64], n: usize) -> (Vec<usize>, f64) {
    assert_eq!(cost.len(), n * n, "cost matrix must be n×n");
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    const INF: f64 = f64::INFINITY;
    // Potentials and matching, 1-based with a dummy column 0.
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; n + 1];
    let mut p = vec![0usize; n + 1]; // p[col] = row matched to col
    let mut way = vec![0usize; n + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            // Row slice and dual hoisted out of the scan: the inner loop
            // reads contiguous memory with no re-derived indices. The
            // subtraction stays left-associated (`(cost − u) − v`), so
            // every value is bitwise what the unhoisted form computed.
            let row = &cost[(i0 - 1) * n..i0 * n];
            let u_i0 = u[i0];
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = row[j - 1] - u_i0 - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![0usize; n];
    for j in 1..=n {
        if p[j] > 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    let total = assignment
        .iter()
        .enumerate()
        .map(|(r, &c)| cost[r * n + c])
        .sum();
    (assignment, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(cost: &[f64], n: usize) -> f64 {
        fn permute(cols: &mut Vec<usize>, k: usize, cost: &[f64], n: usize, best: &mut f64) {
            if k == n {
                let total: f64 = cols.iter().enumerate().map(|(r, &c)| cost[r * n + c]).sum();
                if total < *best {
                    *best = total;
                }
                return;
            }
            for i in k..n {
                cols.swap(k, i);
                permute(cols, k + 1, cost, n, best);
                cols.swap(k, i);
            }
        }
        let mut cols: Vec<usize> = (0..n).collect();
        let mut best = f64::INFINITY;
        permute(&mut cols, 0, cost, n, &mut best);
        best
    }

    #[test]
    fn identity_is_optimal_for_diagonal_dominance() {
        // Zero diagonal, ones elsewhere.
        let n = 4;
        let cost: Vec<f64> = (0..n * n)
            .map(|k| if k / n == k % n { 0.0 } else { 1.0 })
            .collect();
        let (assignment, total) = hungarian(&cost, n);
        assert_eq!(assignment, vec![0, 1, 2, 3]);
        assert_eq!(total, 0.0);
    }

    #[test]
    fn classic_3x3() {
        // Known instance: optimal = 5 (1+3+1? check by brute force).
        let cost = vec![4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0];
        let (_, total) = hungarian(&cost, 3);
        assert_eq!(total, brute_force(&cost, 3));
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for trial in 0..30 {
            let n = rng.gen_range(1..=6);
            let cost: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0.0..10.0)).collect();
            let (assignment, total) = hungarian(&cost, n);
            // assignment must be a permutation
            let mut seen = vec![false; n];
            for &c in &assignment {
                assert!(!seen[c], "duplicate column, trial {trial}");
                seen[c] = true;
            }
            let expect = brute_force(&cost, n);
            assert!(
                (total - expect).abs() < 1e-9,
                "trial {trial}: got {total}, want {expect}"
            );
        }
    }

    #[test]
    fn empty_instance() {
        let (assignment, total) = hungarian(&[], 0);
        assert!(assignment.is_empty());
        assert_eq!(total, 0.0);
    }

    #[test]
    fn single_cell() {
        let (assignment, total) = hungarian(&[7.5], 1);
        assert_eq!(assignment, vec![0]);
        assert_eq!(total, 7.5);
    }

    proptest::proptest! {
        /// The result is a permutation whose cost never exceeds the
        /// identity assignment.
        #[test]
        fn hungarian_beats_identity(n in 1usize..7, seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let cost: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0.0..10.0)).collect();
            let (assignment, total) = hungarian(&cost, n);
            let mut seen = vec![false; n];
            for &c in &assignment {
                proptest::prop_assert!(!seen[c]);
                seen[c] = true;
            }
            let identity: f64 = (0..n).map(|i| cost[i * n + i]).sum();
            proptest::prop_assert!(total <= identity + 1e-9);
        }
    }
}
