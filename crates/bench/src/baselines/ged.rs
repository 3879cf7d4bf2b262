//! Suboptimal graph edit distance for SkPS matching (§8.2, \[13\]).
//!
//! Neuhaus, Riesen & Bunke's bipartite approximation: build an
//! `(n+m) × (n+m)` cost matrix of node substitutions (top-left), deletions
//! (top-right diagonal) and insertions (bottom-left diagonal), solve the
//! assignment with the Hungarian algorithm, and read the resulting edit
//! cost. Local edge structure enters through per-node degree differences —
//! the standard "node + adjacent edges" cost model.

use super::hungarian::hungarian;
use super::skps::SkPs;

/// Normalized (0–1) approximate graph edit distance between two SkPS
/// summaries.
///
/// Substituting node `a` by node `b` costs a normalized positional
/// distance plus half the degree difference (each missing/extra incident
/// edge will be charged once from either endpoint). Deleting or inserting
/// a node costs 1 plus half its degree.
pub fn graph_edit_distance(a: &SkPs, b: &SkPs) -> f64 {
    let (n, m) = (a.len(), b.len());
    if n == 0 && m == 0 {
        return 0.0;
    }
    if n == 0 || m == 0 {
        return 1.0;
    }
    let deg = |s: &SkPs| {
        let mut d = vec![0.0f64; s.len()];
        for (x, y) in &s.edges {
            d[*x as usize] += 1.0;
            d[*y as usize] += 1.0;
        }
        d
    };
    let da = deg(a);
    let db = deg(b);

    // Positional scale: the larger MBR diagonal of the two node sets, so
    // substitution costs are scale-free.
    let scale = {
        let spread = |s: &SkPs| -> f64 {
            let dim = s.points[0].len();
            let mut lo = vec![f64::INFINITY; dim];
            let mut hi = vec![f64::NEG_INFINITY; dim];
            for p in &s.points {
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
        };
        spread(a).max(spread(b)).max(1e-9)
    };

    let size = n + m;
    const FORBIDDEN: f64 = 1e12;
    let mut cost = vec![FORBIDDEN; size * size];
    // Substitutions in the top-left block.
    for i in 0..n {
        for j in 0..m {
            let pos = (sgs_core::dist(&a.points[i], &b.points[j]) / scale).min(1.0);
            cost[i * size + j] = pos + (da[i] - db[j]).abs() / 2.0;
        }
    }
    // Deletions (node i of a → ε) on the diagonal of the top-right block.
    for i in 0..n {
        cost[i * size + (m + i)] = 1.0 + da[i] / 2.0;
    }
    // Insertions (ε → node j of b) on the diagonal of the bottom-left block.
    for j in 0..m {
        cost[(n + j) * size + j] = 1.0 + db[j] / 2.0;
    }
    // ε → ε completions cost nothing.
    for i in 0..m {
        for j in 0..n {
            cost[(n + i) * size + (m + j)] = 0.0;
        }
    }

    let (_, total) = hungarian(&cost, size);
    // Normalize by the worst case: delete all of a, insert all of b.
    let worst: f64 = da.iter().map(|d| 1.0 + d / 2.0).sum::<f64>()
        + db.iter().map(|d| 1.0 + d / 2.0).sum::<f64>();
    (total / worst.max(1e-9)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skps(points: &[(f64, f64)], edges: &[(u32, u32)]) -> SkPs {
        SkPs {
            points: points.iter().map(|(x, y)| vec![*x, *y].into()).collect(),
            edges: edges.to_vec(),
            population: points.len() as u32,
        }
    }

    #[test]
    fn identical_graphs_have_zero_distance() {
        let g = skps(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], &[(0, 1), (1, 2)]);
        assert!(graph_edit_distance(&g, &g) < 1e-9);
    }

    #[test]
    fn empty_graph_cases() {
        let g = skps(&[(0.0, 0.0)], &[]);
        let e = skps(&[], &[]);
        assert_eq!(graph_edit_distance(&e, &e), 0.0);
        assert_eq!(graph_edit_distance(&g, &e), 1.0);
        assert_eq!(graph_edit_distance(&e, &g), 1.0);
    }

    #[test]
    fn distance_grows_with_structural_difference() {
        let path = skps(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], &[(0, 1), (1, 2)]);
        let path_shift = skps(&[(0.1, 0.0), (1.1, 0.0), (2.1, 0.0)], &[(0, 1), (1, 2)]);
        let star = skps(
            &[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)],
            &[(0, 1), (0, 2), (0, 3), (0, 4)],
        );
        let near = graph_edit_distance(&path, &path_shift);
        let far = graph_edit_distance(&path, &star);
        assert!(near < far, "near {near} vs far {far}");
    }

    #[test]
    fn symmetric_enough() {
        let a = skps(&[(0.0, 0.0), (1.0, 0.0)], &[(0, 1)]);
        let b = skps(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], &[(0, 1), (1, 2)]);
        let d1 = graph_edit_distance(&a, &b);
        let d2 = graph_edit_distance(&b, &a);
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn bounded_by_one() {
        let a = skps(&[(0.0, 0.0)], &[]);
        let b = skps(
            &[(100.0, 100.0), (101.0, 100.0), (102.0, 100.0)],
            &[(0, 1), (1, 2)],
        );
        let d = graph_edit_distance(&a, &b);
        assert!((0.0..=1.0).contains(&d));
    }
}
