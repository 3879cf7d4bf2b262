//! A*-style anytime alignment search (§7.2, non-position-sensitive refine).
//!
//! One or more alignments may minimize the grid-level distance between two
//! clusters; exhaustive search is affordable offline but not online. The
//! paper's strategy, reproduced here: **seed** with an alignment that
//! overlaps the two clusters well (their cell-centroid offset), then
//! repeatedly expand the most promising alignment found so far (best-first
//! over the ±1-per-dimension neighborhood) until a fixed evaluation budget
//! is exhausted, returning the best distance seen — an *anytime* answer.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sgs_core::Coords;
use sgs_index::FxHashSet;
use sgs_summarize::Sgs;

use crate::grid_match::grid_level_distance;

/// Outcome of the anytime alignment search.
#[derive(Clone, Debug, PartialEq)]
pub struct AlignmentResult {
    /// Best alignment found (shift applied to `a`'s coordinates to land in
    /// `b`'s frame).
    pub shift: Vec<i32>,
    /// Grid-level distance under that alignment.
    pub distance: f64,
    /// Number of alignments evaluated.
    pub evaluated: usize,
}

/// Mean cell coordinate of a summary (the "center of mass" in cell space).
fn cell_centroid(sgs: &Sgs) -> Vec<f64> {
    let dim = sgs.dim;
    let mut acc = vec![0.0; dim];
    if sgs.cells.is_empty() {
        return acc;
    }
    for c in sgs.cells.coords() {
        for (a, coord) in acc.iter_mut().zip(c) {
            *a += *coord as f64;
        }
    }
    for a in &mut acc {
        *a /= sgs.cells.len() as f64;
    }
    acc
}

#[derive(PartialEq)]
struct Candidate {
    distance: f64,
    shift: Coords,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance: reverse the comparison.
        other
            .distance
            .partial_cmp(&self.distance)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.shift.cmp(&self.shift))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Search for the alignment minimizing the grid-level distance, evaluating
/// at most `budget` alignments. The seed alignment is the rounded
/// cell-centroid offset, which overlaps the clusters' mass centers.
///
/// A shift is a [`Coords`], held in place up to four dimensions, so an
/// evaluated shift allocates nothing there: only the heap and the seen
/// set grow. `Coords` orders and hashes as its slice does, so the shifts
/// visited, and their order, depend on their values alone.
///
/// Summaries of different dimensionality share no grid: no shift is
/// evaluated, and the distance is infinite, so no threshold admits it.
pub fn best_alignment(a: &Sgs, b: &Sgs, budget: usize) -> AlignmentResult {
    let dim = a.dim.max(b.dim).max(1);
    if a.dim != b.dim {
        return AlignmentResult {
            shift: vec![0; dim],
            distance: f64::INFINITY,
            evaluated: 0,
        };
    }
    if a.cells.is_empty() || b.cells.is_empty() {
        return AlignmentResult {
            shift: vec![0; dim],
            distance: grid_level_distance(a, b, &vec![0; dim]),
            evaluated: 1,
        };
    }
    let ca = cell_centroid(a);
    let cb = cell_centroid(b);
    let seed: Coords = ca
        .iter()
        .zip(cb.iter())
        .map(|(x, y)| (y - x).round() as i32)
        .collect();

    let mut seen: FxHashSet<Coords> = FxHashSet::default();
    let mut heap = BinaryHeap::new();
    let mut evaluated = 0usize;
    let mut best = Candidate {
        distance: f64::INFINITY,
        shift: seed.clone(),
    };

    let evaluate = |shift: Coords,
                    seen: &mut FxHashSet<Coords>,
                    heap: &mut BinaryHeap<Candidate>,
                    best: &mut Candidate,
                    evaluated: &mut usize| {
        if !seen.insert(shift.clone()) {
            return;
        }
        let d = grid_level_distance(a, b, &shift);
        *evaluated += 1;
        if d < best.distance {
            best.distance = d;
            best.shift = shift.clone();
        }
        heap.push(Candidate { distance: d, shift });
    };

    evaluate(seed, &mut seen, &mut heap, &mut best, &mut evaluated);
    while evaluated < budget {
        let Some(cur) = heap.pop() else {
            break;
        };
        // Expand ±1 on each dimension from the most promising alignment.
        for d in 0..dim {
            for delta in [-1, 1] {
                if evaluated >= budget {
                    break;
                }
                let mut next = cur.shift.clone();
                next[d] = next[d].saturating_add(delta);
                evaluate(next, &mut seen, &mut heap, &mut best, &mut evaluated);
            }
        }
        if best.distance == 0.0 {
            break; // perfect alignment; nothing can improve
        }
    }
    AlignmentResult {
        shift: best.shift.to_vec(),
        distance: best.distance,
        evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{edge_coords, summary_of};
    use proptest::prop::collection::vec;
    use sgs_core::GridGeometry;
    use sgs_summarize::{CellsBuilder, MemberSet};

    /// A heap entry of [`vec_search`].
    #[derive(PartialEq)]
    struct VecCandidate {
        distance: f64,
        shift: Vec<i32>,
    }

    impl Eq for VecCandidate {}

    impl Ord for VecCandidate {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .distance
                .partial_cmp(&self.distance)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.shift.cmp(&self.shift))
        }
    }

    impl PartialOrd for VecCandidate {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The search with a `Vec<i32>` per shift, as it was before shifts
    /// became [`Coords`]: the oracle [`best_alignment`] must equal.
    fn vec_search(a: &Sgs, b: &Sgs, budget: usize) -> AlignmentResult {
        let dim = a.dim.max(b.dim).max(1);
        if a.cells.is_empty() || b.cells.is_empty() {
            return AlignmentResult {
                shift: vec![0; dim],
                distance: grid_level_distance(a, b, &vec![0; dim]),
                evaluated: 1,
            };
        }
        let (ca, cb) = (cell_centroid(a), cell_centroid(b));
        let seed: Vec<i32> = ca
            .iter()
            .zip(cb.iter())
            .map(|(x, y)| (y - x).round() as i32)
            .collect();
        let mut seen: FxHashSet<Vec<i32>> = FxHashSet::default();
        let mut heap = BinaryHeap::new();
        let mut evaluated = 0usize;
        let mut best = AlignmentResult {
            shift: seed.clone(),
            distance: f64::INFINITY,
            evaluated: 0,
        };
        let evaluate = |shift: Vec<i32>,
                        seen: &mut FxHashSet<Vec<i32>>,
                        heap: &mut BinaryHeap<VecCandidate>,
                        best: &mut AlignmentResult,
                        evaluated: &mut usize| {
            if !seen.insert(shift.clone()) {
                return;
            }
            let d = grid_level_distance(a, b, &shift);
            *evaluated += 1;
            if d < best.distance {
                best.distance = d;
                best.shift = shift.clone();
            }
            heap.push(VecCandidate { distance: d, shift });
        };
        evaluate(seed, &mut seen, &mut heap, &mut best, &mut evaluated);
        while evaluated < budget {
            let Some(cur) = heap.pop() else {
                break;
            };
            for d in 0..dim {
                for delta in [-1, 1] {
                    if evaluated >= budget {
                        break;
                    }
                    let mut next = cur.shift.clone();
                    next[d] = next[d].saturating_add(delta);
                    evaluate(next, &mut seen, &mut heap, &mut best, &mut evaluated);
                }
            }
            if best.distance == 0.0 {
                break;
            }
        }
        best.evaluated = evaluated;
        best
    }

    fn shape(x0: f64, y0: f64) -> Sgs {
        // An L-shaped cluster (asymmetric, so alignment is unambiguous).
        // The 0.05 inset keeps every point away from cell boundaries so
        // integer-side translations reproduce the exact cell structure.
        let mut cores: Vec<Box<[f64]>> = (0..8)
            .map(|i| vec![x0 + 0.05 + i as f64 * 0.3, y0 + 0.05].into())
            .collect();
        cores.extend((1..5).map(|i| Box::from(vec![x0 + 0.05, y0 + 0.05 + i as f64 * 0.3])));
        Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0))
    }

    #[test]
    fn finds_exact_translation() {
        let side = GridGeometry::basic(2, 1.0).side();
        let a = shape(0.0, 0.0);
        let b = shape(7.0 * side, -3.0 * side);
        let result = best_alignment(&a, &b, 128);
        assert!(result.distance < 1e-9, "distance {}", result.distance);
        assert_eq!(result.shift, vec![7, -3]);
    }

    #[test]
    fn identical_clusters_align_at_zero() {
        let a = shape(0.0, 0.0);
        let result = best_alignment(&a, &a, 64);
        assert_eq!(result.shift, vec![0, 0]);
        assert_eq!(result.distance, 0.0);
    }

    #[test]
    fn budget_is_respected() {
        let a = shape(0.0, 0.0);
        let b = shape(50.0, 50.0);
        let result = best_alignment(&a, &b, 10);
        assert!(result.evaluated <= 10);
    }

    #[test]
    fn anytime_improves_with_budget() {
        let side = GridGeometry::basic(2, 1.0).side();
        let a = shape(0.0, 0.0);
        // Offset by a shift the seed misses slightly (different shape mass).
        let b = shape(4.0 * side, 2.0 * side);
        // Perturb so the seed is off: the same summary less its last two cells.
        let mut list = CellsBuilder::default();
        for c in b.cells.iter().take(b.cells.len() - 2) {
            let connections = c.connections.iter().copied();
            list.push(c.coord, c.population, c.status, connections);
        }
        let b = Sgs {
            cells: list.build(),
            ..b
        };
        let small = best_alignment(&a, &b, 4).distance;
        let large = best_alignment(&a, &b, 256).distance;
        assert!(large <= small);
    }

    #[test]
    fn empty_inputs() {
        let e = Sgs {
            dim: 2,
            side: 1.0,
            level: 0,
            cells: Default::default(),
        };
        let a = shape(0.0, 0.0);
        let r = best_alignment(&e, &a, 16);
        assert_eq!(r.distance, 1.0);
        let r = best_alignment(&e, &e, 16);
        assert_eq!(r.distance, 0.0);
    }

    #[test]
    fn summaries_of_another_dimensionality_never_align() {
        let cells = |dim| summary_of(dim, (0..6).map(|i| (vec![i % 3, i / 3, 0], 2, 3)));
        for (a, b) in [(cells(2), cells(3)), (cells(3), cells(2))] {
            let r = best_alignment(&a, &b, 64);
            assert_eq!((r.distance, r.evaluated), (f64::INFINITY, 0));
        }
    }

    #[test]
    fn cells_at_the_ends_of_i32_never_overflow() {
        use crate::testkit::cells_at;
        let wide = cells_at(&[[i32::MIN, 0], [i32::MAX, 0]]);
        let one = cells_at(&[[0, 0]]);
        let far = cells_at(&[[i32::MAX, i32::MAX]]);
        for (a, b) in [(&wide, &one), (&one, &wide), (&one, &far), (&far, &one)] {
            let r = best_alignment(a, b, 64);
            assert!((0.0..=1.0).contains(&r.distance), "{}", r.distance);
        }
        // The seed lands on the far cell at once; the steps past it
        // saturate instead of overflowing.
        assert_eq!(best_alignment(&one, &far, 64).distance, 0.0);
        assert_eq!(
            best_alignment(&one, &far, 64).shift,
            vec![i32::MAX, i32::MAX]
        );
    }

    proptest::proptest! {
        /// The search over `Coords` shifts visits what the search over
        /// `Vec<i32>` shifts visited: equal shift, distance bits and
        /// evaluation count at budgets 1, 16 and 64, in 2, 4 and 6
        /// dimensions (6 spills `Coords` to the heap), with translated
        /// twins (the search stops at distance 0) and cells at the ends
        /// of `i32` (the ±1 step saturates).
        #[test]
        fn the_search_visits_what_the_vec_search_visited(
            dims in 0usize..3,
            cells_a in vec((vec(0i32..5, 6), 1u32..6, 0u8..6), 0..10),
            cells_b in vec((vec(0i32..5, 6), 1u32..6, 0u8..6), 0..10),
            at in vec(-3i32..4, 6),
            kind in 0u8..4,
            edge in vec(0usize..7, 6),
        ) {
            let dim = [2, 4, 6][dims];
            let moved = |cells: &[(Vec<i32>, u32, u8)]| {
                cells
                    .iter()
                    .map(|(c, p, k)| (c.iter().zip(&at).map(|(x, s)| x + s).collect(), *p, *k))
                    .collect::<Vec<_>>()
            };
            let a = summary_of(dim, cells_a.clone());
            let b = match kind {
                0 => summary_of(dim, moved(&cells_b)),
                1 => summary_of(dim, moved(&cells_a)),
                2 => summary_of(dim, moved(&cells_b).into_iter().chain([(edge_coords(&edge), 1, 2)])),
                _ => summary_of(dim, [(edge_coords(&edge), 1, 2)]),
            };
            for budget in [1, 16, 64] {
                for (x, y) in [(&a, &b), (&b, &a)] {
                    let got = best_alignment(x, y, budget);
                    let expect = vec_search(x, y, budget);
                    proptest::prop_assert_eq!(&got.shift, &expect.shift);
                    proptest::prop_assert_eq!(got.distance.to_bits(), expect.distance.to_bits());
                    proptest::prop_assert_eq!(got.evaluated, expect.evaluated);
                }
            }
        }
    }
}
