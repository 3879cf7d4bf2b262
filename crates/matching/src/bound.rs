//! A sound lower bound on the grid-level distance over every alignment
//! (§7.2, position-insensitive refine).
//!
//! [`best_alignment`](crate::best_alignment) pays for up to
//! `alignment_budget` evaluations of [`grid_level_distance`]. The bound
//! here shows, before any of them runs, that no alignment at all brings
//! two summaries within the threshold, so the search can be skipped
//! without changing an answer. Under a shift `s` only
//! `m(s) = #{(i, j) : b_j − a_i = s}` cells pair up, and every term of the
//! distance has a floor:
//!
//! * an unmatched cell, on either side, costs 1;
//! * a pair whose statuses differ costs at least ⅔ (status 1,
//!   connectivity 1);
//! * at most `same = min(cores_a, cores_b) + min(edges_a, edges_b)` pairs
//!   share a status.
//!
//! With `n = |A| + |B|`, the distance under `s` is therefore at least
//!
//! ```text
//! g(m) = (n − 2m + ⅔·(m − min(m, same))) / (n − m),   m = m(s).
//! ```
//!
//! `g` falls as `m` grows, and `m(s)` never exceeds `M*`, the largest
//! count in the histogram of cell offsets `b_j − a_i` (itself at most
//! `min(|A|, |B|)`). So `g(M*)` bounds the distance at every shift,
//! whichever the search evaluates, and `g(min(|A|, |B|))` is a weaker
//! bound that needs only the cell and core-cell counts.
//!
//! [`grid_level_distance`]: crate::grid_level_distance

use sgs_index::FxHashMap;
use sgs_summarize::Sgs;

use crate::metric::MatchConfig;

/// How far a bound may exceed the threshold and still admit a candidate,
/// so float rounding in the bound or in the distance never turns a true
/// match away.
const SLACK: f64 = 1e-9;

/// `g` for one pair of summaries.
struct Floor {
    /// `|A| + |B|`.
    cells: usize,
    /// Most pairs that can share a status.
    same: usize,
    /// Most cells any alignment can pair: `min(|A|, |B|)`.
    max_pairs: usize,
}

impl Floor {
    /// From the cell and core-cell counts of both summaries.
    fn new((cells_a, cores_a): (usize, usize), (cells_b, cores_b): (usize, usize)) -> Self {
        Floor {
            cells: cells_a + cells_b,
            same: cores_a.min(cores_b) + (cells_a - cores_a).min(cells_b - cores_b),
            max_pairs: cells_a.min(cells_b),
        }
    }

    /// The least distance of an alignment that pairs `m` cells.
    fn at(&self, m: usize) -> f64 {
        if self.cells == 0 {
            return 0.0;
        }
        let differing = m.saturating_sub(self.same) as f64;
        let (n, m) = (self.cells as f64, m as f64);
        (n - 2.0 * m + differing * (2.0 / 3.0)) / (n - m)
    }
}

/// Cell and core-cell counts from a feature vector
/// (`[volume, core_count, …]`, exact integers).
fn counts(features: &[f64; 4]) -> (usize, usize) {
    (features[0] as usize, features[1] as usize)
}

/// Histogram key of the offset `b − a`. In more than two dimensions two
/// offsets can share a key; that merges their counts, which can only
/// raise `M*` and lower the bound, so the bound stays sound.
fn offset_key(a: &[i32], b: &[i32]) -> u64 {
    a.iter().zip(b).fold(0u64, |key, (x, y)| {
        (key.rotate_left(32) ^ u64::from(y.wrapping_sub(*x) as u32))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
    })
}

/// The bound with its offset histogram kept for reuse, so one query
/// allocates it once across all its candidates.
#[derive(Debug, Default)]
pub struct AlignmentFilter {
    offsets: FxHashMap<u64, u32>,
}

impl AlignmentFilter {
    /// Whether some alignment may bring `a` within `config.threshold` of
    /// `b`. `false` only when the bound proves none can, so
    /// [`best_alignment`](crate::best_alignment) would find no match.
    /// `a_features` and `b_features` are the summaries'
    /// [`Sgs::features`].
    ///
    /// The counts alone decide first. The offset histogram is built only
    /// when its `|A|·|B|` steps cost less than the search they can save,
    /// which touches both summaries once per evaluated alignment.
    pub fn may_match(
        &mut self,
        a: &Sgs,
        a_features: &[f64; 4],
        b: &Sgs,
        b_features: &[f64; 4],
        config: &MatchConfig,
    ) -> bool {
        let floor = Floor::new(counts(a_features), counts(b_features));
        let limit = config.threshold + SLACK;
        if floor.at(floor.max_pairs) > limit {
            return false;
        }
        let (na, nb) = (a.cells.len(), b.cells.len());
        if na * nb > config.alignment_budget.saturating_mul(na + nb) {
            return true;
        }
        // The fewest paired cells at which `g` admits a match.
        let (mut need, mut hi) = (0, floor.max_pairs);
        while need < hi {
            let mid = (need + hi) / 2;
            if floor.at(mid) <= limit {
                hi = mid;
            } else {
                need = mid + 1;
            }
        }
        self.max_offset_count(a, b, need) >= need
    }

    /// `M*`, or a count of at least `enough` as soon as one reaches it.
    fn max_offset_count(&mut self, a: &Sgs, b: &Sgs, enough: usize) -> usize {
        self.offsets.clear();
        let mut best = 0;
        for ca in &a.cells {
            for cb in &b.cells {
                let count = self
                    .offsets
                    .entry(offset_key(&ca.coord.0, &cb.coord.0))
                    .or_insert(0);
                *count += 1;
                best = best.max(*count as usize);
                if best >= enough {
                    return best;
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{best_alignment, grid_level_distance};
    use proptest::prop::collection::vec;
    use sgs_core::CellCoord;
    use sgs_summarize::{CellStatus, SkeletalCell};

    /// `g(M*)` itself, with no threshold to stop the histogram early.
    fn lower_bound(a: &Sgs, b: &Sgs) -> f64 {
        let floor = Floor::new((a.volume(), a.core_count()), (b.volume(), b.core_count()));
        floor.at(AlignmentFilter::default().max_offset_count(a, b, floor.max_pairs))
    }

    /// One generated cell: coordinates (the first `dim` are used),
    /// population, and a kind — 0 or 1 is an edge cell, `k ≥ 2` a core
    /// cell linked to the next `k − 2` cells in canonical order.
    type CellScript = (i32, i32, i32, i32, u32, u8);

    fn cell_script() -> impl proptest::strategy::Strategy<Value = CellScript> {
        (0i32..5, 0i32..5, 0i32..3, 0i32..3, 1u32..6, 0u8..6)
    }

    /// The summary a script describes, translated by `at`; cells on one
    /// coordinate collapse to the first.
    fn summary(dim: usize, script: &[CellScript], at: [i32; 4]) -> Sgs {
        let mut cells: Vec<(SkeletalCell, u8)> = script
            .iter()
            .map(|&(x, y, z, w, population, kind)| {
                let coord: Vec<i32> = [x, y, z, w]
                    .iter()
                    .zip(at)
                    .map(|(c, s)| c + s)
                    .take(dim)
                    .collect();
                let status = if kind < 2 {
                    CellStatus::Edge
                } else {
                    CellStatus::Core
                };
                let cell = SkeletalCell {
                    coord: CellCoord::new(coord),
                    population,
                    status,
                    connections: Vec::new(),
                };
                (cell, kind)
            })
            .collect();
        cells.sort_by(|x, y| x.0.coord.cmp(&y.0.coord));
        cells.dedup_by(|x, y| x.0.coord == y.0.coord);
        let n = cells.len();
        for (i, (cell, kind)) in cells.iter_mut().enumerate() {
            if cell.status == CellStatus::Core {
                let links = usize::from(kind.saturating_sub(2)).min(n - 1);
                cell.connections = (1..=links).map(|k| ((i + k) % n) as u32).collect();
                cell.connections.sort_unstable();
            }
        }
        let sgs = Sgs {
            dim,
            side: 1.0,
            level: 0,
            cells: cells.into_iter().map(|(cell, _)| cell).collect(),
        };
        sgs.validate().unwrap();
        sgs
    }

    /// Every shift under which a cell of `a` can land on or next to `b`,
    /// plus one ring of shifts with no overlap at all.
    fn shift_box(a: &Sgs, b: &Sgs) -> Vec<Vec<i32>> {
        let span = |s: &Sgs, d: usize| {
            let v = s.cells.iter().map(|c| c.coord.0[d]);
            (v.clone().min().unwrap_or(0), v.max().unwrap_or(0))
        };
        let mut shifts = vec![Vec::new()];
        for d in 0..a.dim {
            let ((lo_a, hi_a), (lo_b, hi_b)) = (span(a, d), span(b, d));
            shifts = shifts
                .into_iter()
                .flat_map(|s| {
                    (lo_b - hi_a - 1..=hi_b - lo_a + 1).map(move |v| {
                        let mut next = s.clone();
                        next.push(v);
                        next
                    })
                })
                .collect();
        }
        shifts
    }

    #[test]
    fn translated_twin_has_zero_bound() {
        let script = [(0, 0, 0, 0, 3, 4), (1, 0, 0, 0, 2, 0), (1, 1, 0, 0, 5, 2)];
        let a = summary(2, &script, [0; 4]);
        let b = summary(2, &script, [7, -3, 0, 0]);
        assert_eq!(lower_bound(&a, &b), 0.0);
        assert_eq!(grid_level_distance(&a, &b, &[7, -3]), 0.0);
    }

    #[test]
    fn disjoint_offsets_bound_at_one_pair() {
        // A two-cell strip against a single cell: any shift pairs at most
        // one cell, so the bound is g(1) = (3 − 2) / (3 − 1) = ½.
        let a = summary(2, &[(0, 0, 0, 0, 1, 2), (1, 0, 0, 0, 1, 2)], [0; 4]);
        let b = summary(2, &[(0, 0, 0, 0, 1, 2)], [0; 4]);
        assert_eq!(lower_bound(&a, &b), 0.5);
    }

    #[test]
    fn empty_summaries() {
        let e = summary(2, &[], [0; 4]);
        let a = summary(2, &[(0, 0, 0, 0, 1, 2)], [0; 4]);
        assert_eq!(lower_bound(&e, &e), 0.0);
        assert_eq!(lower_bound(&a, &e), 1.0);
    }

    proptest::proptest! {
        /// The bound never exceeds the grid-level distance, at any shift
        /// in a box covering both summaries (shifts with no overlap
        /// included), nor the distance the search returns; translated
        /// twins bound at exactly 0. `may_match` decides by the same
        /// bound. Up to float rounding, which `SLACK` absorbs.
        #[test]
        fn bound_is_below_every_alignment(
            four_d in 0u8..2,
            script_a in vec(cell_script(), 0..12),
            script_b in vec(cell_script(), 0..12),
            twin in 0u8..2,
            at in (-3i32..4, -3i32..4, -2i32..3, -2i32..3),
            threshold in 0.0f64..1.0,
        ) {
            let dim = if four_d == 1 { 4 } else { 2 };
            let at = [at.0, at.1, at.2, at.3];
            let a = summary(dim, &script_a, [0; 4]);
            let b = if twin == 1 {
                summary(dim, &script_a, at)
            } else {
                summary(dim, &script_b, at)
            };
            let bound = lower_bound(&a, &b);
            if twin == 1 {
                proptest::prop_assert_eq!(bound, 0.0);
            }
            for shift in shift_box(&a, &b) {
                let d = grid_level_distance(&a, &b, &shift);
                proptest::prop_assert!(bound <= d + 1e-12, "bound {} > {} at {:?}", bound, d, shift);
            }
            let config = MatchConfig::equal_weights(false, threshold);
            let best = best_alignment(&a, &b, config.alignment_budget).distance;
            proptest::prop_assert!(bound <= best + 1e-12, "bound {} > search {}", bound, best);
            let may = AlignmentFilter::default().may_match(&a, &a.features(), &b, &b.features(), &config);
            proptest::prop_assert_eq!(may, bound <= threshold + SLACK);
            if !may {
                proptest::prop_assert!(best > threshold);
            }
        }
    }
}
