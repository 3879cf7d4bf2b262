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
//! The histogram hashes all `|A|·|B|` cell pairs. Before it, the
//! *projection bound* caps `M*` from per-column cell counts. Under a
//! shift `t` in dimension `d`, the cells of `A` in column `v` can pair
//! only with cells of `B` in column `v + t`, and with at most as many as
//! that column holds. So, with `cA_d[v]` the number of cells of `A` whose
//! `d`-th coordinate is `v`,
//!
//! ```text
//! M* ≤ min_d max_t Σ_v min(cA_d[v], cB_d[v + t]),
//! ```
//!
//! which costs a pass over each summary's cells and a product of the two
//! summaries' spans rather than of their cell counts. A dimension in
//! which either summary spans more than `|A| + |B|` columns is left out
//! (the bound is a minimum, so dropping a dimension keeps it sound), which
//! keeps a summary with cells at both ends of `i32` from costing a counter
//! per column. [`AlignmentFilter::may_match`] decides by the counts, then
//! the projection bound, then the histogram, and only then does the
//! search run.
//!
//! [`grid_level_distance`]: crate::grid_level_distance

use std::ops::Range;

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

/// A summary's cells counted per column: in dimension `d`, how many
/// cells have each coordinate from `lo[d]` to `hi[d]`. Coordinates are
/// widened to `i64`, so no span overflows.
#[derive(Debug, Default)]
struct Columns {
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// Where each dimension's counts lie in `counts`; empty until counted.
    at: Vec<Range<usize>>,
    counts: Vec<u32>,
}

impl Columns {
    /// The first pass over `s`: each dimension's least and greatest
    /// coordinate. Forgets every count.
    fn measure(&mut self, s: &Sgs) {
        self.lo.clear();
        self.lo.resize(s.dim, i64::MAX);
        self.hi.clear();
        self.hi.resize(s.dim, i64::MIN);
        for cell in &s.cells {
            for ((lo, hi), &x) in self.lo.iter_mut().zip(&mut self.hi).zip(&*cell.coord.0) {
                *lo = (*lo).min(x.into());
                *hi = (*hi).max(x.into());
            }
        }
        self.at.clear();
        self.at.resize(s.dim, 0..0);
        self.counts.clear();
    }

    /// Columns from the least coordinate of dimension `d` to the greatest;
    /// `u64::MAX` past the summary's dimensions, or if it has no cells.
    fn span(&self, d: usize) -> u64 {
        match (self.lo.get(d), self.hi.get(d)) {
            (Some(&lo), Some(&hi)) if lo <= hi => (hi - lo + 1) as u64,
            _ => u64::MAX,
        }
    }

    /// The second pass over `s`, the summary last measured: counts the
    /// cells of each column in every dimension not yet counted whose span
    /// is at most `limit` and for which `wanted` holds. No pass runs if
    /// there is no such dimension.
    fn count(&mut self, s: &Sgs, limit: u64, wanted: impl Fn(usize) -> bool) {
        let fresh = self.counts.len();
        for d in 0..self.at.len() {
            let span = self.span(d);
            if self.at[d].is_empty() && span <= limit && wanted(d) {
                self.at[d] = self.counts.len()..self.counts.len() + span as usize;
                self.counts.resize(self.at[d].end, 0);
            }
        }
        if self.counts.len() == fresh {
            return;
        }
        for cell in &s.cells {
            for ((at, &lo), &x) in self.at.iter().zip(&self.lo).zip(&*cell.coord.0) {
                if at.start >= fresh && !at.is_empty() {
                    self.counts[at.start + (i64::from(x) - lo) as usize] += 1;
                }
            }
        }
    }

    /// Dimension `d`'s counts, lowest coordinate first; empty if not
    /// counted.
    fn of(&self, d: usize) -> &[u32] {
        self.at.get(d).map_or(&[], |at| &self.counts[at.clone()])
    }
}

/// The most cells one shift can pair in a single dimension: the largest
/// `Σ_v min(a[v], b[v + t])` over every shift `t` under which the column
/// ranges overlap, or a sum of at least `enough` as soon as one reaches it.
fn best_overlap(a: &[u32], b: &[u32], enough: usize) -> usize {
    let mut best = 0;
    for t in 1 - a.len() as isize..b.len() as isize {
        let (a, b) = if t < 0 {
            (&a[t.unsigned_abs()..], b)
        } else {
            (a, &b[t.unsigned_abs()..])
        };
        let pairs: usize = a.iter().zip(b).map(|(&x, &y)| x.min(y) as usize).sum();
        best = best.max(pairs);
        if best >= enough {
            break;
        }
    }
    best
}

/// The bound for one query against many candidates. The query's column
/// counts are kept across candidates, and the candidate's counts and the
/// offset histogram are rebuilt in buffers kept for reuse, so one query
/// allocates each once.
#[derive(Debug)]
pub struct AlignmentFilter<'q> {
    query: &'q Sgs,
    /// The query's cell and core-cell counts.
    query_counts: (usize, usize),
    /// The query's column counts, each dimension counted on first use.
    query_columns: Columns,
    candidate: Columns,
    offsets: FxHashMap<u64, u32>,
}

impl<'q> AlignmentFilter<'q> {
    /// The filter for candidates of `query`.
    pub fn new(query: &'q Sgs) -> Self {
        let mut query_columns = Columns::default();
        query_columns.measure(query);
        AlignmentFilter {
            query,
            query_counts: (query.volume(), query.core_count()),
            query_columns,
            candidate: Columns::default(),
            offsets: FxHashMap::default(),
        }
    }

    /// Whether some alignment may bring the query within
    /// `config.threshold` of `b`. `false` only when the bound proves none
    /// can, so [`best_alignment`](crate::best_alignment) would find no
    /// match. `b_features` is `b`'s [`Sgs::features`].
    ///
    /// The counts alone decide first. The offset histogram is built only
    /// when its `|A|·|B|` steps cost less than the search they can save,
    /// which touches both summaries once per evaluated alignment, and
    /// only when the projection bound leaves room for a match. The
    /// projection bound is at least `M*`, so it prunes only candidates
    /// the histogram would prune.
    pub fn may_match(&mut self, b: &Sgs, b_features: &[f64; 4], config: &MatchConfig) -> bool {
        let floor = Floor::new(self.query_counts, counts(b_features));
        let limit = config.threshold + SLACK;
        if floor.at(floor.max_pairs) > limit {
            return false;
        }
        let (na, nb) = (self.query.cells.len(), b.cells.len());
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
        self.projection_bound(b, need) >= need && self.max_offset_count(b, need) >= need
    }

    /// The projection bound on `M*` (module docs), or a count of at least
    /// `enough` as soon as every dimension's reaches it.
    fn projection_bound(&mut self, b: &Sgs, enough: usize) -> usize {
        let Self {
            query,
            query_columns,
            candidate,
            ..
        } = self;
        let mut bound = query.cells.len().min(b.cells.len());
        let limit = (query.cells.len() + b.cells.len()) as u64;
        candidate.measure(b);
        candidate.count(b, limit, |d| query_columns.span(d) <= limit);
        query_columns.count(query, limit, |d| !candidate.of(d).is_empty());
        for d in 0..query.dim.min(b.dim) {
            let (a, b) = (query_columns.of(d), candidate.of(d));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            bound = bound.min(best_overlap(a, b, enough));
            if bound < enough {
                break;
            }
        }
        bound
    }

    /// `M*`, or a count of at least `enough` as soon as one reaches it.
    fn max_offset_count(&mut self, b: &Sgs, enough: usize) -> usize {
        self.offsets.clear();
        let mut best = 0;
        for ca in &self.query.cells {
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
    use crate::testkit::{cell_script, cells_at, shift_box, summary};
    use crate::{best_alignment, grid_level_distance};
    use proptest::prop::collection::vec;

    /// `g(M*)` itself, with no threshold to stop the histogram early.
    fn lower_bound(a: &Sgs, b: &Sgs) -> f64 {
        let floor = Floor::new((a.volume(), a.core_count()), (b.volume(), b.core_count()));
        floor.at(AlignmentFilter::new(a).max_offset_count(b, floor.max_pairs))
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

    #[test]
    fn projection_sees_what_the_histogram_sees_in_one_dimension() {
        // An L against a strip of three: the L's row holds two cells, so
        // no shift pairs more than two, in either order.
        let l = cells_at(&[[0, 0], [0, 1], [1, 0]]);
        let strip = cells_at(&[[5, 5], [6, 5], [7, 5]]);
        for (a, b) in [(&l, &strip), (&strip, &l)] {
            let mut filter = AlignmentFilter::new(a);
            assert_eq!(filter.projection_bound(b, usize::MAX), 2);
            assert_eq!(filter.max_offset_count(b, usize::MAX), 2);
        }
    }

    #[test]
    fn a_dimension_wider_than_both_summaries_is_left_out() {
        // Dimension 0 spans 2³² columns: counting it would allocate a
        // counter per column. It is left out, and dimension 1 alone
        // bounds the pairs at one.
        let wide = cells_at(&[[i32::MIN, 0], [i32::MAX, 0]]);
        let one = cells_at(&[[0, 0]]);
        for (a, b) in [(&wide, &one), (&one, &wide)] {
            let mut filter = AlignmentFilter::new(a);
            assert_eq!(filter.projection_bound(b, usize::MAX), 1);
            assert!(filter.query_columns.counts.len() + filter.candidate.counts.len() <= 3);
            assert!(
                filter.projection_bound(b, usize::MAX) >= filter.max_offset_count(b, usize::MAX)
            );
            let config = MatchConfig::equal_weights(false, 0.5);
            assert!(filter.may_match(b, &b.features(), &config));
        }
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
            let may = AlignmentFilter::new(&a).may_match(&b, &b.features(), &config);
            proptest::prop_assert_eq!(may, bound <= threshold + SLACK);
            if !may {
                proptest::prop_assert!(best > threshold);
            }
        }

        /// The projection bound is at least `M*` and at most
        /// `min(|A|, |B|)`, and reaches `min(|A|, |B|)` for translated
        /// twins. One filter serves every candidate, as in a MATCH, so
        /// the query's columns counted for one candidate serve the next.
        #[test]
        fn projection_bound_is_at_least_the_histogram_max(
            four_d in 0u8..2,
            script_a in vec(cell_script(), 0..12),
            scripts_b in vec((vec(cell_script(), 0..12), 0u8..2), 1..4),
            at in (-3i32..4, -3i32..4, -2i32..3, -2i32..3),
        ) {
            let dim = if four_d == 1 { 4 } else { 2 };
            let at = [at.0, at.1, at.2, at.3];
            let a = summary(dim, &script_a, [0; 4]);
            let mut filter = AlignmentFilter::new(&a);
            for (script_b, twin) in &scripts_b {
                let b = summary(dim, if *twin == 1 { &script_a } else { script_b }, at);
                let m = filter.max_offset_count(&b, usize::MAX);
                let bound = filter.projection_bound(&b, usize::MAX);
                let most = a.volume().min(b.volume());
                proptest::prop_assert!(m <= bound && bound <= most, "M* {} bound {} most {}", m, bound, most);
                if *twin == 1 {
                    proptest::prop_assert_eq!(bound, most);
                }
            }
        }
    }
}
