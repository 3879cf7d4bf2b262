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
//! which costs a product of the two summaries' spans rather than of their
//! cell counts. The counts are not taken per candidate: each summary's
//! [`Entry`] holds them, written once when the pattern is archived (and
//! once per MATCH for the query) as one flat run of words — the
//! summary's cell-space box, then the cells of each column. A dimension
//! whose span is over a cap fixed by the summary's own cell count,
//! `4·|B| + 16`, is not counted, and the bound leaves out every dimension
//! either side did not count: the bound is a minimum, so dropping a
//! dimension keeps it sound, and a summary with cells at both ends of
//! `i32` costs no counter per column. [`AlignmentFilter::may_match_stored`]
//! decides by the counts, then the projection bound, then the histogram,
//! and only then does the search run.
//!
//! [`grid_level_distance`]: crate::grid_level_distance

use sgs_index::{FxHashMap, Rect};
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

/// The most columns a dimension of a summary of `cells` cells may span
/// and still be counted in its [`Entry`].
fn span_cap(cells: usize) -> u64 {
    4 * cells as u64 + 16
}

/// A summary's MATCH entry: what the filter scan and the alignment bound
/// read of a candidate without touching its cells. The words are, for
/// each dimension, the least and the greatest cell coordinate (an `i32`'s
/// bits), then, for each dimension that spans at most `4·cells + 16`
/// columns, how many cells lie in each column, lowest coordinate first. The dimension count, the cell count and the
/// cell side are the summary's own fields, so reading an entry reads no
/// cell.
#[derive(Clone, Copy, Debug)]
pub struct Entry<'e> {
    words: &'e [u32],
    dim: usize,
    cells: usize,
    side: f64,
}

impl<'e> Entry<'e> {
    /// Append `s`'s entry to `out`: one pass over the cells for the box,
    /// then one per counted dimension.
    pub fn write(s: &Sgs, out: &mut Vec<u32>) {
        let start = out.len();
        for _ in 0..s.dim {
            out.extend([i32::MAX as u32, i32::MIN as u32]);
        }
        for coord in s.cells.coords() {
            for (d, &x) in coord.iter().take(s.dim).enumerate() {
                let (lo, hi) = (start + 2 * d, start + 2 * d + 1);
                out[lo] = (out[lo] as i32).min(x) as u32;
                out[hi] = (out[hi] as i32).max(x) as u32;
            }
        }
        for d in 0..s.dim {
            let entry = Entry::new(s, &out[start..]);
            let (Some(span), (lo, _)) = (entry.span(d), entry.bounds(d)) else {
                continue;
            };
            let at = out.len();
            out.resize(at + span, 0);
            for coord in s.cells.coords() {
                if let Some(&x) = coord.get(d) {
                    out[at + (i64::from(x) - i64::from(lo)) as usize] += 1;
                }
            }
        }
    }

    /// The entry `words` of `s`, as [`write`](Self::write) wrote them.
    pub fn new(s: &Sgs, words: &'e [u32]) -> Self {
        Entry {
            words,
            dim: s.dim,
            cells: s.cells.len(),
            side: s.side,
        }
    }

    /// Whether the data-space MBR of a summary with cells — its cell box
    /// scaled by the side, with [`Sgs::mbr`]'s formula and so its bits —
    /// meets `rect`, closed as [`Rect::intersects`] is.
    pub fn overlaps(&self, rect: &Rect) -> bool {
        (0..self.dim)
            .zip(rect.min.iter().zip(&*rect.max))
            .all(|(d, (&min, &max))| {
                let (lo, hi) = self.bounds(d);
                f64::from(lo) * self.side <= max && min <= (f64::from(hi) + 1.0) * self.side
            })
    }

    /// Dimension `d`'s least and greatest cell coordinate.
    fn bounds(&self, d: usize) -> (i32, i32) {
        (self.words[2 * d] as i32, self.words[2 * d + 1] as i32)
    }

    /// Columns from dimension `d`'s least coordinate to its greatest, if
    /// the summary has cells and they are at most [`span_cap`]; coordinates
    /// are widened to `i64`, so no span overflows.
    fn span(&self, d: usize) -> Option<usize> {
        let (lo, hi) = self.bounds(d);
        let span = i64::from(hi) - i64::from(lo) + 1;
        (1..=span_cap(self.cells) as i64)
            .contains(&span)
            .then_some(span as usize)
    }

    /// Each dimension's column counts, lowest coordinate first; empty for
    /// a dimension not counted.
    fn columns(self) -> impl Iterator<Item = &'e [u32]> {
        let mut at = 2 * self.dim;
        (0..self.dim).map(move |d| match self.span(d) {
            Some(span) => {
                at += span;
                &self.words[at - span..at]
            }
            None => &[],
        })
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

/// The bound for one query against many candidates. The query's entry is
/// written once, and the offset histogram is rebuilt in a map kept for
/// reuse, so one query allocates each once.
#[derive(Debug)]
pub struct AlignmentFilter<'q> {
    query: &'q Sgs,
    /// The query's cell and core-cell counts.
    query_counts: (usize, usize),
    /// The query's [`Entry`].
    query_entry: Vec<u32>,
    offsets: FxHashMap<u64, u32>,
}

impl<'q> AlignmentFilter<'q> {
    /// The filter for candidates of `query`.
    pub fn new(query: &'q Sgs) -> Self {
        let mut query_entry = Vec::new();
        Entry::write(query, &mut query_entry);
        AlignmentFilter {
            query,
            query_counts: (query.volume(), query.core_count()),
            query_entry,
            offsets: FxHashMap::default(),
        }
    }

    /// Whether the cell and core-cell counts alone rule out a match:
    /// `g(min(|A|, |B|))` exceeds the threshold. Sound at every shift, the
    /// zero shift of a position-sensitive MATCH included, since no shift
    /// pairs more than `min(|A|, |B|)` cells. `b_features` is `b`'s
    /// [`Sgs::features`].
    pub fn counts_exclude(&self, b_features: &[f64; 4], config: &MatchConfig) -> bool {
        let floor = Floor::new(self.query_counts, counts(b_features));
        floor.at(floor.max_pairs) > config.threshold + SLACK
    }

    /// Whether some alignment may bring the query within
    /// `config.threshold` of `b`. `false` only when the bound proves none
    /// can, so [`best_alignment`](crate::best_alignment) would find no
    /// match. `b_entry` is `b`'s [`Entry`] and `b_features` its
    /// [`Sgs::features`].
    ///
    /// The counts alone decide first. The offset histogram is built only
    /// when its `|A|·|B|` steps cost less than the search they can save,
    /// which touches both summaries once per evaluated alignment, and
    /// only when the projection bound leaves room for a match. The
    /// projection bound is at least `M*`, so it prunes only candidates
    /// the histogram would prune.
    pub fn may_match_stored(
        &mut self,
        b: &Sgs,
        b_entry: &[u32],
        b_features: &[f64; 4],
        config: &MatchConfig,
    ) -> bool {
        if self.counts_exclude(b_features, config) {
            return false;
        }
        let floor = Floor::new(self.query_counts, counts(b_features));
        let limit = config.threshold + SLACK;
        // Counts from the features, not the cell list, so nothing reads
        // a candidate's cells before the offset histogram.
        let (na, nb) = (self.query_counts.0, counts(b_features).0);
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
        let b_entry = Entry {
            words: b_entry,
            dim: b.dim,
            cells: nb,
            side: b.side,
        };
        self.projection(b_entry, need) >= need && self.max_offset_count(b, need) >= need
    }

    /// The projection bound on `M*` (module docs) against the candidate
    /// entry `b`, or a count of at least `enough` as soon as every
    /// dimension's reaches it. It stops at the first dimension that
    /// brings it below `enough`: that count is still at least `M*`.
    fn projection(&self, b: Entry<'_>, enough: usize) -> usize {
        let a = Entry::new(self.query, &self.query_entry);
        let mut bound = a.cells.min(b.cells);
        for (a, b) in a.columns().zip(b.columns()) {
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
        for ca in self.query.cells.coords() {
            for cb in b.cells.coords() {
                let count = self.offsets.entry(offset_key(ca, cb)).or_insert(0);
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
    use std::collections::BTreeMap;

    use crate::testkit::{cell_script, cells_at, edge_coords, shift_box, summary, summary_of};
    use crate::{best_alignment, grid_level_distance};
    use proptest::prop::collection::vec;

    /// `s`'s entry, written as `PatternBase::insert` writes it.
    fn entry_of(s: &Sgs) -> Vec<u32> {
        let mut words = Vec::new();
        Entry::write(s, &mut words);
        words
    }

    /// The filter driven by summary: each candidate's entry is written by
    /// [`Entry::write`], as the pattern base writes it on insert.
    impl AlignmentFilter<'_> {
        fn may_match(&mut self, b: &Sgs, b_features: &[f64; 4], config: &MatchConfig) -> bool {
            self.may_match_stored(b, &entry_of(b), b_features, config)
        }

        fn projection_bound(&self, b: &Sgs, enough: usize) -> usize {
            self.projection(Entry::new(b, &entry_of(b)), enough)
        }
    }

    /// The projection bound read from the query's entry and `b`'s, over
    /// every dimension both count (`projection` stops at the first below
    /// what it needs).
    fn stored_bound(filter: &AlignmentFilter<'_>, b: &Sgs) -> usize {
        let words = entry_of(b);
        let (a, b) = (
            Entry::new(filter.query, &filter.query_entry),
            Entry::new(b, &words),
        );
        a.columns()
            .zip(b.columns())
            .filter(|(x, y)| !x.is_empty() && !y.is_empty())
            .map(|(x, y)| best_overlap(x, y, usize::MAX))
            .fold(a.cells.min(b.cells), usize::min)
    }

    /// Each dimension's least and greatest cell coordinate, from the cells.
    fn spans(s: &Sgs) -> Vec<(i64, i64)> {
        (0..s.dim)
            .map(|d| {
                let v = s.cells.iter().map(|c| i64::from(c.coord[d]));
                (v.clone().min().unwrap_or(0), v.max().unwrap_or(-1))
            })
            .collect()
    }

    /// The projection bound counted from the cells, with no dimension
    /// left out: `min_d max_t Σ_v min(cA_d[v], cB_d[v + t])`, capped at
    /// `min(|A|, |B|)`.
    fn counted_bound(a: &Sgs, b: &Sgs) -> usize {
        let column = |s: &Sgs, d: usize| {
            let mut counts = BTreeMap::<i64, usize>::new();
            for c in &s.cells {
                *counts.entry(i64::from(c.coord[d])).or_default() += 1;
            }
            counts
        };
        let mut bound = a.volume().min(b.volume());
        for d in 0..a.dim.min(b.dim) {
            let (ca, cb) = (column(a, d), column(b, d));
            let (Some((&lo_a, _)), Some((&hi_a, _))) = (ca.first_key_value(), ca.last_key_value())
            else {
                continue;
            };
            let (Some((&lo_b, _)), Some((&hi_b, _))) = (cb.first_key_value(), cb.last_key_value())
            else {
                continue;
            };
            let best = (lo_b - hi_a..=hi_b - lo_a)
                .map(|t| {
                    ca.iter()
                        .map(|(v, &n)| n.min(cb.get(&(v + t)).copied().unwrap_or(0)))
                        .sum::<usize>()
                })
                .max()
                .unwrap_or(0);
            bound = bound.min(best);
        }
        bound
    }

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
        // counter per column. Neither entry counts it, and dimension 1
        // alone bounds the pairs at one.
        let wide = cells_at(&[[i32::MIN, 0], [i32::MAX, 0]]);
        let one = cells_at(&[[0, 0]]);
        for (a, b) in [(&wide, &one), (&one, &wide)] {
            let mut filter = AlignmentFilter::new(a);
            assert_eq!(filter.projection_bound(b, usize::MAX), 1);
            let counted = |s: &Sgs, words: &[u32]| words.len() - 2 * s.dim;
            assert!(counted(a, &filter.query_entry) + counted(b, &entry_of(b)) <= 3);
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

        /// The projection bound, the minimum over every counted
        /// dimension, is at least `M*` and at most `min(|A|, |B|)`, and
        /// reaches `min(|A|, |B|)` for translated twins; `projection`
        /// asked for that much reads it. One filter serves every
        /// candidate, as in a MATCH, so the query's columns counted for
        /// one candidate serve the next.
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
                let bound = stored_bound(&filter, &b);
                let most = a.volume().min(b.volume());
                proptest::prop_assert!(m <= bound && bound <= most, "M* {} bound {} most {}", m, bound, most);
                proptest::prop_assert_eq!(filter.projection_bound(&b, bound), bound);
                if *twin == 1 {
                    proptest::prop_assert_eq!(bound, most);
                }
            }
        }

        /// What a stored entry answers equals what the cells answer. The
        /// projection bound read from the entries equals the one counted
        /// from the cells with no dimension left out whenever every span
        /// is under its cap, and it is never below `M*` nor above
        /// `min(|A|, |B|)`. The overlap test agrees with
        /// `Rect::intersects` on `Sgs::mbr`, at any cell side. A cell at
        /// either end of `i32` makes some spans wider than any cap.
        #[test]
        fn a_stored_entry_answers_as_the_cells_do(
            four_d in 0u8..2,
            script_a in vec(cell_script(), 0..12),
            scripts_b in vec((vec(cell_script(), 0..12), 0u8..3, vec(0usize..7, 4)), 1..4),
            edge_a in (0u8..2, vec(0usize..7, 4)),
            at in (-3i32..4, -3i32..4, -2i32..3, -2i32..3),
            side in 0usize..3,
        ) {
            let dim = if four_d == 1 { 4 } else { 2 };
            let at = [at.0, at.1, at.2, at.3];
            // `s` plus an edge cell at `pick`'s coordinates, every cell an
            // edge cell (statuses play no part in what is compared here).
            let with_edge = |s: Sgs, edge: bool, pick: &[usize]| {
                if !edge {
                    return s;
                }
                let cells = s.cells.iter().map(|c| (c.coord.to_vec(), c.population, 0));
                summary_of(dim, cells.chain([(edge_coords(pick), 1, 0)]))
            };
            let a = with_edge(summary(dim, &script_a, [0; 4]), edge_a.0 == 1, &edge_a.1);
            let under_cap = |s: &Sgs| {
                let cap = 4 * s.volume() as i64 + 16;
                spans(s).iter().all(|&(lo, hi)| hi - lo < cap)
            };
            let mut filter = AlignmentFilter::new(&a);
            for (script_b, kind, pick) in &scripts_b {
                let mut b = match kind {
                    0 => summary(dim, script_b, at),
                    1 => summary(dim, &script_a, at),
                    _ => with_edge(summary(dim, script_b, at), true, pick),
                };
                b.side = [1.0, 0.25, 2.5][side];
                let stored = stored_bound(&filter, &b);
                proptest::prop_assert_eq!(filter.projection_bound(&b, stored), stored);
                let m = filter.max_offset_count(&b, usize::MAX);
                let most = a.volume().min(b.volume());
                proptest::prop_assert!(m <= stored && stored <= most, "M* {} bound {} most {}", m, stored, most);
                if under_cap(&a) && under_cap(&b) {
                    proptest::prop_assert_eq!(stored, counted_bound(&a, &b));
                }
                let (words, Some(mbr)) = (entry_of(&b), b.mbr()) else {
                    continue; // an empty summary is never archived
                };
                for rect in [a.mbr(), Some(mbr.clone())].into_iter().flatten() {
                    let overlaps = Entry::new(&b, &words).overlaps(&rect);
                    proptest::prop_assert_eq!(overlaps, mbr.intersects(&rect));
                }
            }
        }
    }
}
