//! Grid-cell-level cluster match (§7.2, refine phase).
//!
//! Two SGSs are compared sub-region by sub-region: under a given
//! *alignment* (an integer location-shift vector; `[0,…,0]` for
//! position-sensitive queries), each skeletal cell of `Ca` is paired with
//! the cell of `Cb` covering the corresponding sub-region and their
//! status, density and connectivity are compared. A cell with no
//! counterpart is "compared against an empty grid" — maximum difference.
//!
//! Both cell lists are sorted by coordinate, and a translation keeps that
//! order, so one distance is a single merge walk over the two lists. A
//! position-insensitive MATCH evaluates it once per alignment the search
//! visits, and only for candidates that pass the cell counts, the
//! projection bound and the offset histogram of [`bound`](crate::bound),
//! in that order.

use std::cmp::Ordering;

use sgs_core::kernel::rel_diff;
use sgs_summarize::{CellStatus, CellView, Sgs};

/// Per-cell-pair difference in `[0, 1]`: mean of status mismatch,
/// relative population difference and relative connectivity difference.
fn cell_diff(a: CellView<'_>, b: CellView<'_>) -> f64 {
    let status = if a.status == b.status { 0.0 } else { 1.0 };
    let density = rel_diff(a.population as f64, b.population as f64);
    let conn = match (a.status, b.status) {
        // Edge cells carry no indicators (Def. 4.4) — compare only when
        // both sides can have them.
        (CellStatus::Core, CellStatus::Core) => {
            rel_diff(a.connectivity() as f64, b.connectivity() as f64)
        }
        _ => status,
    };
    (status + density + conn) / 3.0
}

/// How `b`'s coordinate orders against `a`'s translated by `shift`. The
/// sum is taken in `i64`: a shifted coordinate may leave `i32`, and then
/// it matches no cell, where a wrapped sum could match one and would break
/// the order the walk in [`grid_level_distance`] relies on.
fn cmp_shifted(b: &[i32], a: &[i32], shift: &[i32]) -> Ordering {
    b.iter().map(|&y| i64::from(y)).cmp(
        a.iter()
            .zip(shift)
            .map(|(&x, &s)| i64::from(x) + i64::from(s)),
    )
}

/// Grid-level distance between two summaries under alignment `shift`
/// (a cell at coordinate `x` in `a` corresponds to `x + shift` in `b`,
/// per the alignment footnote of §7.2). Symmetric: unmatched cells on
/// either side contribute the maximum difference. Result in `[0, 1]`.
pub fn grid_level_distance(a: &Sgs, b: &Sgs, shift: &[i32]) -> f64 {
    if a.cells.is_empty() && b.cells.is_empty() {
        return 0.0;
    }
    if a.cells.is_empty() || b.cells.is_empty() {
        return 1.0;
    }
    let mut total = 0.0;
    // The cells of `a` are distinct, so a translation lands on each cell
    // of `b` at most once: the cells of `b` left unmatched are the rest.
    // It also keeps `a`'s canonical order, so one forward walk over `b`
    // meets every counterpart in turn.
    let mut matched = 0usize;
    let mut rest = b.cells.iter().peekable();
    for cell in &a.cells {
        let mut diff = 1.0;
        while let Some(&other) = rest.peek() {
            match cmp_shifted(other.coord, cell.coord, shift) {
                Ordering::Less => {
                    rest.next();
                }
                Ordering::Equal => {
                    matched += 1;
                    rest.next();
                    diff = cell_diff(cell, other);
                    break;
                }
                Ordering::Greater => break,
            }
        }
        total += diff;
    }
    let unmatched_b = b.cells.len() - matched;
    total += unmatched_b as f64;
    let terms = a.cells.len() + unmatched_b;
    total / terms as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{cell_script, cells_at, shift_box, summary};
    use proptest::prop::collection::vec;
    use sgs_core::GridGeometry;
    use sgs_summarize::MemberSet;

    /// The distance as it was computed before the merge walk, with a
    /// binary search of `b` per cell of `a`: the oracle the walk must
    /// match bit for bit. Its `x + s` overflows at the ends of `i32`, so
    /// it is run only on small coordinates.
    fn binary_search_distance(a: &Sgs, b: &Sgs, shift: &[i32]) -> f64 {
        let b_cells: Vec<CellView> = b.cells.iter().collect();
        let index_of_shifted = |coord: &[i32]| {
            b_cells
                .binary_search_by(|c| {
                    c.coord
                        .iter()
                        .copied()
                        .cmp(coord.iter().zip(shift).map(|(x, s)| x + s))
                })
                .ok()
        };
        if a.cells.is_empty() && b.cells.is_empty() {
            return 0.0;
        }
        if a.cells.is_empty() || b.cells.is_empty() {
            return 1.0;
        }
        let mut total = 0.0;
        let mut matched = 0usize;
        for cell in &a.cells {
            match index_of_shifted(cell.coord) {
                Some(j) => {
                    matched += 1;
                    total += cell_diff(cell, b_cells[j]);
                }
                None => total += 1.0,
            }
        }
        let unmatched_b = b.cells.len() - matched;
        total += unmatched_b as f64;
        let terms = a.cells.len() + unmatched_b;
        total / terms as f64
    }

    fn strip(x0: f64, y0: f64, n: usize) -> Sgs {
        let cores: Vec<Box<[f64]>> = (0..n)
            .map(|i| vec![x0 + i as f64 * 0.3, y0 + 0.05].into())
            .collect();
        Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0))
    }

    #[test]
    fn identical_summaries_zero_distance() {
        let a = strip(0.0, 0.0, 12);
        assert_eq!(grid_level_distance(&a, &a, &[0, 0]), 0.0);
    }

    #[test]
    fn integer_translation_is_recovered_by_shift() {
        let side = GridGeometry::basic(2, 1.0).side();
        let a = strip(0.0, 0.0, 12);
        // Translate by exactly 3 cells in x and 2 in y.
        let b = strip(3.0 * side, 2.0 * side, 12);
        assert!(grid_level_distance(&a, &b, &[0, 0]) > 0.5);
        let d = grid_level_distance(&a, &b, &[3, 2]);
        assert!(d < 1e-9, "aligned distance {d}");
    }

    #[test]
    fn disjoint_summaries_max_distance() {
        let a = strip(0.0, 0.0, 6);
        let b = strip(100.0, 100.0, 6);
        assert_eq!(grid_level_distance(&a, &b, &[0, 0]), 1.0);
    }

    #[test]
    fn partial_overlap_in_between() {
        let a = strip(0.0, 0.0, 12);
        let b = strip(0.0, 0.0, 6); // prefix of a
        let d = grid_level_distance(&a, &b, &[0, 0]);
        assert!(d > 0.0 && d < 1.0, "got {d}");
    }

    #[test]
    fn symmetric_under_swap_and_negated_shift() {
        let a = strip(0.0, 0.0, 10);
        let b = strip(0.9, 0.0, 7);
        let d1 = grid_level_distance(&a, &b, &[1, 0]);
        let d2 = grid_level_distance(&b, &a, &[-1, 0]);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn empty_cases() {
        let e = Sgs {
            dim: 2,
            side: 1.0,
            level: 0,
            cells: Default::default(),
        };
        let a = strip(0.0, 0.0, 4);
        assert_eq!(grid_level_distance(&e, &e, &[0, 0]), 0.0);
        assert_eq!(grid_level_distance(&a, &e, &[0, 0]), 1.0);
        assert_eq!(grid_level_distance(&e, &a, &[0, 0]), 1.0);
    }

    #[test]
    fn cells_at_the_ends_of_i32_never_overflow() {
        let wide = cells_at(&[[i32::MIN, 0], [i32::MAX, 0]]);
        let one = cells_at(&[[0, 0]]);
        for shift in [
            [0, 0],
            [1, 0],
            [-1, 0],
            [i32::MAX, 0],
            [i32::MIN, 0],
            [i32::MAX, i32::MIN],
        ] {
            for (a, b) in [(&wide, &one), (&one, &wide), (&wide, &wide)] {
                let d = grid_level_distance(a, b, &shift);
                assert!((0.0..=1.0).contains(&d), "{d} at {shift:?}");
            }
        }
        // A shifted cell pairs only where the true sum lands: `MAX + 1`
        // would wrap onto the cell at `MIN`.
        assert_eq!(grid_level_distance(&wide, &wide, &[0, 0]), 0.0);
        assert_eq!(grid_level_distance(&wide, &wide, &[1, 0]), 1.0);
        assert_eq!(grid_level_distance(&wide, &one, &[-i32::MAX, 0]), 0.5);
        assert_eq!(grid_level_distance(&wide, &one, &[i32::MAX, 0]), 1.0);
        assert_eq!(grid_level_distance(&one, &wide, &[i32::MAX, 0]), 0.5);
    }

    proptest::proptest! {
        /// The merge walk returns the binary-search distance bit for bit,
        /// over 2-d and 4-d summaries and every shift in a box around
        /// them, shifts with no overlap included.
        #[test]
        fn merge_walk_keeps_every_distance_bit(
            four_d in 0u8..2,
            script_a in vec(cell_script(), 0..12),
            script_b in vec(cell_script(), 0..12),
            at in (-3i32..4, -3i32..4, -2i32..3, -2i32..3),
        ) {
            let dim = if four_d == 1 { 4 } else { 2 };
            let a = summary(dim, &script_a, [0; 4]);
            let b = summary(dim, &script_b, [at.0, at.1, at.2, at.3]);
            for shift in shift_box(&a, &b) {
                proptest::prop_assert_eq!(
                    grid_level_distance(&a, &b, &shift).to_bits(),
                    binary_search_distance(&a, &b, &shift).to_bits(),
                    "at {:?}", shift
                );
            }
        }
    }
}
