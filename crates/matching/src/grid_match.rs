//! Grid-cell-level cluster match (§7.2, refine phase).
//!
//! Two SGSs are compared sub-region by sub-region: under a given
//! *alignment* (an integer location-shift vector; `[0,…,0]` for
//! position-sensitive queries), each skeletal cell of `Ca` is paired with
//! the cell of `Cb` covering the corresponding sub-region and their
//! status, density and connectivity are compared. A cell with no
//! counterpart is "compared against an empty grid" — maximum difference.

use sgs_core::kernel::rel_diff;
use sgs_summarize::{CellStatus, Sgs, SkeletalCell};

/// Per-cell-pair difference in `[0, 1]`: mean of status mismatch,
/// relative population difference and relative connectivity difference.
fn cell_diff(a: &SkeletalCell, b: &SkeletalCell) -> f64 {
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

/// Index of the cell of `b` at `coord + shift`, found without building the
/// shifted coordinate (`b.cells` is sorted by coordinate).
fn index_of_shifted(b: &Sgs, coord: &[i32], shift: &[i32]) -> Option<usize> {
    b.cells
        .binary_search_by(|c| {
            c.coord
                .0
                .iter()
                .copied()
                .cmp(coord.iter().zip(shift).map(|(x, s)| x + s))
        })
        .ok()
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
    let mut matched = 0usize;
    for cell in &a.cells {
        match index_of_shifted(b, &cell.coord.0, shift) {
            Some(j) => {
                matched += 1;
                total += cell_diff(cell, &b.cells[j]);
            }
            None => total += 1.0,
        }
    }
    let unmatched_b = b.cells.len() - matched;
    total += unmatched_b as f64;
    let terms = a.cells.len() + unmatched_b;
    total / terms as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::GridGeometry;
    use sgs_summarize::MemberSet;

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
            cells: vec![],
        };
        let a = strip(0.0, 0.0, 4);
        assert_eq!(grid_level_distance(&e, &e, &[0, 0]), 0.0);
        assert_eq!(grid_level_distance(&a, &e, &[0, 0]), 1.0);
        assert_eq!(grid_level_distance(&e, &a, &[0, 0]), 1.0);
    }
}
