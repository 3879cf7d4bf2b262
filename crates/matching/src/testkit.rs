//! Generated summaries and shift boxes shared by the proptests of
//! [`bound`](crate::bound), [`grid_match`](crate::grid_match) and
//! [`alignment`](crate::alignment).

use sgs_summarize::{CellStatus, CellsBuilder, Sgs};

/// One generated cell: coordinates (the first `dim` are used),
/// population, and a kind — 0 or 1 is an edge cell, `k ≥ 2` a core
/// cell linked to the next `k − 2` cells in canonical order.
pub type CellScript = (i32, i32, i32, i32, u32, u8);

pub fn cell_script() -> impl proptest::strategy::Strategy<Value = CellScript> {
    (0i32..5, 0i32..5, 0i32..3, 0i32..3, 1u32..6, 0u8..6)
}

/// The summary a script describes, translated by `at`; cells on one
/// coordinate collapse to the first.
pub fn summary(dim: usize, script: &[CellScript], at: [i32; 4]) -> Sgs {
    summary_of(
        dim,
        script.iter().map(|&(x, y, z, w, population, kind)| {
            let coord = [x, y, z, w].into_iter().zip(at).map(|(c, s)| c + s);
            (coord.collect(), population, kind)
        }),
    )
}

/// The summary of `(coordinates, population, kind)` cells, kinds as in
/// [`CellScript`]; each coordinate list is cut to its first `dim`, and
/// cells on one coordinate collapse to the first.
pub fn summary_of(dim: usize, script: impl IntoIterator<Item = (Vec<i32>, u32, u8)>) -> Sgs {
    let mut cells: Vec<(Vec<i32>, u32, u8)> = script
        .into_iter()
        .map(|(mut coord, population, kind)| {
            coord.truncate(dim);
            (coord, population, kind)
        })
        .collect();
    cells.sort_by(|x, y| x.0.cmp(&y.0));
    cells.dedup_by(|x, y| x.0 == y.0);
    let n = cells.len();
    let mut list = CellsBuilder::default();
    for (i, (coord, population, kind)) in cells.into_iter().enumerate() {
        if kind < 2 {
            list.push(&coord, population, CellStatus::Edge, []);
        } else {
            let links = usize::from(kind - 2).min(n - 1);
            let connections = (1..=links).map(|k| ((i + k) % n) as u32);
            list.push(&coord, population, CellStatus::Core, connections);
        }
    }
    let sgs = Sgs {
        dim,
        side: 1.0,
        level: 0,
        cells: list.build(),
    };
    sgs.validate().unwrap();
    sgs
}

/// Coordinates at or next to the ends of `i32` and the origin: each
/// `pick` (below 7) chooses one.
pub fn edge_coords(pick: &[usize]) -> Vec<i32> {
    const EDGES: [i32; 7] = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
    pick.iter().map(|&p| EDGES[p]).collect()
}

/// A summary of one status-`Core`, population-1 cell at each of
/// `coords`, which must be sorted and distinct.
pub fn cells_at(coords: &[[i32; 2]]) -> Sgs {
    let mut list = CellsBuilder::default();
    for c in coords {
        list.push(c, 1, CellStatus::Core, []);
    }
    let sgs = Sgs {
        dim: 2,
        side: 1.0,
        level: 0,
        cells: list.build(),
    };
    sgs.validate().unwrap();
    sgs
}

/// Every shift under which a cell of `a` can land on or next to `b`,
/// plus one ring of shifts with no overlap at all.
pub fn shift_box(a: &Sgs, b: &Sgs) -> Vec<Vec<i32>> {
    let span = |s: &Sgs, d: usize| {
        let v = s.cells.iter().map(|c| c.coord[d]);
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
