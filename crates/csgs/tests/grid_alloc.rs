//! A grid cell holding one point of up to four dimensions holds it in
//! place, and a row key of up to four coordinates is held inline: once
//! the index has held as many cells and rows, a point that opens a new
//! cell allocates nothing, and one that opens a new row allocates the
//! row alone. Above that the cell's point spills into three columns, and
//! the cell coordinate `GridGeometry::cell_of` returns — and a row key of
//! more than four coordinates — is boxed. Counted per thread, so the
//! harness's other threads do not disturb the count.

mod counting;

use counting::allocations;
use sgs_core::{CellCoord, GridGeometry, Point, PointId, WindowId};
use sgs_index::GridIndex;

/// A point in the middle of cell `(x, row, 0, …)` of a `dim`-d grid of
/// side 1.
fn point(dim: usize, x: i32, row: i32) -> Point {
    let coords = (0..dim).map(|d| match d {
        0 => f64::from(x) + 0.5,
        1 => f64::from(row) + 0.5,
        _ => 0.5,
    });
    Point::new(coords.collect::<Vec<_>>(), 0)
}

/// An index of side-1 cells that has held eight cells in each of eight
/// rows and now holds the first four cells of row 0 only: every row but
/// row 0 has come and gone, and row 0 has room for eight cells. In 1-d
/// there is one row, of every cell.
fn warm_index(dim: usize) -> (GridIndex, Vec<(PointId, CellCoord)>) {
    let geometry = GridGeometry::with_side(dim, 1.0, 1.0);
    let mut index = GridIndex::new(geometry);
    let mut points = Vec::new();
    let rows = if dim == 1 { 1 } else { 8 };
    for row in 0..rows {
        for x in 0..8 {
            let id = PointId(points.len() as u32);
            let cell = index.insert_expiring(id, &point(dim, x, row), WindowId(9));
            points.push((id, cell));
        }
    }
    let (kept, gone): (Vec<_>, Vec<_>) = points
        .into_iter()
        .partition(|(_, cell)| cell.0[0] < 4 && cell.0.get(1).is_none_or(|&r| r == 0));
    for (id, cell) in &gone {
        assert!(index.remove(*id, cell));
    }
    assert_eq!(index.cell_count(), 4);
    (index, kept)
}

/// Allocations of inserting `p` as point `id`.
fn allocations_of_insert(index: &mut GridIndex, id: u32, p: &Point) -> usize {
    let before = allocations();
    index.insert_expiring(PointId(id), p, WindowId(9));
    allocations() - before
}

/// In a warm index, a point opening a new cell in an existing row
/// allocates nothing in one to four dimensions, and one opening a new row
/// allocates one block, the row's. At five dimensions the cell's point is
/// spilled (ids, expiries, coordinates: three blocks) and `cell_of` boxes
/// the coordinate (one more); the row key of four is still inline. At
/// nine the row key is boxed too.
#[test]
fn a_point_opening_a_cell_allocates_nothing_up_to_four_dimensions() {
    for (dim, new_cell, new_row) in [
        (1, 0, 1),
        (2, 0, 1),
        (3, 0, 1),
        (4, 0, 1),
        (5, 4, 5),
        (9, 4, 6),
    ] {
        let (mut index, _) = warm_index(dim);
        let got = allocations_of_insert(&mut index, 100, &point(dim, 6, 0));
        assert_eq!(got, new_cell, "{dim}-d, a new cell in row 0");
        if dim > 1 {
            let got = allocations_of_insert(&mut index, 101, &point(dim, 2, 5));
            assert_eq!(got, new_row, "{dim}-d, a new row");
        }
    }
    // The one row of a 1-d grid comes back after it empties.
    let (mut index, kept) = warm_index(1);
    for (id, cell) in &kept {
        assert!(index.remove(*id, cell));
    }
    assert!(index.is_empty());
    assert_eq!(allocations_of_insert(&mut index, 100, &point(1, 6, 0)), 1);
}

/// The second point of a one-point cell spills both into three columns
/// sized for two points; the third grows each column, to room for four,
/// and the fourth allocates nothing.
#[test]
fn a_second_point_spills_the_cell_into_three_columns() {
    for dim in 1..=4 {
        let (mut index, _) = warm_index(dim);
        let p = point(dim, 1, 0);
        let steps: Vec<usize> = (0..3)
            .map(|n| allocations_of_insert(&mut index, 100 + n, &p))
            .collect();
        assert_eq!(steps, [3, 3, 0], "{dim}-d");
        assert_eq!(index.cell_points(&index.geometry().cell_of(&p)).len(), 4);
    }
}
