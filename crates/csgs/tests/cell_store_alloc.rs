//! `CellStore` updates to an established cell allocate nothing: a link
//! is keyed by the other cell's id, and a link is created only if it can
//! ever be live. Nor does a new cell of up to four dimensions, once the
//! store has held as many: its coordinate is held inline, in its slot and
//! as its map key, and only a higher-dimensional one spills to the heap.
//! Counted per thread, so the harness's other threads do not disturb the
//! count.

mod counting;

use counting::allocations;
use sgs_core::{CellCoord, GridGeometry, Point, WindowId};
use sgs_csgs::cell_store::CellStore;

#[test]
fn updates_to_established_cells_do_not_allocate() {
    let (cell, other) = (
        CellCoord::new(vec![3, -1, 4, 1]),
        CellCoord::new(vec![3, -1, 4, 2]),
    );
    let mut store = CellStore::new();
    let before = allocations();
    let (a, b) = (store.arrive(&cell), store.arrive(&other));
    store.raise_link(a, b, 1, 1);
    assert!(allocations() > before, "the first cells size the store");

    let before = allocations();
    for w in 2..100 {
        assert_eq!(store.arrive(&cell), a);
        store.raise_core_until(a, w);
        store.raise_link(a, b, w, w);
        store.decrement_population(a);
    }
    assert_eq!(allocations() - before, 0);
    let state = store.get(a);
    assert_eq!((state.population, state.core_until), (1, 99));
}

/// A raise that reaches no window past the current one — a pair of
/// non-core objects, most pairs of a sparse stream — creates no link:
/// nothing is inserted, or left for `gc`.
#[test]
fn a_born_dead_raise_allocates_nothing() {
    let (cell, other) = (
        CellCoord::new(vec![3, -1, 4, 1]),
        CellCoord::new(vec![3, -1, 4, 2]),
    );
    let mut store = CellStore::new();
    let (a, b) = (store.arrive(&cell), store.arrive(&other));
    store.set_window(WindowId(7));
    let before = allocations();
    store.raise_link(a, b, 0, 7);
    store.raise_link(b, a, 7, 0);
    assert_eq!(allocations() - before, 0);
    assert!(store.get(a).links.is_empty() && store.get(b).links.is_empty());

    // One watermark past the window is a link.
    store.raise_link(a, b, 0, 8);
    assert!(allocations() > before);
    assert_eq!(store.get(a).links[&b].attach_until, 8);
}

/// A cell's first stamp in a window lists it for `gc`, and the list keeps
/// its buffer across `gc`: once it has held a window's worth, first
/// stamps of established cells, re-stamps of cells already written this
/// window, and the `gc` that walks them allocate nothing.
#[test]
fn stamping_established_cells_allocates_nothing_once_the_list_is_warm() {
    let coords: Vec<CellCoord> = (0..8).map(|i| CellCoord::new(vec![i, -1, 4, 1])).collect();
    let mut store = CellStore::new();
    let cells: Vec<_> = coords.iter().map(|c| store.arrive(c)).collect();
    store.gc(WindowId(0));

    for w in 1..50 {
        store.set_window(WindowId(w));
        let before = allocations();
        for (coord, &cell) in coords.iter().zip(&cells) {
            store.arrive(coord); // the window's first stamp
            store.raise_core_until(cell, w + 5); // stamped again
            store.decrement_population(cell);
        }
        store.gc(WindowId(w));
        assert_eq!(allocations() - before, 0, "window {w}");
    }
    assert_eq!(store.len(), cells.len());
    assert!(cells.iter().all(|&c| store.get(c).touched == 49));
}

/// Once the store has held twice as many cells, arriving at new cells of
/// up to four dimensions allocates nothing: each takes a collected cell's
/// slot and map capacity, and its coordinate is inline in both. A 9-d
/// coordinate spills, once in the slot and once as the key.
#[test]
fn a_new_cell_of_up_to_four_dimensions_allocates_nothing_once_the_store_is_warm() {
    for (dim, per_cell) in [(1, 0), (2, 0), (3, 0), (4, 0), (9, 2)] {
        let cell = |i: i32, round: i32| CellCoord((0..dim).map(|d| i * 7 + d - round).collect());
        let mut store = CellStore::new();
        let mut ids: Vec<_> = (0..16).map(|i| store.arrive(&cell(i, 0))).collect();
        for w in 1..4 {
            for &id in &ids {
                store.decrement_population(id);
            }
            store.gc(WindowId(w as u64));
            assert!(store.is_empty(), "{dim}-d, window {w}");
            store.set_window(WindowId(w as u64));
            let coords: Vec<CellCoord> = (0..8).map(|i| cell(i, w)).collect();
            let before = allocations();
            ids.clear();
            ids.extend(coords.iter().map(|coord| store.arrive(coord)));
            assert_eq!(allocations() - before, 8 * per_cell, "{dim}-d, window {w}");
        }
        assert_eq!(store.len(), 8);
    }
}

/// The cell of a point is computed without an allocation in up to four
/// dimensions, and with one — its spilled coordinate — above.
#[test]
fn cell_of_allocates_only_for_a_spilled_coordinate() {
    for (dim, want) in [(1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (9, 1)] {
        let geometry = GridGeometry::basic(dim, 0.5);
        let p = Point::new((0..dim).map(|d| d as f64 - 2.3).collect::<Vec<_>>(), 0);
        let before = allocations();
        let cell = std::hint::black_box(geometry.cell_of(&p));
        assert_eq!(allocations() - before, want, "{dim}-d");
        assert_eq!(cell.dim(), dim);
    }
}
