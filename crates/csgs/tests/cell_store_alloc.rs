//! `CellStore` updates to an established cell allocate nothing: the cell
//! key (a boxed coordinate) is cloned only when a cell is created, a link
//! is keyed by the other cell's id, and a link is created only if it can
//! ever be live. Counted
//! with a wrapping global allocator, per thread so the harness's other
//! threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sgs_core::{CellCoord, WindowId};
use sgs_csgs::cell_store::CellStore;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged, so its contract
// is `System`'s. The counter is a const-initialized thread-local `Cell`
// with no destructor: touching it neither allocates nor re-enters the
// allocator, and `try_with` declines instead of panicking during thread
// teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

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
    assert!(allocations() > before, "creating a cell clones its key");

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
