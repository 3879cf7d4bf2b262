//! The anytime alignment search allocates nothing per evaluated shift up
//! to four dimensions: a shift is held in place, so doubling the budget
//! costs only the regrowths of the search's heap and seen set. Counted
//! per thread, so the harness's other threads do not disturb the count.

#[path = "../../csgs/tests/counting/mod.rs"]
mod counting;

use counting::allocations;
use sgs_matching::best_alignment;
use sgs_summarize::{CellStatus, CellsBuilder, Sgs};

/// A 2-d summary of one population-`p` core cell at each `(x, y, p)`,
/// which must be sorted and distinct.
fn cells(coords: &[(i32, i32, u32)]) -> Sgs {
    let mut list = CellsBuilder::default();
    for &(x, y, population) in coords {
        list.push(&[x, y], population, CellStatus::Core, []);
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

#[test]
fn doubling_the_budget_adds_only_the_regrowths() {
    // An L against a square of other populations: no shift matches
    // exactly, so the search spends its whole budget.
    let l = cells(&[(0, 0, 1), (0, 1, 2), (0, 2, 3), (1, 0, 4), (2, 0, 5)]);
    let square = cells(&[(5, 5, 7), (5, 6, 7), (6, 5, 7), (6, 6, 7)]);
    let counted = |budget| {
        let before = allocations();
        let result = best_alignment(&l, &square, budget);
        (allocations() - before, result)
    };
    let (at_32, small) = counted(32);
    let (at_64, large) = counted(64);
    assert_eq!((small.evaluated, large.evaluated), (32, 64));
    assert!(large.distance > 0.0);
    assert!(
        at_64 <= at_32 + 4,
        "budget 32: {at_32} allocations, budget 64: {at_64}"
    );
}
