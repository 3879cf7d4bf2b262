//! Decoding a summary allocates per summary, not per cell, at any
//! dimensionality: its coordinates, and its cells with their
//! connections, are each read into one block at their exact length.
//! Counted per thread, so the harness's other threads do not disturb the
//! count.

mod counting;

use counting::allocations;
use sgs_summarize::codec::{decode, encode};
use sgs_summarize::{CellStatus, CellsBuilder, Sgs};

/// A `dim`-dimensional row of `n` cells, each core cell linked to its
/// neighbours in the row, every third cell an edge cell.
fn row(dim: usize, n: u32) -> Sgs {
    let mut list = CellsBuilder::default();
    let mut coord = vec![7; dim];
    for x in 0..n {
        coord[0] = x as i32;
        if x % 3 == 2 {
            list.push(&coord, 1 + x % 5, CellStatus::Edge, []);
        } else {
            let neighbours = (x.saturating_sub(1)..(x + 2).min(n)).filter(|&j| j != x);
            list.push(&coord, 1 + x % 5, CellStatus::Core, neighbours);
        }
    }
    let sgs = Sgs {
        dim,
        side: 0.5,
        level: 0,
        cells: list.build(),
    };
    sgs.validate().unwrap();
    sgs
}

/// The allocations of decoding `sgs`, and the decoded summary.
fn decoded(sgs: &Sgs) -> (usize, Sgs) {
    let mut bytes = Vec::new();
    encode(sgs, &mut bytes);
    let at = allocations();
    let back = decode(&mut &bytes[..]).unwrap();
    (allocations() - at, back)
}

#[test]
fn decode_allocates_alike_for_2_cells_and_for_200() {
    let (small, large) = (row(2, 2), row(2, 200));
    let (small_allocations, small_back) = decoded(&small);
    let (large_allocations, large_back) = decoded(&large);
    assert_eq!((small_back, large_back), (small, large));
    assert_eq!(small_allocations, large_allocations);
    assert_eq!(
        large_allocations, 2,
        "the coordinate column and the word block"
    );
}

#[test]
fn a_9_d_decode_is_two_blocks() {
    let sgs = row(9, 200);
    let (allocations, back) = decoded(&sgs);
    assert_eq!(back, sgs);
    assert_eq!(allocations, 2, "no coordinate is a block of its own");
}
