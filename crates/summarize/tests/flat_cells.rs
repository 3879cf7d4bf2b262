//! A flat [`Cells`] list holds the cells pushed into its builder: every
//! field reads back through its views, each connection run ascending and
//! without repeats, it compares as the list of cells does, and a summary
//! of it survives the codec and coarsening as a valid summary.

use proptest::prelude::*;
use sgs_summarize::codec::{decode, encode};
use sgs_summarize::{coarsen, CellStatus, Cells, CellsBuilder, Sgs};

/// One generated cell: its step along the first axis from the previous
/// cell (so a list is sorted and distinct), its second coordinate, its
/// population, its kind (0 is an edge cell, else a core cell) and its
/// connections' targets, taken modulo the list's length (a cell's own
/// index dropped).
type CellScript = (i32, i32, u32, u8, Vec<u32>);

fn cell_script() -> impl Strategy<Value = CellScript> {
    (
        1i32..4,
        -3i32..4,
        1u32..100_000,
        0u8..3,
        prop::collection::vec(0u32..1000, 0..6),
    )
}

/// A modelled cell: coordinate, population, status and connections as
/// pushed, in any order and possibly repeated.
type Cell = (Vec<i32>, u32, CellStatus, Vec<u32>);

/// The valid `dim`-dimensional cell list (`dim ≥ 2`) a script describes;
/// the coordinates past the second repeat the step.
fn list(dim: usize, script: &[CellScript]) -> Vec<Cell> {
    let n = script.len() as u32;
    let mut x = 0;
    let cells = script.iter().enumerate();
    cells
        .map(|(i, (step, y, population, kind, targets))| {
            x += step;
            let mut coord = vec![x, *y];
            coord.resize(dim, *step);
            let (status, connections) = if *kind == 0 {
                (CellStatus::Edge, Vec::new())
            } else {
                let targets = targets.iter().map(|t| t % n);
                (
                    CellStatus::Core,
                    targets.filter(|&j| j as usize != i).collect(),
                )
            };
            (coord, *population, status, connections)
        })
        .collect()
}

/// A run as the builder stores it: ascending, each index once.
fn canonical(run: &[u32]) -> Vec<u32> {
    let mut run = run.to_vec();
    run.sort_unstable();
    run.dedup();
    run
}

/// The model with every run in its stored order.
fn stored(list: &[Cell]) -> Vec<Cell> {
    let cells = list.iter().cloned();
    cells
        .map(|(c, p, s, run)| (c, p, s, canonical(&run)))
        .collect()
}

/// The cells of `list` pushed into `builder`, built.
fn build(builder: &mut CellsBuilder, list: &[Cell]) -> Cells {
    for (coord, population, status, connections) in list {
        builder.push(coord, *population, *status, connections.iter().copied());
    }
    builder.build()
}

proptest! {
    /// Every field of every cell reads back through `get` and `iter`,
    /// each run in its stored order, and a build empties the builder.
    #[test]
    fn a_flat_list_reads_back_as_the_cells_it_was_built_from(
        dim in 2usize..7,
        script in prop::collection::vec(cell_script(), 0..40),
    ) {
        let list = list(dim, &script);
        let mut builder = CellsBuilder::default();
        let cells = build(&mut builder, &list);
        prop_assert_eq!((cells.len(), cells.is_empty()), (list.len(), list.is_empty()));
        prop_assert_eq!(cells.iter().len(), list.len());
        for (i, ((coord, population, status, run), walked)) in list.iter().zip(&cells).enumerate() {
            let run = canonical(run);
            for view in [cells.get(i).unwrap(), walked] {
                prop_assert_eq!(view.coord, &coord[..]);
                prop_assert_eq!(view.population, *population);
                prop_assert_eq!(view.status, *status);
                prop_assert_eq!(view.connections, &run[..]);
                prop_assert_eq!(view.connectivity(), run.len());
            }
        }
        prop_assert!(cells.get(list.len()).is_none());
        prop_assert_eq!(build(&mut builder, &list), cells, "a build empties the builder");
    }

    /// Two flat lists are equal exactly when the lists of cells they
    /// store are, lists whose connection runs split between the cells
    /// differently included.
    #[test]
    fn flat_lists_compare_as_the_lists_of_cells_do(
        dim in 2usize..7,
        script in prop::collection::vec(cell_script(), 1..30),
        edit in (0u8..6, 0usize..1000, 1u32..5),
    ) {
        let a = list(dim, &script);
        let mut b = a.clone();
        let (kind, i, by) = (edit.0, edit.1 % a.len(), edit.2);
        match kind {
            1 => b[i].1 += by,
            2 => {
                b[i].2 = match b[i].2 {
                    CellStatus::Core => CellStatus::Edge,
                    CellStatus::Edge => CellStatus::Core,
                }
            }
            3 => b[i].3.push(by),
            4 if i + 1 < b.len() => {
                // A run boundary moved.
                if let Some(moved) = b[i].3.pop() {
                    b[i + 1].3.insert(0, moved);
                }
            }
            5 => b.truncate(i),
            _ => {}
        }
        let mut builder = CellsBuilder::default();
        let (flat_a, flat_b) = (build(&mut builder, &a), build(&mut builder, &b));
        prop_assert_eq!(flat_a == flat_b, stored(&a) == stored(&b), "edit {:?}", edit);
        prop_assert_eq!(flat_a.clone(), flat_a);
    }

    /// A valid summary of a flat list encodes and decodes to itself, and
    /// it and its coarsening pass `Sgs::validate`, runs in order included.
    #[test]
    fn a_flat_summary_survives_the_codec_and_coarsening(
        dim in 2usize..7,
        script in prop::collection::vec(cell_script(), 0..40),
        level in 0u8..3,
        theta in 2u32..4,
    ) {
        let sgs = Sgs {
            dim,
            side: 0.25,
            level,
            cells: build(&mut CellsBuilder::default(), &list(dim, &script)),
        };
        sgs.validate().unwrap();
        let mut bytes = Vec::new();
        encode(&sgs, &mut bytes);
        let back = decode(&mut &bytes[..]).unwrap();
        back.validate().unwrap();
        prop_assert_eq!(&back, &sgs);
        let coarse = coarsen(&back, theta);
        coarse.validate().unwrap();
        prop_assert_eq!(coarse.population(), sgs.population());
        prop_assert_eq!(coarse.level, level + 1);
    }
}
