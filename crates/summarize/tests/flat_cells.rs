//! A flat [`Cells`] list is the list of [`SkeletalCell`]s it was built
//! from: every field reads back through its views, it compares and
//! prints as the list does, and a summary of it survives the codec and
//! coarsening as a valid summary.

use proptest::prelude::*;
use sgs_core::CellCoord;
use sgs_summarize::codec::{decode, encode};
use sgs_summarize::{coarsen, CellStatus, Cells, CellsBuilder, Sgs, SkeletalCell};

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

/// The valid `dim`-dimensional cell list (`dim ≥ 2`) a script describes;
/// the coordinates past the second repeat the step, so lists of more
/// than four dimensions hold spilled coordinates.
fn list(dim: usize, script: &[CellScript]) -> Vec<SkeletalCell> {
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
            SkeletalCell {
                coord: CellCoord::new(coord),
                population: *population,
                status,
                connections,
            }
        })
        .collect()
}

proptest! {
    /// Every field of every cell reads back through `get` and `iter`, the
    /// list comes back whole, the three ways to build one agree, and it
    /// prints as the list of cells it holds.
    #[test]
    fn a_flat_list_reads_back_as_the_cells_it_was_built_from(
        dim in 2usize..7,
        script in prop::collection::vec(cell_script(), 0..40),
    ) {
        let list = list(dim, &script);
        let cells = Cells::from(list.clone());
        prop_assert_eq!((cells.len(), cells.is_empty()), (list.len(), list.is_empty()));
        prop_assert_eq!(cells.iter().len(), list.len());
        for (i, (cell, walked)) in list.iter().zip(&cells).enumerate() {
            for view in [cells.get(i).unwrap(), walked] {
                prop_assert_eq!(view.coord, &cell.coord);
                prop_assert_eq!(view.population, cell.population);
                prop_assert_eq!(view.status, cell.status);
                prop_assert_eq!(view.connections, &cell.connections[..]);
                prop_assert_eq!(view.connectivity(), cell.connections.len());
            }
        }
        prop_assert!(cells.get(list.len()).is_none());
        prop_assert_eq!(cells.to_vec(), list.clone());

        prop_assert_eq!(list.iter().cloned().collect::<Cells>(), cells.clone());
        let mut builder = CellsBuilder::default();
        for _ in 0..2 {
            for c in &list {
                let connections = c.connections.iter().copied();
                builder.push(c.coord.clone(), c.population, c.status, connections);
            }
            prop_assert_eq!(builder.build(), cells.clone(), "a build empties the builder");
        }

        prop_assert_eq!(format!("{cells:?}"), format!("{list:?}"));
        prop_assert_eq!(format!("{cells:#?}"), format!("{list:#?}"));
    }

    /// Two flat lists are equal exactly when the lists of cells are,
    /// lists whose connections concatenate alike but split between the
    /// cells differently included.
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
            1 => b[i].population += by,
            2 => {
                b[i].status = match b[i].status {
                    CellStatus::Core => CellStatus::Edge,
                    CellStatus::Edge => CellStatus::Core,
                }
            }
            3 => b[i].connections.push(by),
            4 if i + 1 < b.len() => {
                // The same connection array, its last run boundary moved.
                if let Some(moved) = b[i].connections.pop() {
                    b[i + 1].connections.insert(0, moved);
                }
            }
            5 => b.truncate(i),
            _ => {}
        }
        let (flat_a, flat_b) = (Cells::from(a.clone()), Cells::from(b.clone()));
        prop_assert_eq!(flat_a == flat_b, a == b, "edit {:?}", edit);
        prop_assert_eq!(flat_a.clone(), flat_a);
    }

    /// A valid summary of a flat list encodes and decodes to itself, and
    /// it and its coarsening pass `Sgs::validate`.
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
            cells: list(dim, &script).into(),
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
