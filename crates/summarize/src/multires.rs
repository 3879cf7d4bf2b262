//! Multi-resolution SGS (§6.1).
//!
//! The basic SGS (level 0) can be compressed hierarchically: each level-n
//! skeletal cell combines the level-(n−1) cells inside a θ-sized hypercube
//! (θᵈ of them in d dimensions). Per §6.1:
//!
//! * side length — level-(n−1) side × θ,
//! * status — core if any covered child is core,
//! * population — sum of covered children,
//! * connections — decided by the connections between *boundary* children:
//!   a level-n connection exists wherever some child connection crosses the
//!   parent boundary.
//!
//! Both space consumption and granularity at any level are exactly
//! computable ([`archived_bytes_at_level`]), which is what the archiver's
//! budget/accuracy-aware resolution selection (§6.1) relies on.

use sgs_core::CellCoord;
use sgs_index::FxHashMap;

use crate::packed;
use crate::sgs::{CellStatus, CellsBuilder, Sgs};

/// Combine an SGS one level up with compression rate `theta` (θ ≥ 2):
/// every θ-sized hypercube of cells becomes one coarser cell.
///
/// The output need not keep the mirroring of core–core connections that
/// [`Sgs::from_members`] builds: a child core's link to an edge child
/// lifts to a parent link P→Q although no child of Q links into P, so Q
/// does not list P. Of 2 000 random 2-d member sets (θr 1, 60 % cores),
/// 1 405 held such a one-sided link after one `coarsen(·, 2)`. No product
/// path archives a coarsened summary: `coarsen` serves §6.1's storage
/// accounting and callers that coarsen a summary themselves.
///
/// # Panics
/// Panics if `theta < 2`.
pub fn coarsen(sgs: &Sgs, theta: u32) -> Sgs {
    assert!(theta >= 2, "compression rate must be at least 2");
    let t = theta as i32;

    // Map child cell index -> parent coordinate.
    let parent_of =
        |coord: &[i32]| -> CellCoord { CellCoord(coord.iter().map(|c| c.div_euclid(t)).collect()) };

    // Aggregate population and status per parent.
    #[derive(Default)]
    struct Agg {
        population: u32,
        core: bool,
    }
    let mut parents: FxHashMap<CellCoord, Agg> = FxHashMap::default();
    let mut parent_coord_of_child: Vec<CellCoord> = Vec::with_capacity(sgs.cells.len());
    for cell in &sgs.cells {
        let pc = parent_of(cell.coord);
        let agg = parents.entry(pc.clone()).or_default();
        agg.population += cell.population;
        agg.core |= cell.status == CellStatus::Core;
        parent_coord_of_child.push(pc);
    }

    // Canonical parent order.
    let mut coords: Vec<CellCoord> = parents.keys().cloned().collect();
    coords.sort_unstable();
    let index_of: FxHashMap<CellCoord, u32> = coords
        .iter()
        .enumerate()
        .map(|(i, c)| (c.clone(), i as u32))
        .collect();

    // Lift child connections across parent boundaries (§6.1: decided by the
    // boundary children). Connections live on core cells; the child list is
    // mutual for core-core pairs and one-sided for attachments, so lifting
    // each entry preserves the convention.
    let mut lifted: Vec<(u32, u32)> = Vec::new();
    for (child_idx, cell) in sgs.cells.iter().enumerate() {
        if cell.status != CellStatus::Core {
            continue;
        }
        let pi = index_of[&parent_coord_of_child[child_idx]];
        for &conn in cell.connections {
            let pj = index_of[&parent_coord_of_child[conn as usize]];
            if pi != pj {
                lifted.push((pi, pj));
            }
        }
    }
    // Grouped by parent; `push` puts each parent's run in order.
    lifted.sort_unstable_by_key(|&(pi, _)| pi);

    let mut list = CellsBuilder::default();
    let mut runs = lifted.as_slice();
    for (i, coord) in (0u32..).zip(coords) {
        let agg = &parents[&coord];
        let status = if agg.core {
            CellStatus::Core
        } else {
            CellStatus::Edge
        };
        let (run, rest) = runs.split_at(runs.partition_point(|&(pi, _)| pi == i));
        runs = rest;
        list.push(
            &coord.0,
            agg.population,
            status,
            run.iter().map(|&(_, pj)| pj),
        );
    }

    Sgs {
        dim: sgs.dim,
        side: sgs.side * theta as f64,
        level: sgs.level + 1,
        cells: list.build(),
    }
}

/// Exact archived size (bytes) of a summary if stored at `level`, without
/// materializing the coarser summaries — the §6.1 budget computation: count
/// how many level-`level` cells are needed to cover the basic cells.
pub fn archived_bytes_at_level(sgs: &Sgs, theta: u32, level: u8) -> usize {
    assert!(theta >= 2);
    if level == 0 {
        return packed::archived_bytes(sgs);
    }
    let factor = (theta as i64).pow(level as u32);
    let mut parents: std::collections::BTreeSet<Box<[i64]>> = Default::default();
    for cell in &sgs.cells {
        let pc: Box<[i64]> = cell
            .coord
            .iter()
            .map(|&c| (c as i64).div_euclid(factor))
            .collect();
        parents.insert(pc);
    }
    packed::summary_bytes(parents.len(), sgs.dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::MemberSet;
    use sgs_core::GridGeometry;

    fn strip_cluster() -> Sgs {
        // A 6-cell horizontal strip of cores plus one trailing edge cell.
        let cores: Vec<Box<[f64]>> = (0..12)
            .map(|i| vec![0.05 + i as f64 * 0.35, 0.05].into())
            .collect();
        let edges: Vec<Box<[f64]>> = vec![vec![4.6, 0.05].into()];
        Sgs::from_members(&MemberSet::new(cores, edges), &GridGeometry::basic(2, 1.0))
    }

    #[test]
    fn coarsen_reduces_cell_count() {
        let base = strip_cluster();
        let coarse = coarsen(&base, 3);
        assert!(coarse.volume() < base.volume());
        assert_eq!(coarse.level, 1);
        assert!((coarse.side - base.side * 3.0).abs() < 1e-12);
        coarse.validate().unwrap();
    }

    #[test]
    fn population_is_preserved() {
        let base = strip_cluster();
        let coarse = coarsen(&base, 3);
        assert_eq!(coarse.population(), base.population());
        let coarser = coarsen(&coarse, 2);
        assert_eq!(coarser.population(), base.population());
        assert_eq!(coarser.level, 2);
    }

    #[test]
    fn core_status_survives_if_any_child_core() {
        let base = strip_cluster();
        let coarse = coarsen(&base, 3);
        assert!(coarse.core_count() >= 1);
        // Every parent containing a core child must be core: population of
        // cores in base is 12 spread over parents; since base strip is all
        // cores except the last cell, at most the last parent may be edge.
        let edge_parents = coarse.volume() - coarse.core_count();
        assert!(edge_parents <= 1);
    }

    #[test]
    fn connectivity_is_preserved_at_coarse_level() {
        // The strip is one component at level 0 and must stay one component.
        let base = strip_cluster();
        assert_eq!(base.components().len(), 1);
        let coarse = coarsen(&base, 3);
        assert_eq!(coarse.components().len(), 1);
    }

    #[test]
    fn disconnected_components_stay_disconnected_unless_merged_by_geometry() {
        // Two blobs 100 cells apart cannot share a parent at θ=3.
        let cores_a: Vec<Box<[f64]>> = (0..4)
            .map(|i| vec![0.05 + i as f64 * 0.3, 0.05].into())
            .collect();
        let cores_b: Vec<Box<[f64]>> = (0..4)
            .map(|i| vec![70.0 + i as f64 * 0.3, 0.05].into())
            .collect();
        let base = Sgs::from_members(
            &MemberSet::new([cores_a, cores_b].concat(), vec![]),
            &GridGeometry::basic(2, 1.0),
        );
        assert_eq!(base.components().len(), 2);
        let coarse = coarsen(&base, 3);
        assert_eq!(coarse.components().len(), 2);
    }

    #[test]
    fn negative_coordinates_coarsen_correctly() {
        let cores: Vec<Box<[f64]>> = (0..6)
            .map(|i| vec![-2.0 + i as f64 * 0.35, -0.05].into())
            .collect();
        let base = Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0));
        let coarse = coarsen(&base, 2);
        assert_eq!(coarse.population(), base.population());
        coarse.validate().unwrap();
        // div_euclid semantics: -1 / 2 → -1, not 0
        assert!(coarse.cells.iter().any(|c| c.coord.iter().any(|&v| v < 0)));
    }

    #[test]
    fn bytes_at_level_zero_matches_packed() {
        let base = strip_cluster();
        assert_eq!(
            archived_bytes_at_level(&base, 3, 0),
            packed::archived_bytes(&base)
        );
    }

    #[test]
    fn bytes_shrink_with_level() {
        let base = strip_cluster();
        let b0 = archived_bytes_at_level(&base, 3, 0);
        let b1 = archived_bytes_at_level(&base, 3, 1);
        let b2 = archived_bytes_at_level(&base, 3, 2);
        assert!(b1 < b0);
        assert!(b2 <= b1);
    }

    #[test]
    fn bytes_at_level_matches_materialized_coarsening() {
        let base = strip_cluster();
        let coarse = coarsen(&base, 3);
        assert_eq!(
            archived_bytes_at_level(&base, 3, 1),
            packed::archived_bytes(&coarse)
        );
    }
}
