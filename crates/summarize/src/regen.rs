//! Approximate full-representation regeneration from an SGS.
//!
//! §1 of the paper: *"one can design pattern visualization or full
//! representation re-generation techniques based on pattern
//! summarizations."* This module is that technique: given only the
//! summary, synthesize a point set with the same per-cell populations.
//! By Lemma 4.3 every regenerated point is within θr of a true cluster
//! member, and by Lemma 4.4 the density of any cell-aligned sub-region is
//! exact — the regeneration inherits the summary's fidelity guarantees.

use rand::Rng;

use crate::member::MemberSet;
use crate::sgs::{CellStatus, Sgs};

/// Synthesize a member set from a summary: `population` points are drawn
/// uniformly inside each skeletal cell; points of core cells become cores,
/// points of edge cells become edges.
pub fn regenerate(sgs: &Sgs, rng: &mut impl Rng) -> MemberSet {
    let mut cores = Vec::new();
    let mut edges = Vec::new();
    for cell in &sgs.cells {
        let target = match cell.status {
            CellStatus::Core => &mut cores,
            CellStatus::Edge => &mut edges,
        };
        for _ in 0..cell.population {
            let p: Box<[f64]> = cell
                .coord
                .0
                .iter()
                .map(|&c| (c as f64 + rng.gen_range(0.0..1.0)) * sgs.side)
                .collect();
            target.push(p);
        }
    }
    MemberSet::new(cores, edges)
}

/// Quality of a regeneration against the original members: the symmetric
/// mean nearest-neighbor distance, which Lemma 4.3 bounds by the cell
/// diagonal (θr for a basic grid).
pub fn regeneration_error(original: &MemberSet, regenerated: &MemberSet) -> f64 {
    let orig: Vec<&[f64]> = original.iter_all().collect();
    let regen: Vec<&[f64]> = regenerated.iter_all().collect();
    if orig.is_empty() || regen.is_empty() {
        return if orig.len() == regen.len() {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let dir = |from: &[&[f64]], to: &[&[f64]]| -> f64 {
        from.iter()
            .map(|p| {
                to.iter()
                    .map(|q| sgs_core::dist(p, q))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            / from.len() as f64
    };
    (dir(&orig, &regen) + dir(&regen, &orig)) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sgs_core::GridGeometry;

    fn sample() -> (Sgs, MemberSet, GridGeometry) {
        let g = GridGeometry::basic(2, 1.0);
        let cores: Vec<Box<[f64]>> = (0..80)
            .map(|i| vec![0.05 + (i % 10) as f64 * 0.3, 0.05 + (i / 10) as f64 * 0.3].into())
            .collect();
        let members = MemberSet::new(cores, vec![]);
        (Sgs::from_members(&members, &g), members, g)
    }

    #[test]
    fn population_is_preserved_exactly() {
        let (sgs, members, _) = sample();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let regen = regenerate(&sgs, &mut rng);
        assert_eq!(regen.population(), members.population());
        assert_eq!(regen.cores.len() + regen.edges.len(), members.population());
    }

    #[test]
    fn regenerated_points_fall_inside_their_cells() {
        let (sgs, _, g) = sample();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let regen = regenerate(&sgs, &mut rng);
        for p in regen.iter_all() {
            let cell = g.cell_of(&sgs_core::Point::new(p.to_vec(), 0));
            assert!(
                sgs.index_of(&cell).is_some(),
                "regenerated point {p:?} fell outside the summary"
            );
        }
    }

    #[test]
    fn lemma_4_3_error_bound_holds() {
        let (sgs, members, g) = sample();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let regen = regenerate(&sgs, &mut rng);
        let err = regeneration_error(&members, &regen);
        // Mean NN distance is far below the worst-case bound; assert the
        // hard bound (θr = cell diagonal) as the invariant.
        assert!(err <= g.theta_r(), "error {err} exceeds θr");
    }

    #[test]
    fn resummarize_reproduces_cell_structure() {
        // Population per cell is preserved by construction, so summarizing
        // the regenerated members gives back the same cell decomposition.
        let (sgs, _, g) = sample();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let again = Sgs::from_members(&regenerate(&sgs, &mut rng), &g);
        assert_eq!(again.volume(), sgs.volume());
        for (a, b) in sgs.cells.iter().zip(again.cells.iter()) {
            assert_eq!(a.coord, b.coord);
            assert_eq!(a.population, b.population);
        }
    }

    #[test]
    fn empty_summary_regenerates_empty() {
        let sgs = Sgs {
            dim: 2,
            side: 1.0,
            level: 0,
            cells: Default::default(),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let regen = regenerate(&sgs, &mut rng);
        assert_eq!(regen.population(), 0);
        assert_eq!(regeneration_error(&MemberSet::default(), &regen), 0.0);
    }
}
