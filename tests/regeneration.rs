//! Full-representation regeneration (§1's "re-generation techniques based
//! on pattern summarizations"): given only a summary, synthesize a point
//! set with the same per-cell populations. By Lemma 4.3 every regenerated
//! point is within θr of a true cluster member, and by Lemma 4.4 the
//! density of any cell-aligned sub-region is exact, so the regeneration
//! inherits the summary's fidelity guarantees. Checked on hand-made
//! summaries and end to end: regenerating from an archived SGS must
//! produce a point set that (a) respects the fidelity lemmas and (b)
//! *re-clusters* into a structure matching the summary.

use rand::{Rng, SeedableRng};
use streamsum::core::GridGeometry;
use streamsum::prelude::*;
use streamsum::summarize::CellStatus;

/// Synthesize a member set from a summary: `population` points are drawn
/// uniformly inside each skeletal cell; points of core cells become cores,
/// points of edge cells become edges.
fn regenerate(sgs: &Sgs, rng: &mut impl Rng) -> MemberSet {
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
fn regeneration_error(original: &MemberSet, regenerated: &MemberSet) -> f64 {
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
                    .map(|q| streamsum::core::dist(p, q))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            / from.len() as f64
    };
    (dir(&orig, &regen) + dir(&regen, &orig)) / 2.0
}

/// An 80-core summary on the basic 2-d grid of θr = 1, its members and
/// the grid.
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
        let cell = g.cell_of(&Point::new(p.to_vec(), 0));
        assert!(
            sgs.cells.iter().any(|c| *c.coord == *cell.0),
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

fn archive_from_stream() -> (StreamPipeline, Vec<MemberSet>) {
    let query = ClusterQuery::new(0.5, 6, 2, WindowSpec::count(2500, 500).unwrap()).unwrap();
    let mut engine = WindowEngine::new(query.window, 2);
    let mut csgs = CSgs::new(query.clone());
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::MinPopulation(60), 0).unwrap();
    let stream = generate_gmti(&GmtiConfig {
        n_records: 10_000,
        n_convoys: 5,
        ..GmtiConfig::default()
    });
    // Run the pipeline while also keeping member coordinates for the
    // fidelity comparison. The engine numbers points in arrival order
    // from 0, so an id indexes the stream.
    let coords = |ids: &[PointId]| -> Vec<Box<[f64]>> {
        ids.iter()
            .map(|id| stream[id.0 as usize].coords.clone())
            .collect()
    };
    let mut members_per_cluster = Vec::new();
    let mut outs = Vec::new();
    for p in &stream {
        pipeline.push(p).unwrap();
        engine.push(p, &mut csgs, &mut outs).unwrap();
        for (_, clusters) in outs.drain(..) {
            for c in clusters {
                if c.population() >= 60 {
                    members_per_cluster.push(MemberSet::new(coords(&c.cores), coords(&c.edges)));
                }
            }
        }
    }
    (pipeline, members_per_cluster)
}

#[test]
fn regenerated_points_stay_within_theta_r_of_originals() {
    let (pipeline, members) = archive_from_stream();
    assert!(!members.is_empty());
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut checked = 0;
    for (pattern, original) in pipeline.base().iter().zip(members.iter()).take(20) {
        let regen = regenerate(&pattern.sgs, &mut rng);
        // Lemma 4.3: mean nearest-neighbor error bounded by θr.
        let err = regeneration_error(original, &regen);
        assert!(err <= 0.5 + 1e-9, "error {err} exceeds θr");
        checked += 1;
    }
    assert!(checked > 0);
}

#[test]
fn regenerated_core_cells_recluster_together() {
    // Re-clustering the regenerated points must reunite each summary's
    // core cells into one cluster (the summary is one component).
    let (pipeline, _) = archive_from_stream();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let query = ClusterQuery::new(0.5, 6, 2, WindowSpec::count(2500, 500).unwrap()).unwrap();
    let mut checked = 0;
    for pattern in pipeline.base().iter().take(10) {
        let core_population: u32 = pattern
            .sgs
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Core)
            .map(|c| c.population)
            .sum();
        if core_population < 80 {
            continue; // sparse summaries may not re-cluster densely
        }
        let regen = regenerate(&pattern.sgs, &mut rng);
        let pts: Vec<(PointId, Point)> = regen
            .iter_all()
            .enumerate()
            .map(|(i, p)| (PointId(i as u32), Point::new(p.to_vec(), 0)))
            .collect();
        let clusters = cluster_snapshot(&pts, &query);
        assert!(
            !clusters.is_empty(),
            "regenerated points formed no cluster at all"
        );
        // The dominant regenerated cluster must hold the majority of the
        // core population.
        let biggest = clusters.iter().map(|c| c.population()).max().unwrap();
        assert!(
            biggest * 2 >= core_population as usize,
            "dominant regenerated cluster {biggest} vs core population {core_population}"
        );
        checked += 1;
    }
    assert!(checked > 0, "no summary was dense enough to check");
}
