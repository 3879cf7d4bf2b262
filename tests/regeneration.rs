//! Full-representation regeneration (§1's "re-generation techniques based
//! on pattern summarizations") checked end to end: regenerating from an
//! archived SGS must produce a point set that (a) respects the fidelity
//! lemmas and (b) *re-clusters* into a structure matching the summary.

use rand::SeedableRng;
use streamsum::prelude::*;
use streamsum::summarize::{regenerate, regeneration_error, CellStatus};

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
        pipeline.push(p.clone()).unwrap();
        engine.push(p.clone(), &mut csgs, &mut outs).unwrap();
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
