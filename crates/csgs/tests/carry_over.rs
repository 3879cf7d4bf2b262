//! The output stage does work for the clusters that changed, and the
//! others are right all the same (`DESIGN.md` §6): on a stream of
//! separated clusters that each live untouched for many windows, with
//! noise arriving elsewhere, most emitted clusters are carried over from
//! the previous window — however the arrivals are batched — and every
//! window is still the clustering a from-scratch DBSCAN finds, summarized
//! as `Sgs::from_members` summarizes it.

use std::collections::HashMap;
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use sgs_cluster::{CanonicalClustering, FullCluster, NaiveClusterer};
use sgs_core::{ClusterQuery, Point, PointId, WindowSpec};
use sgs_csgs::{CSgs, WindowOutput};
use sgs_stream::{replay, WindowEngine};
use sgs_summarize::{CellStatus, MemberSet, Sgs};

const WIN: u64 = 1200;
const SLIDE: u64 = 40;

/// Bursts of twelve points within half a θr of a fresh center on the line
/// `y = 0`, three bursts every 100 arrivals, the rest sparse noise over
/// `y ≥ 50`. A burst is a cluster from its arrival to its expiry `WIN`
/// arrivals later, and nothing else comes near it.
fn stream(n: usize) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut pts = Vec::with_capacity(n);
    let mut bursts = 0;
    while pts.len() < n {
        if pts.len() % 100 < 36 {
            let center = 10.0 * f64::from(bursts);
            bursts += 1;
            for _ in 0..12 {
                let (dx, dy) = (rng.gen_range(-0.25..0.25), rng.gen_range(-0.25..0.25));
                pts.push(Point::new(vec![center + dx, dy], 0));
            }
        } else {
            let (x, y) = (rng.gen_range(0.0..400.0), rng.gen_range(50.0..150.0));
            pts.push(Point::new(vec![x, y], 0));
        }
    }
    pts
}

fn run(pts: &[Point], query: &ClusterQuery) -> (Vec<WindowOutput>, CSgs) {
    let mut csgs = CSgs::new(query.clone());
    let mut engine = WindowEngine::new(query.window, 2);
    let mut outs = Vec::new();
    for chunk in pts.chunks(64) {
        engine.push_batch(chunk, &mut csgs, &mut outs).unwrap();
    }
    (outs.into_iter().map(|(_, out)| out).collect(), csgs)
}

#[test]
fn long_lived_clusters_are_carried_and_every_window_is_still_exact() {
    let spec = WindowSpec::count(WIN, SLIDE).unwrap();
    let query = ClusterQuery::new(1.0, 4, 2, spec).unwrap();
    let pts = stream(4000);

    let (base, csgs) = run(&pts, &query);
    let emitted = base.iter().map(|out| out.len() as u64).sum::<u64>();
    assert_eq!(csgs.carried_count + csgs.rebuilt_count, emitted);
    assert!(
        csgs.rebuilt_count > 0 && csgs.carried_count > 4 * csgs.rebuilt_count,
        "{} carried, {} rebuilt",
        csgs.carried_count,
        csgs.rebuilt_count
    );
    // Whether a cluster changed does not depend on how the arrivals were
    // batched: one point at a time.
    let mut per_point = CSgs::new(query.clone());
    let out = replay(spec, &pts, 2, &mut per_point).unwrap();
    assert_eq!(out.into_iter().map(|(_, o)| o).collect::<Vec<_>>(), base);
    assert_eq!(
        (per_point.carried_count, per_point.rebuilt_count),
        (csgs.carried_count, csgs.rebuilt_count)
    );

    // The clustering: a from-scratch DBSCAN of every window.
    let mut naive = NaiveClusterer::new(query.clone());
    let naive_out = replay(spec, &pts, 2, &mut naive).unwrap();
    assert_eq!(naive_out.len(), base.len());
    let coords_of: HashMap<PointId, Box<[f64]>> = (0u32..)
        .map(PointId)
        .zip(pts.iter().map(|p| p.coords.clone()))
        .collect();
    let geometry = query.basic_grid();
    for ((w, exact), out) in naive_out.into_iter().zip(&base) {
        let full = |c: &Arc<sgs_csgs::ExtractedCluster>| FullCluster {
            cores: c.cores.clone(),
            edges: c.edges.clone(),
        };
        assert_eq!(
            CanonicalClustering::from(exact),
            CanonicalClustering::from(out.iter().map(full).collect::<Vec<_>>()),
            "window {w}"
        );
        // The summary: what the members alone summarize to.
        for cluster in out {
            let of = |ids: &[PointId]| ids.iter().map(|id| coords_of[id].clone()).collect();
            let members = MemberSet::new(of(&cluster.cores), of(&cluster.edges));
            let offline = Sgs::from_members(&members, &geometry);
            cluster.sgs.validate().unwrap();
            assert_eq!(cluster.sgs.cells.len(), offline.cells.len(), "window {w}");
            for (a, b) in cluster.sgs.cells.iter().zip(&offline.cells) {
                assert_eq!(
                    (&a.coord, a.status, &a.connections),
                    (&b.coord, b.status, &b.connections),
                    "window {w}"
                );
                // (An edge cell's population counts its noise objects too.)
                if a.status == CellStatus::Core {
                    assert_eq!(a.population, b.population, "window {w}, {:?}", a.coord);
                }
            }
        }
    }
    assert!(
        base.len() as u64 > 2 * WIN / SLIDE,
        "two generations of bursts"
    );
}
