//! The determinism contract of sharded extraction (`DESIGN.md` §6):
//! for arbitrary random streams, dimensionalities, window geometries, and
//! batch sizes — per-point pushes, batches the sequential path takes, and
//! batches the parallel phases take — the per-window [`WindowOutput`] of
//! C-SGS is **byte-identical** for every shard count, and each object
//! costs exactly one range-query search regardless of sharding.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sgs_core::{ClusterQuery, Point, ShardCount, WindowId, WindowSpec};
use sgs_csgs::{CSgs, WindowOutput};
use sgs_stream::WindowEngine;

/// `n` points of `dim` dimensions: the first two coordinates uniform over
/// `0..extent`, any further ones over `0..thin` — a slab a few cells
/// thick, so higher-dimensional streams stay dense enough to cluster.
fn random_stream(seed: u64, n: usize, dim: usize, extent: f64, thin: f64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let coords: Vec<f64> = (0..dim)
                .map(|i| rng.gen_range(0.0..if i < 2 { extent } else { thin }))
                .collect();
            Point::new(coords, 0)
        })
        .collect()
}

/// Run the stream through a fresh extractor with `shards`, pushing
/// `chunk`-sized batches (`None`: one [`WindowEngine::push`] per point),
/// returning all windows plus the extractor.
fn run_full(
    pts: &[Point],
    spec: WindowSpec,
    theta_r: f64,
    theta_c: u32,
    shards: ShardCount,
    chunk: Option<usize>,
) -> (Vec<(WindowId, WindowOutput)>, CSgs) {
    let dim = pts[0].dim();
    let query = ClusterQuery::new(theta_r, theta_c, dim, spec)
        .unwrap()
        .with_shards(shards);
    let mut csgs = CSgs::new(query);
    let mut engine = WindowEngine::new(spec, dim);
    let mut outs = Vec::new();
    match chunk {
        Some(chunk) => {
            for c in pts.chunks(chunk) {
                engine
                    .push_batch(c.iter().cloned(), &mut csgs, &mut outs)
                    .unwrap();
            }
        }
        None => {
            for p in pts {
                engine.push(p.clone(), &mut csgs, &mut outs).unwrap();
            }
        }
    }
    (outs, csgs)
}

/// Like [`run_full`] but returning only the windows plus the RQS count.
fn run(
    pts: &[Point],
    spec: WindowSpec,
    theta_r: f64,
    theta_c: u32,
    shards: ShardCount,
    chunk: Option<usize>,
) -> (Vec<(WindowId, WindowOutput)>, u64) {
    let (outs, csgs) = run_full(pts, spec, theta_r, theta_c, shards, chunk);
    (outs, csgs.rqs_count)
}

/// `ShardCount::Auto` (adaptive re-sharding at window boundaries) must
/// sit under the same contract as any fixed count: byte-identical
/// windows, one RQS per object — while actually changing the shard count
/// mid-stream on a workload big enough to trigger adaptation.
#[test]
fn adaptive_shards_are_byte_identical_to_every_fixed_count() {
    let spec = WindowSpec::count(1200, 300).unwrap();
    let (theta_r, theta_c, chunk) = (0.25f64, 3u32, Some(64usize));
    let pts = random_stream(4242, 2600, 2, 3.0, 0.0);
    let (auto_out, auto_csgs) = run_full(&pts, spec, theta_r, theta_c, ShardCount::Auto, chunk);
    assert!(
        auto_csgs.shard_count() > 1,
        "workload must be big enough that the adaptive policy actually \
         re-sharded (still at S = {})",
        auto_csgs.shard_count()
    );
    assert_eq!(auto_csgs.rqs_count, pts.len() as u64, "one RQS per object");
    assert!(
        auto_out.iter().any(|(_, o)| !o.is_empty()),
        "workload must produce clusters"
    );
    for s in [1u32, 2, 4] {
        let (out, rqs) = run(&pts, spec, theta_r, theta_c, ShardCount::Fixed(s), chunk);
        assert_eq!(rqs, pts.len() as u64);
        assert_eq!(auto_out, out, "adaptive output diverged from S = {s}");
    }
}

proptest! {
    /// `WindowOutput` with `S = 1` equals `S ∈ {2, 4}` byte-for-byte —
    /// whether a batch falls below `PAR_BATCH_MIN` (32, the sequential
    /// path), above it (the parallel phases), or every point is pushed on
    /// its own — in 2-d and in the 4-d `stt_insert` shape, and `rqs_count`
    /// stays exactly one per object throughout.
    #[test]
    fn window_output_is_shard_invariant(
        seed in 0u64..10_000,
        n in 150usize..400,
        dim_sel in 0usize..2,
        extent in 0.8f64..3.0,
        theta_r in 0.15f64..0.45,
        theta_c in 2u32..5,
        slide_sel in 0usize..3,
        chunk in 1usize..160,
    ) {
        let slide = [10u64, 20, 40][slide_sel];
        let spec = WindowSpec::count(4 * slide, slide).unwrap();
        let pts = random_stream(seed, n, [2, 4][dim_sel], extent, theta_r);
        let (base, base_rqs) =
            run(&pts, spec, theta_r, theta_c, ShardCount::Fixed(1), Some(chunk));
        prop_assert_eq!(base_rqs, n as u64, "one RQS per object at S = 1");
        let batched = Some(chunk);
        for (s, chunk) in [(1u32, None), (2, batched), (2, None), (4, batched), (4, None)] {
            let (out, rqs) = run(&pts, spec, theta_r, theta_c, ShardCount::Fixed(s), chunk);
            prop_assert_eq!(rqs, n as u64, "one RQS per object at S = {}, {:?}", s, chunk);
            prop_assert_eq!(&base, &out, "WindowOutput diverged at S = {}, {:?}", s, chunk);
        }
    }
}
