//! Stress acceptance tests for the shared work-stealing scheduler
//! (`DESIGN.md` §8): determinism and lifecycle semantics must survive
//! heavy multiplexing — many more ready queries than pool workers, with
//! small input queues forcing constant parking/rescheduling.

use streamsum::core::PoolThreads;
use streamsum::prelude::*;
use streamsum::runtime::RuntimeConfig;

/// 32 distinct DETECT statements cycling through θ and window
/// geometries (each a valid win = k·slide pair).
fn statements() -> Vec<String> {
    let cases = [(0.6, 8u32), (0.4, 5), (0.8, 10), (0.5, 6)];
    (0..32)
        .map(|i| {
            let (theta_r, theta_c) = cases[i % cases.len()];
            let slide = 200 + 25 * (i as u64 % 8); // 200..375
            let win = slide * (3 + i as u64 % 3); // 3–5 views
            format!(
                "DETECT DensityBasedClusters f+s FROM gmti \
                 USING theta_range = {theta_r} AND theta_cnt = {theta_c} \
                 IN Windows WITH win = {win} AND slide = {slide}"
            )
        })
        .collect()
}

fn stream(n: usize) -> Vec<Point> {
    generate_gmti(&GmtiConfig {
        n_records: n,
        n_convoys: 4,
        ..GmtiConfig::default()
    })
}

/// 32 concurrent queries multiplexed over a two-worker pool, with input
/// queues far smaller than the stream: every query parks and reschedules
/// constantly, work is stolen across both workers, and yet each query's
/// archive is byte-identical to a solo pipeline run.
#[test]
fn thirty_two_queries_on_two_workers_archive_byte_identically() {
    let stream = stream(4000);
    let statements = statements();

    let mut rt = Runtime::with_config(RuntimeConfig {
        pool_threads: PoolThreads::Fixed(2),
        channel_capacity: 4, // tiny: constant backpressure + parking
        ..RuntimeConfig::default()
    });
    assert_eq!(rt.pool().threads(), 2);
    rt.register_stream("gmti", 2);

    // Solo reference runs (the classic single-query path).
    let mut solo_bases = Vec::new();
    for text in &statements {
        let QueryPlan::Detect(plan) = rt.plan(text).unwrap() else {
            panic!("expected detect plan");
        };
        let mut pipeline =
            StreamPipeline::new(plan.query.clone(), plan.policy.clone(), plan.seed).unwrap();
        pipeline.push_batch(stream.iter().cloned()).unwrap();
        solo_bases.push(pipeline.into_base());
    }
    assert!(
        solo_bases.iter().any(|b| !b.is_empty()),
        "workload must archive something"
    );

    // Concurrent run: all 32 at once, fed in ragged batches.
    let mut ids = Vec::new();
    for text in &statements {
        let Submission::Continuous(id) = rt.submit(text).unwrap() else {
            panic!("expected continuous registration");
        };
        ids.push(id);
    }
    for chunk in stream.chunks(479) {
        rt.push_batch(chunk).unwrap();
    }
    rt.quiesce().unwrap();

    let mut named = Vec::new();
    for (id, solo) in ids.into_iter().zip(&solo_bases) {
        let report = rt.cancel(id).unwrap();
        let history = rt.history(2).unwrap().read();
        assert_eq!(report.stats.points, stream.len() as u64, "{id}");
        assert_eq!(report.archived.len(), solo.len(), "{id}: archive count");
        assert_eq!(report.archived.len() as u64, report.stats.archived, "{id}");
        assert_eq!(report.stats.archive_bytes, solo.archived_bytes(), "{id}");
        assert!(
            report.archived.windows(2).all(|w| w[0] < w[1]),
            "{id}: pattern ids not strictly increasing"
        );
        for (pattern, reference) in report.archived.iter().zip(solo.iter()) {
            let concurrent = history.get(*pattern).expect("a reported id resolves");
            assert_eq!(concurrent.window, reference.window, "{id}");
            assert_eq!(
                concurrent.sgs, reference.sgs,
                "{id}: archived summary differs in window {}",
                reference.window
            );
        }
        named.extend(report.archived);
    }

    // Each pattern of the shared history is named by exactly one report.
    named.sort_unstable();
    let total = rt.history(2).unwrap().read().len();
    assert!(
        named.iter().map(|id| id.0).eq(0..total as u64),
        "the 32 id lists do not partition the history"
    );
}

/// Pause/resume while input is still queued and the pool is saturated:
/// the pause gates *ingestion* (points pushed while paused are a stream
/// gap), never queued work — so the paused query's final archive equals
/// a solo run over the stream minus the gap, byte for byte.
#[test]
fn pause_resume_under_load_keeps_exact_gap_semantics() {
    let stream = stream(3600);
    let (a, b) = (1200, 2400); // pause window: [a, b) is the gap
    let text = "DETECT DensityBasedClusters f+s FROM gmti \
                USING theta_range = 0.6 AND theta_cnt = 8 \
                IN Windows WITH win = 600 AND slide = 150";

    let mut rt = Runtime::with_config(RuntimeConfig {
        pool_threads: PoolThreads::Fixed(2),
        channel_capacity: 4,
        ..RuntimeConfig::default()
    });
    rt.register_stream("gmti", 2);

    // Solo reference over the gapped stream.
    let QueryPlan::Detect(plan) = rt.plan(text).unwrap() else {
        panic!("expected detect plan");
    };
    let mut solo = StreamPipeline::new(plan.query.clone(), plan.policy.clone(), plan.seed).unwrap();
    solo.push_batch(stream[..a].iter().cloned()).unwrap();
    solo.push_batch(stream[b..].iter().cloned()).unwrap();
    let solo_base = solo.into_base();

    // Load: three background peers keep both workers busy throughout.
    let mut peers = Vec::new();
    for _ in 0..3 {
        let Submission::Continuous(id) = rt.submit(text).unwrap() else {
            panic!()
        };
        peers.push(id);
    }
    let Submission::Continuous(id) = rt.submit(text).unwrap() else {
        panic!()
    };

    // Push the first leg in small chunks and pause *without* quiescing:
    // input may still sit queued when the pause lands — it must all be
    // processed (pause gates ingestion, not queued work).
    for chunk in stream[..a].chunks(97) {
        rt.push_batch(chunk).unwrap();
    }
    rt.pause(id).unwrap();
    assert_eq!(rt.state(id).unwrap(), QueryState::Paused);
    for chunk in stream[a..b].chunks(97) {
        rt.push_batch(chunk).unwrap();
    }
    rt.resume(id).unwrap();
    for chunk in stream[b..].chunks(97) {
        rt.push_batch(chunk).unwrap();
    }
    rt.quiesce().unwrap();

    // The paused query saw exactly the gapped stream…
    assert_eq!(
        rt.stats(id).unwrap().points,
        (stream.len() - (b - a)) as u64
    );
    let report = rt.cancel(id).unwrap();
    assert_eq!(report.archived.len(), solo_base.len());
    assert_eq!(report.archived.len() as u64, report.stats.archived);
    assert_eq!(report.stats.archive_bytes, solo_base.archived_bytes());
    assert!(report.archived.windows(2).all(|w| w[0] < w[1]));
    let history = rt.history(2).unwrap().read();
    for (pattern, reference) in report.archived.iter().zip(solo_base.iter()) {
        let concurrent = history.get(*pattern).expect("a reported id resolves");
        assert_eq!(concurrent.window, reference.window);
        assert_eq!(concurrent.sgs, reference.sgs);
    }
    // …while its never-paused peers saw everything.
    for id in peers {
        assert_eq!(rt.stats(id).unwrap().points, stream.len() as u64);
    }
}
