//! Acceptance test for the runtime's determinism guarantee: with k = 3
//! concurrent DETECT queries fanned out from one stream, each query's
//! archived summaries are **identical** (whole `Sgs` values) to a solo
//! `StreamPipeline` run of the same query over the same points — the
//! fan-out changes scheduling, never results. A query's summaries are the
//! ones its report names in the shared history, the only copy there is.

use streamsum::prelude::*;

const STATEMENTS: [&str; 3] = [
    "DETECT DensityBasedClusters f+s FROM gmti \
     USING theta_range = 0.6 AND theta_cnt = 8 \
     IN Windows WITH win = 2000 AND slide = 500",
    "DETECT DensityBasedClusters f+s FROM gmti \
     USING theta_range = 0.4 AND theta_cnt = 5 \
     IN Windows WITH win = 1500 AND slide = 300",
    "DETECT DensityBasedClusters f+s FROM gmti \
     USING theta_range = 0.8 AND theta_cnt = 10 \
     IN Windows WITH win = 1000 AND slide = 250",
];

#[test]
fn concurrent_queries_archive_byte_identically_to_solo_runs() {
    let stream = generate_gmti(&GmtiConfig {
        n_records: 8000,
        n_convoys: 4,
        ..GmtiConfig::default()
    });

    // --- Solo reference runs: one StreamPipeline per query, points pushed
    // one at a time (the classic single-query path).
    let mut rt = Runtime::new();
    rt.register_stream("gmti", 2);
    let mut solo_bases = Vec::new();
    for text in STATEMENTS {
        let QueryPlan::Detect(plan) = rt.plan(text).unwrap() else {
            panic!("expected detect plan");
        };
        let mut pipeline =
            StreamPipeline::new(plan.query.clone(), plan.policy.clone(), plan.seed).unwrap();
        for p in stream.clone() {
            pipeline.push(p).unwrap();
        }
        solo_bases.push(pipeline.into_base());
    }

    // --- Concurrent run: all three registered at once, fed in batches
    // through the executor's pool-multiplexed query tasks.
    let mut ids = Vec::new();
    for text in STATEMENTS {
        let Submission::Continuous(id) = rt.submit(text).unwrap() else {
            panic!("expected continuous registration");
        };
        ids.push(id);
    }
    rt.push_batch(&stream).unwrap();
    rt.quiesce().unwrap();

    let mut named = Vec::new();
    for (id, solo) in ids.into_iter().zip(&solo_bases) {
        let report = rt.cancel(id).unwrap();
        let history = rt.history(2).unwrap().read();
        assert!(!solo.is_empty(), "reference run must archive something");
        assert_eq!(
            report.archived.len(),
            solo.len(),
            "{id}: archived pattern count differs from solo run"
        );
        assert_eq!(report.archived.len() as u64, report.stats.archived, "{id}");
        assert_eq!(
            report.stats.archive_bytes,
            solo.archived_bytes(),
            "{id}: archive bytes differ from solo run"
        );
        assert!(
            report.archived.windows(2).all(|w| w[0] < w[1]),
            "{id}: pattern ids not strictly increasing"
        );
        for (pattern, reference) in report.archived.iter().zip(solo.iter()) {
            let concurrent = history.get(*pattern).expect("a reported id resolves");
            assert_eq!(
                concurrent.window, reference.window,
                "{id}: window id differs"
            );
            assert_eq!(
                concurrent.sgs, reference.sgs,
                "{id}: archived summary differs in window {}",
                reference.window
            );
        }
        named.extend(report.archived);
    }

    // The shared 2-d history holds the union of all three archives, each
    // pattern named by exactly one report.
    let total: usize = solo_bases.iter().map(|b| b.len()).sum();
    assert_eq!(rt.history(2).unwrap().read().len(), total);
    named.sort_unstable();
    assert!(
        named.iter().map(|id| id.0).eq(0..total as u64),
        "the three id lists do not partition the history"
    );
}

/// A durable-backed shared history is
/// **byte-identical** to the memory-only one — and reopening the archive
/// directory recovers exactly those bytes (`DESIGN.md` §10).
#[test]
fn durable_history_matches_memory_only_and_recovers() {
    use streamsum::archive::{DurableConfig, DurablePatternBase};
    use streamsum::runtime::DurableArchive;

    let stream = generate_gmti(&GmtiConfig {
        n_records: 4000,
        n_convoys: 3,
        ..GmtiConfig::default()
    });
    let run = |config: RuntimeConfig| {
        let mut rt = Runtime::with_config(config);
        rt.register_stream("gmti", 2);
        let Submission::Continuous(_) = rt.submit(STATEMENTS[0]).unwrap() else {
            panic!("expected continuous registration");
        };
        rt.push_batch(&stream).unwrap();
        rt.quiesce().unwrap();
        let guard = rt.history(2).unwrap().read();
        assert!(!guard.is_empty(), "the run must archive something");
        guard.snapshot_bytes()
    };

    let memory = run(RuntimeConfig::default());

    let dir = std::env::temp_dir().join(format!("sgs_rt_durable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = run(RuntimeConfig {
        durable_archive: Some(DurableArchive::at(dir.clone())),
        ..RuntimeConfig::default()
    });
    assert_eq!(
        durable, memory,
        "durable-backed history diverged from memory-only run"
    );

    // The WAL alone (no checkpoint ever ran) recovers the same bytes.
    let recovered = DurablePatternBase::open(dir.join("dim2"), DurableConfig::default()).unwrap();
    assert_eq!(
        recovered.snapshot_bytes(),
        memory,
        "recovered history diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}
