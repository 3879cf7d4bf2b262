//! Every deployment shape gives the same answers: a runtime whose shared
//! history is durable (`RuntimeConfig::durable_archive`) archives, delivers
//! and answers MATCH exactly as a memory-only one (`DESIGN.md` §10). The
//! archive stores each summary in the lossless encoding the wire sends, so
//! nothing a memory-only history holds is lost on the way to disk.

use std::path::PathBuf;

use streamsum::prelude::*;
use streamsum::runtime::DurableArchive;

/// The `match_under_ingest` benchmark workload's MATCH statement.
const MATCH: &str = "GIVEN DensityBasedClusters Cq \
                     SELECT DensityBasedClusters FROM History WHERE Distance(Cq, Cq) <= 0.15";

/// A fresh directory for one durable history.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgs-shapes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A runtime over `stream` (of `dim` dimensions) with one DETECT query,
/// its history durable under `durable` or in memory only, after the
/// whole stream was pushed.
fn run(
    durable: Option<PathBuf>,
    stream: (&str, usize, &[Point]),
    detect: &str,
) -> (Runtime, QueryId) {
    let mut rt = Runtime::with_config(RuntimeConfig {
        durable_archive: durable.map(DurableArchive::at),
        ..RuntimeConfig::default()
    });
    let (name, dim, points) = stream;
    rt.register_stream(name, dim);
    let Submission::Continuous(id) = rt.submit(detect).unwrap() else {
        panic!("expected continuous registration");
    };
    rt.push_stream(name, points).unwrap();
    rt.quiesce().unwrap();
    (rt, id)
}

/// Every cluster of every window, bound as the MATCH query, answers the
/// same ids and distance bits over a durable history as over a
/// memory-only one — and finds its own archived twin at distance 0.
#[test]
fn match_answers_do_not_depend_on_where_the_history_lives() {
    let detect = "DETECT DensityBasedClusters f+s FROM gmti \
                  USING theta_range = 0.6 AND theta_cnt = 8 \
                  IN Windows WITH win = 2000 AND slide = 500";
    let points = generate_gmti(&GmtiConfig {
        n_records: 6000,
        ..GmtiConfig::default()
    });
    let dir = fresh_dir("match");
    let answers = |durable: Option<PathBuf>| {
        let (mut rt, id) = run(durable, ("gmti", 2, &points), detect);
        let windows = rt.poll(id).unwrap();
        let mut answers = Vec::new();
        for (window, clusters) in &windows {
            for cluster in clusters {
                rt.bind_cluster("Cq", cluster.sgs.clone());
                let Submission::Matches(outcome) = rt.submit(MATCH).unwrap() else {
                    panic!("a GIVEN statement answers at once");
                };
                let found: Vec<(PatternId, u64)> = outcome
                    .matches
                    .iter()
                    .map(|m| (m.id, m.distance.to_bits()))
                    .collect();
                let history = rt.history(2).unwrap().read();
                assert!(
                    outcome.matches.iter().any(|m| m.distance == 0.0
                        && history.get(m.id).is_some_and(|p| p.window == *window)),
                    "window {window:?}: the query's own archived twin was not found"
                );
                answers.push(found);
            }
        }
        assert!(answers.len() > 10, "the run must ask enough MATCHes");
        answers
    };
    let memory = answers(None);
    let durable = answers(Some(dir.clone()));
    assert_eq!(
        durable, memory,
        "MATCH answered differently over a durable history"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A dense blob in 9 dimensions, drifting one step per window.
fn nine_d_stream(n: u64, win: u64) -> Vec<Point> {
    (0..n)
        .map(|ts| {
            let coords: Vec<f64> = (0..9)
                .map(|d| (ts / win) as f64 * 10.0 + ((ts + d) % 3) as f64 * 0.02)
                .collect();
            Point::new(coords, ts)
        })
        .collect()
}

/// Summaries have no dimensionality cap, in memory or on disk: a 9-d
/// stream over a durable history archives and delivers every window, the
/// same as over a memory-only one.
#[test]
fn a_nine_dimensional_stream_archives_durably() {
    let detect = "DETECT DensityBasedClusters f+s FROM s9 \
                  USING theta_range = 0.5 AND theta_cnt = 1 \
                  IN Windows WITH win = 2 AND slide = 2";
    // A range query walks all 7⁸ rows of a 9-d reachability block, so a
    // few points are all a debug build can afford.
    let points = nine_d_stream(5, 2);
    let dir = fresh_dir("nine");
    let shape = |durable: Option<PathBuf>| {
        let (rt, id) = run(durable, ("s9", 9, &points), detect);
        let stats = rt.stats(id).unwrap();
        assert_eq!(
            rt.state(id).unwrap(),
            QueryState::Running,
            "{:?}",
            stats.error
        );
        let windows = rt.poll(id).unwrap();
        let history = rt.history(9).unwrap().read().snapshot_bytes();
        (windows, stats.archived, history)
    };
    let memory = shape(None);
    assert_eq!(memory.0.len(), 2, "every window is delivered");
    assert!(memory.1 > 0, "the run must archive something");
    let durable = shape(Some(dir.clone()));
    assert!(durable == memory, "the durable run diverged from memory");
    std::fs::remove_dir_all(&dir).ok();
}
