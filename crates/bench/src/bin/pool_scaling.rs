//! Scheduler-pool scaling (`DESIGN.md` §8): sustained ingest throughput
//! of the `sgs-runtime` multiplexer as **queries × workers** varies —
//! the sweep that shows concurrent queries sharing one pool instead of
//! one OS thread each. The query is the unit of parallelism: each query's
//! extraction is one sequential pass.
//!
//! For every worker count W ∈ {1, 2, 4} a dedicated pool
//! (`RuntimeConfig::pool_threads = Fixed(W)`) runs each query count
//! k ∈ {1, 4, 8} over the same stream, quiescing before the clock stops.
//! Windows are delivered the way served queries receive them, into each
//! query's output buffer, and left there unread: the sweep reports
//! throughput, not memory. With
//! k ≫ W the workers multiplex; expect the processed rate to grow with
//! W up to the machine's core count, and to stay flat (not collapse) as
//! k grows at fixed W.
//!
//! ```text
//! cargo run --release -p sgs-bench --bin pool_scaling -- [--scale 0.1] [--dataset gmti|stt] [--json]
//! ```
//!
//! `--json` prints one machine-readable report object to stdout instead
//! of the table (CI uploads it as `BENCH_pool_scaling.json`).

use std::time::Instant;

use sgs_bench::json::JsonObject;
use sgs_bench::obs_report::{metrics_json, parse_metrics};
use sgs_bench::table::print_table;
use sgs_bench::workload::{parse_dataset, parse_scale, Dataset};
use sgs_core::PoolThreads;
use sgs_runtime::{Runtime, RuntimeConfig, Submission};

struct Row {
    workers: u64,
    queries: u64,
    ingest_per_sec: f64,
    processed_per_sec: f64,
    windows: u64,
    clusters: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    let dataset = parse_dataset(&args);
    let json = args.iter().any(|a| a == "--json");
    let metrics = parse_metrics(&args);
    let n = ((60_000.0 * scale) as usize).max(2_000);
    let points = dataset.points(n);
    let stream_name = match dataset {
        Dataset::Gmti => "gmti",
        Dataset::Stt => "stt",
    };
    // Rounded to a multiple of 4 so `win` is an exact multiple of `slide`.
    let win = (4_000u64.min((n as u64 / 4).max(400)) / 4) * 4;
    let slide = win / 4;

    let mut rows: Vec<Row> = Vec::new();
    for workers in [1usize, 2, 4] {
        for k in [1usize, 4, 8] {
            let mut rt = Runtime::with_config(RuntimeConfig {
                channel_capacity: 64,
                pool_threads: PoolThreads::Fixed(workers as u32),
                ..RuntimeConfig::default()
            });
            rt.register_stream(stream_name, dataset.dim());
            let mut ids = Vec::with_capacity(k);
            for i in 0..k {
                let (theta_r, theta_c) = dataset.cases()[i % 3];
                let text = format!(
                    "DETECT DensityBasedClusters f+s FROM {stream_name} \
                     USING theta_range = {theta_r} AND theta_cnt = {theta_c} \
                     IN Windows WITH win = {win} AND slide = {slide}"
                );
                let Submission::Continuous(id) = rt.submit(&text).expect("query registers") else {
                    unreachable!("DETECT text registers a continuous query");
                };
                ids.push(id);
            }

            let start = Instant::now();
            rt.push_batch(&points).expect("ingest succeeds");
            rt.quiesce().expect("all queries drain");
            let secs = start.elapsed().as_secs_f64();
            let (mut windows, mut clusters) = (0, 0);
            for id in ids {
                let stats = rt.stats(id).expect("registered query");
                windows += stats.windows;
                clusters += stats.clusters;
            }
            rt.shutdown();

            rows.push(Row {
                workers: workers as u64,
                queries: k as u64,
                ingest_per_sec: n as f64 / secs,
                processed_per_sec: (n * k) as f64 / secs,
                windows,
                clusters,
            });
        }
    }

    if json {
        let json_rows: Vec<JsonObject> = rows
            .iter()
            .map(|r| {
                JsonObject::new()
                    .u64("workers", r.workers)
                    .u64("queries", r.queries)
                    .f64("ingest_tuples_per_sec", r.ingest_per_sec)
                    .f64("processed_tuples_per_sec", r.processed_per_sec)
                    .u64("windows", r.windows)
                    .u64("clusters", r.clusters)
            })
            .collect();
        let report = JsonObject::new()
            .str("bench", "pool_scaling")
            .str("dataset", stream_name)
            .u64("tuples", n as u64)
            .u64("win", win)
            .u64("slide", slide)
            .u64(
                "available_parallelism",
                std::thread::available_parallelism().map_or(0, |p| p.get() as u64),
            )
            .u64("metrics_enabled", metrics as u64)
            .array("rows", &json_rows)
            .array("metrics", &metrics_json())
            .render();
        println!("{report}");
    } else {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.workers.to_string(),
                    r.queries.to_string(),
                    format!("{:.0}", r.ingest_per_sec),
                    format!("{:.0}", r.processed_per_sec),
                    r.windows.to_string(),
                    r.clusters.to_string(),
                ]
            })
            .collect();
        print_table(
            &format!(
                "scheduler pool scaling — {n} tuples of {stream_name}, win {win} / slide {slide}"
            ),
            &[
                "workers",
                "queries",
                "ingest tuples/s",
                "processed tuples/s",
                "windows",
                "clusters",
            ],
            &table,
        );
    }
}
