//! Sharded extraction scaling (`DESIGN.md` §6): sustained single-query
//! C-SGS throughput (tuples/sec) as the extraction shard count grows
//! through S ∈ {1, 2, 4, 8}, on the Fig. 7 workload (win = 10K tuples,
//! slide = 1K, pattern case 2 of §8.1).
//!
//! Where `pool_scaling` scales *across* concurrent queries, this
//! harness scales *within* one hot query: the same stream, the same
//! window geometry, only `ClusterQuery::shards` varies. The per-window
//! outputs are byte-identical across S (the sharded-extraction
//! determinism contract), which the harness spot-checks via window and
//! cluster counts.
//!
//! ```text
//! cargo run --release -p sgs-bench --bin shard_scaling -- [--scale 0.1] [--dataset gmti|stt] [--json]
//! ```
//!
//! `--json` prints one machine-readable report object to stdout instead
//! of the table (CI uploads it as `BENCH_shard_scaling.json`). Expect
//! near-linear speedup up to the machine's core count; on a single-core
//! runner every S reports roughly the S = 1 rate.

use std::time::Instant;

use sgs_bench::json::JsonObject;
use sgs_bench::obs_report::{metrics_json, parse_metrics};
use sgs_bench::table::print_table;
use sgs_bench::workload::{parse_dataset, parse_scale, Dataset};
use sgs_core::{ClusterQuery, ShardCount, WindowSpec};
use sgs_csgs::CSgs;
use sgs_stream::WindowEngine;

struct Row {
    shards: u32,
    tuples_per_sec: f64,
    speedup: f64,
    windows: u64,
    clusters: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    let dataset = parse_dataset(&args);
    let json = args.iter().any(|a| a == "--json");
    let metrics = parse_metrics(&args);

    // Fig. 7 geometry: win = 10K tuples, slide = 1K, scaled down for
    // quick runs; pattern case 2 (§8.1) of the chosen dataset.
    let slide = ((1_000.0 * scale) as u64).max(40);
    let win = slide * 10;
    let (theta_r, theta_c) = dataset.cases()[1];
    let n_windows = 12u64;
    let n = (slide * n_windows + 2 * win) as usize;
    let points = dataset.points(n);
    let spec = WindowSpec::count(win, slide).expect("valid window");

    let mut rows: Vec<Row> = Vec::new();
    for s in [1u32, 2, 4, 8] {
        let query = ClusterQuery::new(theta_r, theta_c, dataset.dim(), spec)
            .expect("valid query")
            .with_shards(ShardCount::Fixed(s));
        let mut csgs = CSgs::new(query);
        let mut engine = WindowEngine::new(spec, dataset.dim());
        let mut outs = Vec::new();
        let start = Instant::now();
        engine
            .push_batch(points.iter().cloned(), &mut csgs, &mut outs)
            .expect("ingest succeeds");
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(csgs.rqs_count, n as u64, "one RQS per object");

        let windows = outs.len() as u64;
        let clusters: u64 = outs.iter().map(|(_, o)| o.len() as u64).sum();
        if let Some(base) = rows.first() {
            // Shard-invariance spot check against the S = 1 run.
            assert_eq!(windows, base.windows, "window count diverged at S = {s}");
            assert_eq!(clusters, base.clusters, "cluster count diverged at S = {s}");
        }
        let rate = n as f64 / secs;
        let speedup = rows.first().map_or(1.0, |base| rate / base.tuples_per_sec);
        rows.push(Row {
            shards: s,
            tuples_per_sec: rate,
            speedup,
            windows,
            clusters,
        });
    }

    let stream_name = match dataset {
        Dataset::Gmti => "gmti",
        Dataset::Stt => "stt",
    };
    if json {
        let json_rows: Vec<JsonObject> = rows
            .iter()
            .map(|r| {
                JsonObject::new()
                    .u64("shards", r.shards as u64)
                    .f64("tuples_per_sec", r.tuples_per_sec)
                    .f64("speedup", r.speedup)
                    .u64("windows", r.windows)
                    .u64("clusters", r.clusters)
            })
            .collect();
        let report = JsonObject::new()
            .str("bench", "shard_scaling")
            .str("dataset", stream_name)
            .u64("tuples", n as u64)
            .u64("win", win)
            .u64("slide", slide)
            .f64("theta_r", theta_r)
            .u64("theta_c", theta_c as u64)
            .u64(
                "available_parallelism",
                std::thread::available_parallelism().map_or(0, |p| p.get() as u64),
            )
            .u64("pool_threads", sgs_exec::global().threads() as u64)
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
                    r.shards.to_string(),
                    format!("{:.0}", r.tuples_per_sec),
                    format!("{:.2}x", r.speedup),
                    r.windows.to_string(),
                    r.clusters.to_string(),
                ]
            })
            .collect();
        print_table(
            &format!(
                "sharded extraction scaling — {n} tuples of {stream_name}, \
                 win {win} / slide {slide}, θr={theta_r}, θc={theta_c}"
            ),
            &["shards", "tuples/s", "speedup", "windows", "clusters"],
            &table,
        );
    }
}
