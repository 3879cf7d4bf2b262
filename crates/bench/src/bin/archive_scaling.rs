//! Durable-archive scaling (`DESIGN.md` §10): what the WAL + checkpoint
//! tier costs over the memory-only pattern base, and how fast recovery
//! replays an archive back into memory.
//!
//! For both modes — `memory` (the pre-durability baseline) and `durable`
//! — the harness inserts N and 2N study summaries, then (durable)
//! checkpoints and reopens the directory, timing the recovery replay.
//!
//! ```text
//! cargo run --release -p sgs-bench --bin archive_scaling -- [--scale 0.1] [--json]
//! ```
//!
//! `--json` prints one machine-readable report object to stdout instead
//! of the table (CI uploads it as `BENCH_archive.json`).

use std::path::PathBuf;
use std::time::Instant;

use sgs_archive::{DurableConfig, DurablePatternBase};
use sgs_bench::json::JsonObject;
use sgs_bench::obs_report::{metrics_json, parse_metrics};
use sgs_bench::table::print_table;
use sgs_bench::workload::parse_scale;
use sgs_core::{GridGeometry, WindowId};
use sgs_summarize::{MemberSet, Sgs};

struct Row {
    mode: &'static str,
    patterns: u64,
    insert_per_sec: f64,
    checkpoint_ms: f64,
    recover_per_sec: f64,
    archived_bytes: u64,
}

/// The archive_roundtrip study workload: 2-d summaries of varying core
/// counts, far enough apart that every one survives as its own pattern.
fn study_summaries(n: usize) -> Vec<Sgs> {
    let g = GridGeometry::basic(2, 1.0);
    (0..n)
        .map(|k| {
            let x0 = (k as f64) * 9.0;
            let cores: Vec<Box<[f64]>> = (0..40 + (k % 7) * 10)
                .map(|i| {
                    vec![
                        x0 + 0.05 + (i % 8) as f64 * 0.3,
                        0.05 + (i / 8) as f64 * 0.3,
                    ]
                    .into()
                })
                .collect();
            Sgs::from_members(&MemberSet::new(cores, vec![]), &g)
        })
        .collect()
}

fn bench_dir(mode: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sgs_bench_archive_{}_{mode}", std::process::id()))
}

fn run_mode(durable: bool, summaries: &[Sgs]) -> Row {
    let mode = if durable { "durable" } else { "memory" };
    let cfg = DurableConfig::default();
    let (mut base, dir) = if durable {
        let dir = bench_dir(mode);
        let _ = std::fs::remove_dir_all(&dir);
        (
            DurablePatternBase::open(&dir, cfg.clone()).expect("open archive dir"),
            Some(dir),
        )
    } else {
        (DurablePatternBase::memory(), None)
    };

    let start = Instant::now();
    for (k, s) in summaries.iter().enumerate() {
        base.try_insert(s.clone(), WindowId(k as u64))
            .expect("durable insert");
    }
    let insert_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    base.checkpoint().expect("checkpoint");
    let checkpoint_ms = if base.is_durable() {
        start.elapsed().as_secs_f64() * 1e3
    } else {
        0.0
    };
    let archived_bytes = base.archived_bytes() as u64;
    drop(base);

    let recover_per_sec = match &dir {
        None => 0.0,
        Some(dir) => {
            let start = Instant::now();
            let recovered = DurablePatternBase::open(dir, cfg).expect("recover archive dir");
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(recovered.len(), summaries.len(), "recovery lost patterns");
            summaries.len() as f64 / secs
        }
    };
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    Row {
        mode,
        patterns: summaries.len() as u64,
        insert_per_sec: summaries.len() as f64 / insert_secs,
        checkpoint_ms,
        recover_per_sec,
        archived_bytes,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    let json = args.iter().any(|a| a == "--json");
    let metrics = parse_metrics(&args);
    let n = ((2_000.0 * scale) as usize).max(100);

    let mut rows = Vec::new();
    for count in [n, 2 * n] {
        let summaries = study_summaries(count);
        for durable in [false, true] {
            rows.push(run_mode(durable, &summaries));
        }
    }

    if json {
        let json_rows: Vec<JsonObject> = rows
            .iter()
            .map(|r| {
                JsonObject::new()
                    .str("mode", r.mode)
                    .u64("patterns", r.patterns)
                    .f64("insert_per_sec", r.insert_per_sec)
                    .f64("checkpoint_ms", r.checkpoint_ms)
                    .f64("recover_per_sec", r.recover_per_sec)
                    .u64("archived_bytes", r.archived_bytes)
            })
            .collect();
        let report = JsonObject::new()
            .str("bench", "archive_scaling")
            .u64("patterns_base", n as u64)
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
                    r.mode.to_string(),
                    r.patterns.to_string(),
                    format!("{:.0}", r.insert_per_sec),
                    format!("{:.2}", r.checkpoint_ms),
                    format!("{:.0}", r.recover_per_sec),
                    r.archived_bytes.to_string(),
                ]
            })
            .collect();
        print_table(
            &format!("durable archive scaling — {n} / {} study summaries", 2 * n),
            &[
                "mode",
                "patterns",
                "inserts/s",
                "checkpoint ms",
                "recovered/s",
                "archived bytes",
            ],
            &table,
        );
    }
}
