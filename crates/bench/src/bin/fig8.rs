//! Fig. 8 — matching and storage over archives of 0.1K / 1K / 10K
//! clusters, each archive built once (§8.2):
//!
//! - (left) average response time of cluster matching queries for each
//!   summarization format, SGS both filtered and refined exhaustively
//!   (§7.2's filter-and-refine ablation, DESIGN.md §3), plus the
//!   filter-effectiveness statistic ("only ~6 % of candidates needed the
//!   grid-level match");
//! - (right) memory to store each archive as SGS vs the full
//!   representation, the average cells per cluster and the compression
//!   rate (paper: 23 B/cell, ~68 cells/cluster, ~98 % compression);
//! - the anytime alignment budget (§7.2): the distance found, the
//!   alignments the search evaluated and the time spent as the search is
//!   given more evaluations, on the largest archive's first two queries.
//!
//! ```text
//! cargo run --release -p sgs-bench --bin fig8 [-- --scale 0.5]
//! ```
//!
//! Expected shape (paper): SGS matching is fast (comparable with trivial
//! CRD subtraction, ~3 s at 10K in the paper's setup) while RSP and SkPS
//! matching are far slower; the SGS filter phase prunes most candidates.

use std::time::Instant;

use sgs_bench::harness::build_archive;
use sgs_bench::table::{fmt_bytes, fmt_ms, print_table};
use sgs_bench::workload::{scaled_window, Args};
use sgs_core::{ClusterQuery, WindowSpec};
use sgs_matching::{best_alignment, chamfer_distance, graph_edit_distance, MatchConfig};
use sgs_summarize::{packed, Sgs};

/// Mean wall-clock milliseconds per query of calling `f` on each query.
fn per_query_ms<T>(queries: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for q in queries {
        f(q);
    }
    t.elapsed().as_secs_f64() * 1e3 / queries.len() as f64
}

fn main() {
    let Args { scale, dataset, .. } = Args::from_env();

    // Paper setting: case 2 (θr = 0.1, θc = 8), win = 10K, slide = 1K.
    let (theta_r, theta_c) = dataset.cases()[1];
    let win = scaled_window(10_000, scale, 500, 10);
    let spec = WindowSpec::count(win, win / 10).expect("the window is a multiple of 10");
    let query = ClusterQuery::new(theta_r, theta_c, dataset.dim(), spec).expect("valid query");

    let archive_sizes = [
        (100.0 * scale).max(20.0) as usize,
        (1_000.0 * scale).max(50.0) as usize,
        (10_000.0 * scale).max(100.0) as usize,
    ];
    let n_queries = ((100.0 * scale) as usize).clamp(10, 100);
    let config = MatchConfig::equal_weights(false, 0.15);

    println!(
        "Fig. 8 (left): matching response time — dataset {dataset:?}, \
         case 2, {n_queries} queries per archive size"
    );
    let mut storage_rows = Vec::new();
    let mut budget_pair: Option<(Sgs, Sgs)> = None;
    for &n in &archive_sizes {
        // Generous stream: archives fill at a few clusters per window.
        let points = dataset.points((win as usize) * (4 + n / 2));
        let bundle = build_archive(&query, &points, n, n_queries);
        if !bundle.base.is_empty() {
            let sgs_bytes = bundle.base.archived_bytes();
            let full_bytes = bundle.full_repr_bytes;
            let cells: usize = bundle.base.iter().map(|p| p.sgs.volume()).sum();
            let compression = 100.0 * (1.0 - sgs_bytes as f64 / full_bytes as f64);
            storage_rows.push(vec![
                bundle.base.len().to_string(),
                fmt_bytes(sgs_bytes),
                fmt_bytes(full_bytes),
                format!("{:.1}", cells as f64 / bundle.base.len() as f64),
                format!("{compression:.1}%"),
            ]);
        }
        if let [a, b, ..] = &bundle.queries[..] {
            budget_pair = Some((a.sgs.clone(), b.sgs.clone()));
        }
        if bundle.base.len() < n || bundle.queries.is_empty() {
            println!(
                "\n[skipped archive size {n}: stream yielded only {} archived / {} queries]",
                bundle.base.len(),
                bundle.queries.len()
            );
            continue;
        }
        let queries = &bundle.queries;
        let per_query = |total: usize| total as f64 / queries.len() as f64;

        let (mut total_candidates, mut total_refined, mut total_matches) = (0, 0, 0);
        let sgs_ms = per_query_ms(queries, |q| {
            let outcome = bundle.base.match_query(&q.sgs, &config);
            total_candidates += outcome.candidates;
            total_refined += outcome.refined;
            total_matches += outcome.matches.len();
        });
        let mut exhaustive_refined = 0;
        let exhaustive_ms = per_query_ms(queries, |q| {
            exhaustive_refined += bundle.base.match_query_exhaustive(&q.sgs, &config).refined;
        });
        // CRD: linear scan of three subtractions.
        let crd_ms = per_query_ms(queries, |q| {
            for a in &bundle.alternatives {
                let _ = q.crd.distance(&a.crd);
            }
        });
        // RSP: linear scan of Chamfer set distances.
        let rsp_ms = per_query_ms(queries, |q| {
            for a in &bundle.alternatives {
                let _ = chamfer_distance(&q.rsp, &a.rsp);
            }
        });
        // SkPS: linear scan of bipartite graph edit distances.
        let skps_ms = per_query_ms(queries, |q| {
            for a in &bundle.alternatives {
                let _ = graph_edit_distance(&q.skps, &a.skps);
            }
        });

        let rows = vec![
            vec![
                "SGS (filter+refine)".into(),
                fmt_ms(sgs_ms),
                format!("{:.1}", per_query(total_refined)),
            ],
            vec![
                "SGS (exhaustive refine)".into(),
                fmt_ms(exhaustive_ms),
                format!("{:.1}", per_query(exhaustive_refined)),
            ],
            vec!["CRD (scan)".into(), fmt_ms(crd_ms), "-".into()],
            vec!["RSP (scan)".into(), fmt_ms(rsp_ms), "-".into()],
            vec!["SkPS (scan)".into(), fmt_ms(skps_ms), "-".into()],
        ];
        print_table(
            &format!("archive size {n}"),
            &["format", "avg query time", "refined/query"],
            &rows,
        );
        println!(
            "SGS filter effectiveness: {:.1} candidates/query from the filter scan, \
             {:.1} refined/query ({:.1}% of archive), {:.1} matches/query",
            per_query(total_candidates),
            per_query(total_refined),
            100.0 * total_refined as f64 / (queries.len() * n) as f64,
            per_query(total_matches),
        );
    }

    println!(
        "\nFig. 8 (right): archive storage — dataset {dataset:?}, \
         {} bytes per skeletal cell in {}-d",
        packed::bytes_per_cell(dataset.dim()),
        dataset.dim()
    );
    print_table(
        "storage by archive size",
        &[
            "clusters",
            "SGS bytes",
            "full-repr bytes",
            "cells/cluster",
            "compression",
        ],
        &storage_rows,
    );

    if let Some((a, b)) = &budget_pair {
        const REPS: usize = 20;
        let rows: Vec<Vec<String>> = [4usize, 16, 64, 256, 1024]
            .into_iter()
            .map(|budget| {
                let t = Instant::now();
                let mut found = best_alignment(a, b, budget);
                for _ in 1..REPS {
                    found = best_alignment(a, b, budget);
                }
                let ms = t.elapsed().as_secs_f64() * 1e3 / REPS as f64;
                vec![
                    budget.to_string(),
                    found.evaluated.to_string(),
                    format!("{:.4}", found.distance),
                    fmt_ms(ms),
                ]
            })
            .collect();
        print_table(
            "anytime alignment budget (largest archive's first two queries)",
            &["budget (evals)", "evaluated", "best distance found", "time"],
            &rows,
        );
    }
    println!(
        "\nShape check: SGS within the same order as CRD; RSP and SkPS \
         slower by orders of magnitude; refine rate a small percentage."
    );
    println!(
        "Shape check: compression rate should be high (paper: ~98 %); \
         SGS bytes should scale linearly with archive size."
    );
}
