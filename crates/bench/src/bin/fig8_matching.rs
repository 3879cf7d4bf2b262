//! Fig. 8 (left) — average response time of cluster matching queries
//! against archives of 0.1K / 1K / 10K clusters, for each summarization
//! format (§8.2), plus the filter-effectiveness statistic ("only ~6 % of
//! candidates needed the grid-level match").
//!
//! ```text
//! cargo run --release -p sgs-bench --bin fig8_matching [-- --scale 0.5]
//! ```
//!
//! Expected shape (paper): SGS matching is fast (comparable with trivial
//! CRD subtraction, ~3 s at 10K in the paper's setup) while RSP and SkPS
//! matching are far slower; the SGS filter phase prunes most candidates.

use std::time::Instant;

use sgs_bench::harness::build_archive;
use sgs_bench::table::{fmt_ms, print_table};
use sgs_bench::workload::{parse_dataset, parse_scale};
use sgs_core::{ClusterQuery, WindowSpec};
use sgs_matching::{chamfer_distance, graph_edit_distance, MatchConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dataset = parse_dataset(&args);
    let scale = parse_scale(&args);

    // Paper setting: case 2 (θr = 0.1, θc = 8), win = 10K, slide = 1K.
    let (theta_r, theta_c) = dataset.cases()[1];
    let win = ((10_000.0 * scale) as u64).max(500);
    let spec = WindowSpec::count(win, win / 10).unwrap();
    let query = ClusterQuery::new(theta_r, theta_c, dataset.dim(), spec).unwrap();

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
    for &n in &archive_sizes {
        // Generous stream: archives fill at a few clusters per window.
        let points = dataset.points((win as usize) * (4 + n / 2));
        let bundle = build_archive(&query, &points, n, n_queries);
        if bundle.base.len() < n || bundle.queries.is_empty() {
            println!(
                "\n[skipped archive size {n}: stream yielded only {} archived / {} queries]",
                bundle.base.len(),
                bundle.queries.len()
            );
            continue;
        }

        // SGS: filter-and-refine.
        let t = Instant::now();
        let mut total_candidates = 0usize;
        let mut total_refined = 0usize;
        let mut total_matches = 0usize;
        for q in &bundle.queries {
            let outcome = bundle.base.match_query(&q.sgs, &config);
            total_candidates += outcome.candidates;
            total_refined += outcome.refined;
            total_matches += outcome.matches.len();
        }
        let sgs_ms = t.elapsed().as_secs_f64() * 1e3 / bundle.queries.len() as f64;

        // CRD: linear scan of three subtractions.
        let t = Instant::now();
        for q in &bundle.queries {
            for a in &bundle.alternatives {
                let _ = q.crd.distance(&a.crd);
            }
        }
        let crd_ms = t.elapsed().as_secs_f64() * 1e3 / bundle.queries.len() as f64;

        // RSP: linear scan of Chamfer set distances.
        let t = Instant::now();
        for q in &bundle.queries {
            for a in &bundle.alternatives {
                let _ = chamfer_distance(&q.rsp, &a.rsp);
            }
        }
        let rsp_ms = t.elapsed().as_secs_f64() * 1e3 / bundle.queries.len() as f64;

        // SkPS: linear scan of bipartite graph edit distances.
        let t = Instant::now();
        for q in &bundle.queries {
            for a in &bundle.alternatives {
                let _ = graph_edit_distance(&q.skps, &a.skps);
            }
        }
        let skps_ms = t.elapsed().as_secs_f64() * 1e3 / bundle.queries.len() as f64;

        let rows = vec![
            vec!["SGS (filter+refine)".into(), fmt_ms(sgs_ms)],
            vec!["CRD (scan)".into(), fmt_ms(crd_ms)],
            vec!["RSP (scan)".into(), fmt_ms(rsp_ms)],
            vec!["SkPS (scan)".into(), fmt_ms(skps_ms)],
        ];
        print_table(
            &format!("archive size {n}"),
            &["format", "avg query time"],
            &rows,
        );
        println!(
            "SGS filter effectiveness: {:.1} candidates/query from the filter scan, \
             {:.1} refined/query ({:.1}% of archive), {:.1} matches/query",
            total_candidates as f64 / bundle.queries.len() as f64,
            total_refined as f64 / bundle.queries.len() as f64,
            100.0 * total_refined as f64 / (bundle.queries.len() * n) as f64,
            total_matches as f64 / bundle.queries.len() as f64,
        );
    }
    println!(
        "\nShape check: SGS within the same order as CRD; RSP and SkPS \
         slower by orders of magnitude; refine rate a small percentage."
    );
}
