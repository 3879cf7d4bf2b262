//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Integrated vs two-phase summarization** (§5.1): C-SGS piggybacks
//!    connection derivation on extraction; the two-phase alternative
//!    re-derives every window's SGS from the full representations.
//! 2. **Filter-and-refine vs exhaustive matching** (§7.2): what the
//!    feature filter saves over refining every archived pattern.
//! 3. **Anytime alignment budget** (§7.2): match quality and cost as the
//!    A*-style search is given more evaluations.
//!
//! ```text
//! cargo run --release -p sgs-bench --bin ablation [-- --scale 0.5 --dataset gmti]
//! ```

use std::time::Instant;

use sgs_bench::harness::{build_archive, run_csgs, run_extra_n, Summarizer};
use sgs_bench::table::{fmt_ms, print_table};
use sgs_bench::workload::{parse_dataset, parse_scale};
use sgs_core::{ClusterQuery, WindowSpec};
use sgs_matching::{best_alignment, MatchConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dataset = parse_dataset(&args);
    let scale = parse_scale(&args);
    let (theta_r, theta_c) = dataset.cases()[1];
    let win = ((8_000.0 * scale) as u64).max(500);
    let spec = WindowSpec::count(win, win / 8).unwrap();
    let query = ClusterQuery::new(theta_r, theta_c, dataset.dim(), spec).unwrap();

    // ---- Ablation 1: integrated vs two-phase summarization.
    let points = dataset.points((win * 4) as usize);
    let integrated = run_csgs(&query, &points);
    let two_phase = run_extra_n(&query, &points, Summarizer::TwoPhaseSgs);
    let extract_only = run_extra_n(&query, &points, Summarizer::None);
    print_table(
        "ablation 1: integrated (C-SGS) vs two-phase SGS generation",
        &["strategy", "resp/window", "overhead vs extract-only"],
        &[
            vec![
                extract_only.label.clone(),
                fmt_ms(extract_only.avg_response_ms),
                "baseline".into(),
            ],
            vec![
                integrated.label.clone(),
                fmt_ms(integrated.avg_response_ms),
                format!(
                    "{:+.1}%",
                    (integrated.avg_response_ms / extract_only.avg_response_ms - 1.0) * 100.0
                ),
            ],
            vec![
                two_phase.label.clone(),
                fmt_ms(two_phase.avg_response_ms),
                format!(
                    "{:+.1}%",
                    (two_phase.avg_response_ms / extract_only.avg_response_ms - 1.0) * 100.0
                ),
            ],
        ],
    );

    // ---- Ablation 2: feature filter vs exhaustive refine.
    let n_archive = (600.0 * scale).max(60.0) as usize;
    let bundle = build_archive(
        &query,
        &dataset.points((win as usize) * (4 + n_archive / 2)),
        n_archive,
        20,
    );
    let cfg = MatchConfig::equal_weights(false, 0.25);
    if !bundle.queries.is_empty() && bundle.base.len() >= n_archive / 2 {
        let t = Instant::now();
        let mut refined_filtered = 0usize;
        for q in &bundle.queries {
            refined_filtered += bundle.base.match_query(&q.sgs, &cfg).refined;
        }
        let filtered_ms = t.elapsed().as_secs_f64() * 1e3 / bundle.queries.len() as f64;
        let t = Instant::now();
        let mut refined_exhaustive = 0usize;
        for q in &bundle.queries {
            refined_exhaustive += bundle.base.match_query_exhaustive(&q.sgs, &cfg).refined;
        }
        let exhaustive_ms = t.elapsed().as_secs_f64() * 1e3 / bundle.queries.len() as f64;
        print_table(
            &format!(
                "ablation 2: filter-and-refine vs exhaustive ({} archived)",
                bundle.base.len()
            ),
            &["strategy", "avg query time", "grid matches/query"],
            &[
                vec![
                    "feature filter + refine".into(),
                    fmt_ms(filtered_ms),
                    format!(
                        "{:.1}",
                        refined_filtered as f64 / bundle.queries.len() as f64
                    ),
                ],
                vec![
                    "exhaustive refine".into(),
                    fmt_ms(exhaustive_ms),
                    format!(
                        "{:.1}",
                        refined_exhaustive as f64 / bundle.queries.len() as f64
                    ),
                ],
            ],
        );

        // ---- Ablation 3: alignment budget sweep.
        let mut rows = Vec::new();
        if bundle.queries.len() >= 2 {
            let a = &bundle.queries[0].sgs;
            let b = &bundle.queries[1].sgs;
            for budget in [4usize, 16, 64, 256, 1024] {
                let t = Instant::now();
                let mut d = 0.0;
                const REPS: usize = 20;
                for _ in 0..REPS {
                    d = best_alignment(a, b, budget).distance;
                }
                let ms = t.elapsed().as_secs_f64() * 1e3 / REPS as f64;
                rows.push(vec![budget.to_string(), format!("{d:.4}"), fmt_ms(ms)]);
            }
            print_table(
                "ablation 3: anytime alignment budget",
                &["budget (evals)", "best distance found", "time"],
                &rows,
            );
        }
    } else {
        println!("\n[ablations 2-3 skipped: archive too small at this scale]");
    }
}
