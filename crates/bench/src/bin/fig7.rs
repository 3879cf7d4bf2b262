//! Fig. 7 — average response time per window (top) and peak memory
//! footprint (bottom) of every alternative, from one run each: Extra-N
//! (extraction only), C-SGS (extraction + SGS), and the two-phase
//! Extra-N + CRD / RSP / SkPS / SGS pipelines (§8.1). The last row is the
//! two-phase SGS that C-SGS integrates into extraction (§5.1, DESIGN.md §3).
//!
//! ```text
//! cargo run --release -p sgs-bench --bin fig7 [-- --scale 0.2 --dataset gmti]
//! ```
//!
//! Expected shape (paper): the C-SGS overhead over Extra-N stays small
//! (< 6 % in the paper's runs); +CRD and +RSP are modest; +SkPS is far more
//! expensive; Extra-N's cost grows with win/slide while the C-SGS
//! summarization overhead does not (§8.1, E10). C-SGS carries very limited
//! memory overhead because the SGS is generated in place with extraction;
//! Extra-N's retained meta-data grows with the number of views (win/slide)
//! while C-SGS's does not.

use sgs_bench::harness::{run_csgs, run_extra_n, Summarizer};
use sgs_bench::table::{fmt_bytes, fmt_ms, print_table};
use sgs_bench::workload::{config_grid, scaled_window, Args};

fn main() {
    let Args { scale, dataset, .. } = Args::from_env();

    // Paper: win = 10K tuples, slides 0.1K / 1K / 5K, averaged over many
    // windows. Scaled so the default run finishes in a few minutes.
    let win = scaled_window(10_000, scale, 400, 100);
    let slides = [win / 100, win / 10, win / 2];
    let n_windows = 12u64;
    let configs = config_grid(dataset, win, &slides);

    println!("Fig. 7: CPU time and peak memory per window — dataset {dataset:?}, win={win}");
    for config in configs {
        let n_points = (config.query.window.slide * n_windows) as usize + 2 * win as usize;
        let points = dataset.points(n_points);
        let extra = run_extra_n(&config.query, &points, Summarizer::None);
        let csgs = run_csgs(&config.query, &points);
        let crd = run_extra_n(&config.query, &points, Summarizer::Crd);
        let rsp = run_extra_n(&config.query, &points, Summarizer::Rsp);
        let skps = run_extra_n(&config.query, &points, Summarizer::SkPs);
        let two_phase = run_extra_n(&config.query, &points, Summarizer::TwoPhaseSgs);

        let vs_extra = |value: f64, base: f64| format!("{:+.1}%", (value / base - 1.0) * 100.0);
        let rows: Vec<Vec<String>> = [&extra, &csgs, &crd, &rsp, &skps, &two_phase]
            .iter()
            .map(|s| {
                vec![
                    s.label.clone(),
                    fmt_ms(s.avg_response_ms),
                    vs_extra(s.avg_response_ms, extra.avg_response_ms),
                    fmt_bytes(s.peak_meta_bytes),
                    vs_extra(s.peak_meta_bytes as f64, extra.peak_meta_bytes as f64),
                    format!("{:.1}", s.clusters_per_window),
                    s.windows.to_string(),
                ]
            })
            .collect();
        print_table(
            &config.label,
            &[
                "alternative",
                "resp/window",
                "time vs Extra-N",
                "peak meta",
                "meta vs Extra-N",
                "clusters/win",
                "windows",
            ],
            &rows,
        );
    }
    println!(
        "\nShape check: C-SGS should sit within a few percent of Extra-N; \
         Extra-N + SkPS should dominate all other overheads."
    );
    println!(
        "Shape check: within each case, Extra-N's footprint should rise as \
         the slide shrinks (more views); C-SGS should not track that growth."
    );
}
