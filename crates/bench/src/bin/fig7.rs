//! Fig. 7 — average response time per window (top) and peak memory
//! footprint (bottom) of every alternative: Extra-N (extraction only),
//! C-SGS (extraction + SGS), and the two-phase Extra-N + CRD / RSP / SkPS
//! / SGS pipelines (§8.1). The last row is the two-phase SGS that C-SGS
//! integrates into extraction (§5.1, DESIGN.md §3). Every alternative
//! runs in each of three rounds, the order rotated between rounds, and a
//! row's time is the median of its three; the memory, cluster and window
//! columns are the same in every round.
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

use sgs_bench::harness::{run_csgs, run_extra_n, RunStats, Summarizer};
use sgs_bench::table::{fmt_bytes, fmt_ms, print_table};
use sgs_bench::workload::{config_grid, scaled_window, Args};

/// Timed rounds per alternative.
const ROUNDS: usize = 3;

/// The alternatives, in row order: C-SGS, or Extra-N with a summarizer.
const ALTERNATIVES: [Option<Summarizer>; 6] = [
    Some(Summarizer::None),
    None,
    Some(Summarizer::Crd),
    Some(Summarizer::Rsp),
    Some(Summarizer::SkPs),
    Some(Summarizer::TwoPhaseSgs),
];

fn main() {
    let Args { scale, dataset, .. } = Args::from_env();

    // Paper: win = 10K tuples, slides 0.1K / 1K / 5K, averaged over many
    // windows. Scaled so the default run finishes in a few minutes.
    let win = scaled_window(10_000, scale, 400, 100);
    let slides = [win / 100, win / 10, win / 2];
    let n_windows = 12u64;
    let configs = config_grid(dataset, win, &slides);

    println!(
        "Fig. 7: CPU time and peak memory per window — dataset {dataset:?}, win={win}, \
         times the median of {ROUNDS} rounds in rotated order"
    );
    for config in configs {
        let n_points = (config.query.window.slide * n_windows) as usize + 2 * win as usize;
        let points = dataset.points(n_points);
        // Round `r` starts `r·n/ROUNDS` alternatives in, so that no
        // alternative always runs first, or always after the same one.
        let n = ALTERNATIVES.len();
        let mut runs: Vec<Vec<RunStats>> = vec![Vec::new(); n];
        for round in 0..ROUNDS {
            for k in 0..n {
                let alt = (k + round * n / ROUNDS) % n;
                runs[alt].push(match ALTERNATIVES[alt] {
                    Some(summarizer) => run_extra_n(&config.query, &points, summarizer),
                    None => run_csgs(&config.query, &points),
                });
            }
        }
        // The median time of each alternative's rounds, beside the
        // columns every round reads alike.
        let rows: Vec<(f64, &RunStats)> = runs
            .iter()
            .map(|rounds| {
                let first = &rounds[0];
                let columns = |s: &RunStats| (s.peak_meta_bytes, s.clusters_per_window, s.windows);
                assert!(
                    rounds.iter().all(|s| columns(s) == columns(first)),
                    "{}: a round's deterministic columns differ",
                    first.label
                );
                let mut times: Vec<f64> = rounds.iter().map(|s| s.avg_response_ms).collect();
                times.sort_by(f64::total_cmp);
                (times[ROUNDS / 2], first)
            })
            .collect();

        let (extra_ms, extra) = rows[0];
        let vs_extra = |value: f64, base: f64| format!("{:+.1}%", (value / base - 1.0) * 100.0);
        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|&(ms, s)| {
                vec![
                    s.label.clone(),
                    fmt_ms(ms),
                    vs_extra(ms, extra_ms),
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
                "resp/window (median)",
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
