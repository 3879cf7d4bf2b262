//! Fig. 7 — average response time per window (top) and peak memory
//! footprint (bottom) of every alternative: Extra-N (extraction only),
//! C-SGS (extraction + SGS), and the two-phase Extra-N + CRD / RSP / SkPS
//! / SGS pipelines (§8.1). The last row is the two-phase SGS that C-SGS
//! integrates into extraction (§5.1, DESIGN.md §3). Every alternative
//! runs in each of three rounds, the order rotated between rounds, and a
//! row's time is the median of its three, printed beside their range.
//! Each run is a process of its own: the bin runs itself once per
//! alternative and round, and the child prints one result line. So no
//! row runs on a heap or caches another row left behind, and what one
//! alternative allocates cannot move another's time.
//! Where a row's range overlaps Extra-N's, its time against Extra-N reads
//! `unresolved`: three rounds cannot tell that gap from noise. Where a
//! configuration extracts no cluster at all, a summarizer row's time
//! reads `no clusters`: it ran Extra-N with nothing to summarize. The
//! memory, cluster and window columns are the same in every round.
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

use std::process::{Command, Stdio};

use sgs_bench::harness::{run_csgs, run_extra_n, RunStats, Summarizer};
use sgs_bench::table::{fmt_bytes, fmt_ms, print_table};
use sgs_bench::workload::{config_grid, scaled_window, Args, Config, Dataset};

/// Timed rounds per alternative.
const ROUNDS: usize = 3;

/// Set in a child's environment to `<configuration>,<alternative>`, the
/// indices of the one run it makes.
const ROW_VAR: &str = "SGS_FIG7_ROW";

/// The alternatives, in row order: C-SGS, or Extra-N with a summarizer.
const ALTERNATIVES: [Option<Summarizer>; 6] = [
    Some(Summarizer::None),
    None,
    Some(Summarizer::Crd),
    Some(Summarizer::Rsp),
    Some(Summarizer::SkPs),
    Some(Summarizer::TwoPhaseSgs),
];

/// Run alternative `alt` once on `config`'s stream.
fn run(config: &Config, dataset: Dataset, alt: usize) -> RunStats {
    // Paper: averaged over many windows; twelve slides past two windows.
    let win = config.query.window.win as usize;
    let n_points = (config.query.window.slide * 12) as usize + 2 * win;
    let points = dataset.points(n_points);
    match ALTERNATIVES[alt] {
        Some(summarizer) => run_extra_n(&config.query, &points, summarizer),
        None => run_csgs(&config.query, &points),
    }
}

/// Run alternative `alt` on configuration `config` in a child process,
/// with this process's arguments, and read back its one result line:
/// windows, time, peak meta, clusters per window, then the label.
fn run_child(config: usize, alt: usize) -> RunStats {
    let output = Command::new(std::env::current_exe().expect("the bin's own path"))
        .args(std::env::args_os().skip(1))
        .env(ROW_VAR, format!("{config},{alt}"))
        .stderr(Stdio::inherit())
        .output()
        .expect("a fig7 child starts");
    assert!(output.status.success(), "fig7 child {config},{alt} failed");
    let line = String::from_utf8(output.stdout).expect("a child prints UTF-8");
    parse_row(&line).unwrap_or_else(|| panic!("fig7 child {config},{alt} printed {line:?}"))
}

/// The [`RunStats`] of a child's result line.
fn parse_row(line: &str) -> Option<RunStats> {
    let mut fields = line.trim_end().splitn(5, ' ');
    Some(RunStats {
        windows: fields.next()?.parse().ok()?,
        avg_response_ms: fields.next()?.parse().ok()?,
        peak_meta_bytes: fields.next()?.parse().ok()?,
        clusters_per_window: fields.next()?.parse().ok()?,
        label: fields.next()?.to_string(),
    })
}

fn main() {
    let Args { scale, dataset, .. } = Args::from_env();

    // Paper: win = 10K tuples, slides 0.1K / 1K / 5K. Scaled so the
    // default run finishes in a few minutes.
    let win = scaled_window(10_000, scale, 400, 100);
    let slides = [win / 100, win / 10, win / 2];
    let configs = config_grid(dataset, win, &slides);

    if let Ok(row) = std::env::var(ROW_VAR) {
        let parsed = row
            .split_once(',')
            .and_then(|(c, a)| Some((c.parse().ok()?, a.parse().ok()?)));
        let Some((config, alt)) =
            parsed.filter(|&(c, a): &(usize, usize)| c < configs.len() && a < ALTERNATIVES.len())
        else {
            panic!("{ROW_VAR}={row:?} names no run");
        };
        let s = run(&configs[config], dataset, alt);
        // `{}` prints an `f64` that parses back to the same bits.
        println!(
            "{} {} {} {} {}",
            s.windows, s.avg_response_ms, s.peak_meta_bytes, s.clusters_per_window, s.label
        );
        return;
    }

    println!(
        "Fig. 7: CPU time and peak memory per window — dataset {dataset:?}, win={win}, \
         times the median of {ROUNDS} rounds in rotated order, one process per run"
    );
    for (c, config) in configs.iter().enumerate() {
        // Round `r` starts `r·n/ROUNDS` alternatives in, so that no
        // alternative always runs first, or always after the same one.
        let n = ALTERNATIVES.len();
        let mut runs: Vec<Vec<RunStats>> = vec![Vec::new(); n];
        for round in 0..ROUNDS {
            for k in 0..n {
                let alt = (k + round * n / ROUNDS) % n;
                runs[alt].push(run_child(c, alt));
            }
        }
        // The median time of each alternative's rounds and their range,
        // beside the columns every round reads alike.
        let rows: Vec<(f64, [f64; 2], &RunStats)> = runs
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
                (times[ROUNDS / 2], [times[0], times[ROUNDS - 1]], first)
            })
            .collect();

        let (extra_ms, [extra_lo, extra_hi], extra) = rows[0];
        let vs_extra = |value: f64, base: f64| format!("{:+.1}%", (value / base - 1.0) * 100.0);
        let rows: Vec<Vec<String>> = rows
            .iter()
            .enumerate()
            .map(|(i, &(ms, [lo, hi], s))| {
                let summarizes = matches!(ALTERNATIVES[i], Some(alt) if alt != Summarizer::None);
                // With no cluster in any window, a two-phase row runs
                // Extra-N and nothing more: its gap is not a summary's cost.
                let time_vs_extra = if summarizes && s.clusters_per_window == 0.0 {
                    "no clusters".to_string()
                } else if i > 0 && lo <= extra_hi && extra_lo <= hi {
                    // A gap inside the rounds' spread is not one the run shows.
                    "unresolved".to_string()
                } else {
                    vs_extra(ms, extra_ms)
                };
                vec![
                    s.label.clone(),
                    fmt_ms(ms),
                    format!("{}–{}", fmt_ms(lo), fmt_ms(hi)),
                    time_vs_extra,
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
                "min–max",
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
