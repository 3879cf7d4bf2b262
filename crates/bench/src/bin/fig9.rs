//! Fig. 9 — matching quality: the "similar rate" of each summarization
//! format (§8.3), with the 20-analyst panel replaced by ground truth (see
//! `sgs_bench::quality` and DESIGN.md §2).
//!
//! For every query cluster, each format ranks the whole archive by its own
//! distance; the similar rate is the fraction of its top-3 retrievals that
//! are ground-truth variants (lightly jittered = "very similar",
//! moderately deformed = "similar") of that query.
//!
//! The same study then ranks with both the archive's and the queries'
//! SGS coarsened to levels 0, 1 and 2 (θ = 3): the tech-report
//! multi-resolution extension (E9), §6.1's budget/accuracy-aware
//! resolution selection. Level 0 is the SGS row above, ranked once.
//!
//! ```text
//! cargo run --release -p sgs-bench --bin fig9 [-- --scale 1.0]
//! ```
//!
//! Expected shape (paper): SGS's similar rate clearly exceeds CRD, RSP and
//! SkPS — the decoy set contains rings and discs with identical CRD
//! statistics, so shape-blind summaries retrieve look-alikes that are not.
//! By level: storage shrinks sharply, matching gets faster, and the
//! similar rate degrades gracefully (coarse summaries still beat
//! shape-blind formats).

use std::time::Instant;

use rand::SeedableRng;
use sgs_bench::harness::MultiFormat;
use sgs_bench::quality::{build_study, Relation, StudyEntry};
use sgs_bench::table::{fmt_bytes, fmt_ms, print_table};
use sgs_bench::workload::Args;
use sgs_matching::metric::rel_diff;
use sgs_matching::{best_alignment, graph_edit_distance, pointset};
use sgs_summarize::{coarsen, packed, Rsp, Sgs, SkPs};

/// Retrievals scored per query.
const TOP_K: usize = 3;

/// Center a point buffer at its centroid (position-insensitive study:
/// every format is compared translation-free, like SGS's alignment
/// search).
fn centered(points: &[Box<[f64]>]) -> Vec<Box<[f64]>> {
    if points.is_empty() {
        return Vec::new();
    }
    let dim = points[0].len();
    let mut c = vec![0.0; dim];
    for p in points {
        for d in 0..dim {
            c[d] += p[d];
        }
    }
    for v in &mut c {
        *v /= points.len() as f64;
    }
    points
        .iter()
        .map(|p| p.iter().zip(&c).map(|(x, m)| x - m).collect())
        .collect()
}

/// Structural (location-free) CRD distance: radius, density and
/// population only — the three aggregates CRD actually summarizes shape
/// with.
fn crd_structural(a: &sgs_summarize::Crd, b: &sgs_summarize::Crd) -> f64 {
    (rel_diff(a.radius, b.radius)
        + rel_diff(a.density, b.density)
        + rel_diff(a.population as f64, b.population as f64))
        / 3.0
}

/// Location-free RSP distance: Chamfer on centroid-centered samples.
fn rsp_structural(a: &Rsp, b: &Rsp) -> f64 {
    pointset::chamfer_points(&centered(&a.sample), &centered(&b.sample))
}

/// Location-free SkPS distance: GED on centroid-centered graphs.
fn skps_structural(a: &SkPs, b: &SkPs) -> f64 {
    let re = |s: &SkPs| SkPs {
        points: centered(&s.points),
        edges: s.edges.clone(),
        population: s.population,
    };
    graph_edit_distance(&re(a), &re(b))
}

/// Top-[`TOP_K`] retrievals of every query when `dist` ranks `archive`
/// (parallel to the study's `entries`), counted as very similar hits,
/// similar hits and retrievals.
fn top_k_hits<T>(
    queries: &[T],
    archive: &[T],
    entries: &[StudyEntry],
    dist: impl Fn(&T, &T) -> f64,
) -> [usize; 3] {
    let [mut very, mut similar, mut total] = [0usize; 3];
    for (qi, q) in queries.iter().enumerate() {
        let mut scored: Vec<(f64, usize)> = archive
            .iter()
            .enumerate()
            .map(|(i, a)| (dist(q, a), i))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (_, idx) in scored.iter().take(TOP_K) {
            total += 1;
            let entry = &entries[*idx];
            if entry.query_of == Some(qi) {
                match entry.relation {
                    Relation::VerySimilar => very += 1,
                    Relation::Similar => similar += 1,
                    Relation::Decoy => unreachable!(),
                }
            }
        }
    }
    [very, similar, total]
}

fn percent(hits: usize, total: usize) -> String {
    format!("{:.0}%", 100.0 * hits as f64 / total as f64)
}

fn main() {
    let Args { scale, .. } = Args::from_env();
    let n_queries = ((10.0 * scale) as usize).clamp(5, 20);
    let n_decoys = ((60.0 * scale) as usize).clamp(20, 120);

    let study = build_study(n_queries, 2, 2, n_decoys, 0xF19);
    let theta_r = study.geometry.theta_r();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF19 + 1);

    // Build all formats for queries and archive entries.
    let queries: Vec<MultiFormat> = study
        .queries
        .iter()
        .map(|m| {
            let sgs = Sgs::from_members(m, &study.geometry);
            MultiFormat::build(m.clone(), sgs, theta_r, &mut rng).expect("non-empty query")
        })
        .collect();
    let archive: Vec<MultiFormat> = study
        .archive
        .iter()
        .map(|e| {
            let sgs = Sgs::from_members(&e.members, &study.geometry);
            MultiFormat::build(e.members.clone(), sgs, theta_r, &mut rng).expect("non-empty entry")
        })
        .collect();

    // SGS ranks once per resolution level; level 0 is the SGS format row.
    const THETA: u32 = 3;
    let (mut level_hits, mut level_rows) = (Vec::new(), Vec::new());
    for level in 0u8..=2 {
        let lift = |m: &MultiFormat| -> Sgs {
            let mut s = m.sgs.clone();
            for _ in 0..level {
                s = coarsen(&s, THETA);
            }
            s
        };
        let level_queries: Vec<Sgs> = queries.iter().map(lift).collect();
        let level_archive: Vec<Sgs> = archive.iter().map(lift).collect();
        let bytes: usize = level_archive.iter().map(packed::archived_bytes).sum();
        let t = Instant::now();
        let hits = top_k_hits(&level_queries, &level_archive, &study.archive, |q, a| {
            best_alignment(q, a, 64).distance
        });
        let ms = t.elapsed().as_secs_f64() * 1e3 / level_queries.len() as f64;
        level_hits.push(hits);
        let [very, similar, total] = hits;
        level_rows.push(vec![
            format!("level {level} (θ={THETA})"),
            fmt_bytes(bytes),
            fmt_ms(ms),
            percent(very + similar, total),
        ]);
    }

    let rank = |dist: fn(&MultiFormat, &MultiFormat) -> f64| {
        top_k_hits(&queries, &archive, &study.archive, dist)
    };
    let row = |name: &str, [very, similar, total]: [usize; 3]| {
        let mut cells = vec![name.to_string()];
        cells.extend([very, similar, very + similar].map(|hits| percent(hits, total)));
        cells
    };
    let rows = vec![
        row("SGS", level_hits[0]),
        row("CRD", rank(|q, a| crd_structural(&q.crd, &a.crd))),
        row("RSP", rank(|q, a| rsp_structural(&q.rsp, &a.rsp))),
        row("SkPS", rank(|q, a| skps_structural(&q.skps, &a.skps))),
    ];
    println!(
        "Fig. 9: similar rate over top-{TOP_K} retrievals \
         ({} queries, {} archived clusters, {} decoys)",
        queries.len(),
        archive.len(),
        n_decoys
    );
    print_table(
        "similar rate by format",
        &["format", "very similar", "similar", "total similar rate"],
        &rows,
    );
    print_table(
        &format!("SGS by resolution level (θ = {THETA})"),
        &[
            "resolution",
            "archive bytes",
            "avg match time",
            "similar rate",
        ],
        &level_rows,
    );
    println!(
        "\nShape check: SGS's total similar rate should clearly exceed \
         CRD, RSP and SkPS (the paper's Fig. 9 ordering)."
    );
}
