//! # sgs-bench
//!
//! Benchmark harnesses reproducing every table and figure of the paper's
//! evaluation (§8), plus the scaling sweeps of this repo's own layers.
//! Each binary in `src/bin/` regenerates one artifact:
//!
//! | binary | artifact |
//! |---|---|
//! | `fig7` | Fig. 7: per-window CPU time and peak memory of Extra-N, C-SGS, Extra-N+CRD/+RSP/+SkPS and Extra-N+SGS (two-phase; each row the median of three rounds in rotated order, DESIGN.md §3) |
//! | `fig8` | Fig. 8: matching-query response time vs archive size (filter-and-refine and exhaustive SGS, + the §8.2 filter-rate statistic), summary storage vs full representation (~98 % compression), and the anytime alignment budget |
//! | `fig9` | Fig. 9: matching quality ("similar rate") via the ground-truth retrieval study, and SGS by resolution level (tech-report multi-resolution extension) |
//! | `pool_scaling` | scheduler pool (`DESIGN.md` §8): tuples/sec over queries {1, 4, 8} × workers {1, 2, 4} |
//! | `archive_scaling` | durable archive (`DESIGN.md` §10): inserts/s, checkpoint and recovery cost, memory vs durable |
//! | `session_fanout` | reactor front-end (`DESIGN.md` §14): 8 → 128 TCP sessions with server-push on a fixed worker budget |
//!
//! This support library holds the shared workload definitions and the
//! command line every binary takes (`workload::Args`), the timing harness, quality-study cluster shapes, the table printer, and the
//! `--json` report builder the CI artifacts use.

pub mod harness;
pub mod json;
pub mod obs_report;
pub mod quality;
pub mod table;
pub mod workload;
