//! # sgs-bench
//!
//! Benchmark harnesses reproducing every table and figure of the paper's
//! evaluation (§8), plus the scaling sweeps of this repo's own layers.
//! Each binary in `src/bin/` regenerates one artifact:
//!
//! | binary | artifact |
//! |---|---|
//! | `fig7_cpu` | Fig. 7 (top): per-window CPU time of Extra-N, C-SGS, Extra-N+CRD/+RSP/+SkPS |
//! | `fig7_memory` | Fig. 7 (bottom): memory footprints of the same |
//! | `correctness` | §8.1: C-SGS ≡ Extra-N ≡ DBSCAN cluster equivalence |
//! | `fig8_matching` | Fig. 8 (left): matching-query response time vs archive size, + the §8.2 filter-rate statistic |
//! | `fig8_storage` | Fig. 8 (right): summary storage vs full representation (~98 % compression) |
//! | `fig9_quality` | Fig. 9: matching quality ("similar rate") via the ground-truth retrieval study |
//! | `multires` | tech-report extension: multi-resolution matching efficiency/effectiveness |
//! | `ablation` | integrated vs two-phase summarization, filter-and-refine vs exhaustive matching, alignment budget |
//! | `pool_scaling` | scheduler pool (`DESIGN.md` §8): tuples/sec over queries {1, 4, 8} × workers {1, 2, 4} |
//! | `archive_scaling` | durable archive (`DESIGN.md` §10): inserts/s, checkpoint and recovery cost, memory vs durable |
//! | `session_fanout` | reactor front-end (`DESIGN.md` §14): 8 → 128 TCP sessions with server-push on a fixed worker budget |
//!
//! This support library holds the shared workload definitions, timing
//! harness, quality-study cluster shapes, the table printer, and the
//! `--json` report builder the CI artifacts use.

pub mod harness;
pub mod json;
pub mod obs_report;
pub mod quality;
pub mod table;
pub mod workload;
