//! Timed extraction and archive-building harnesses.

use std::time::Instant;

use sgs_archive::PatternBase;
use sgs_cluster::ExtraN;
use sgs_core::{ClusterQuery, Point, PointId, WindowId};
use sgs_csgs::CSgs;
use sgs_stream::WindowEngine;
use sgs_summarize::{packed, MemberSet, Sgs};

use crate::baselines::{Crd, Rsp, SkPs};

/// Which summarization (if any) to bolt onto Extra-N — the "two-phase"
/// alternatives of §8.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Summarizer {
    /// Extract only (the baseline Extra-N).
    None,
    /// Extract, then build a Centroid-Radius-Density summary per cluster.
    Crd,
    /// Extract, then sample each cluster at SGS-equivalent memory.
    Rsp,
    /// Extract, then run the greedy-CDS Skeletal Point Summarization.
    SkPs,
    /// Extract, then build the SGS offline — the two-phase strategy §5
    /// argues against (re-derives cell connections from scratch every
    /// window instead of piggybacking them on extraction).
    TwoPhaseSgs,
}

impl Summarizer {
    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            Summarizer::None => "Extra-N",
            Summarizer::Crd => "Extra-N + CRD",
            Summarizer::Rsp => "Extra-N + RSP",
            Summarizer::SkPs => "Extra-N + SkPS",
            Summarizer::TwoPhaseSgs => "Extra-N + SGS (two-phase)",
        }
    }
}

/// Outcome of one timed extraction run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Alternative that was run.
    pub label: String,
    /// Completed windows.
    pub windows: usize,
    /// Mean wall-clock time per window (insertions + slide + any
    /// summarization), in milliseconds.
    pub avg_response_ms: f64,
    /// Peak retained meta-data bytes observed across windows.
    pub peak_meta_bytes: usize,
    /// Mean clusters per window.
    pub clusters_per_window: f64,
}

/// Run the integrated C-SGS extractor (clusters in full + SGS form),
/// feeding slide-sized batches through [`WindowEngine::push_batch`] so the
/// timed loop pays the amortized per-point cost the runtime's workers see.
///
/// `peak_meta_bytes` is sampled after each slide-sized chunk — the crest
/// of the retention cycle, when a full slide of arrivals sits on top of
/// the window — where the per-point loop used to sample right after a
/// slide (the trough). Expect slightly higher (truer) peaks than the
/// per-point harness reported.
pub fn run_csgs(query: &ClusterQuery, points: &[Point]) -> RunStats {
    let spec = query.window;
    let mut engine = WindowEngine::new(spec, query.dim);
    let mut csgs = CSgs::new(query.clone());
    let mut outputs = Vec::new();
    let mut windows = 0usize;
    let mut clusters = 0usize;
    let mut peak = 0usize;
    let start = Instant::now();
    for chunk in points.chunks(spec.slide as usize) {
        engine
            .push_batch(chunk.iter().cloned(), &mut csgs, &mut outputs)
            .unwrap();
        for (_, out) in outputs.drain(..) {
            windows += 1;
            clusters += out.len();
            peak = peak.max(csgs.meta_bytes());
        }
    }
    finish_stats("C-SGS", start, windows, clusters, peak)
}

/// Run Extra-N, optionally generating the requested summary for every
/// extracted cluster after each slide (the two-phase strategy of §8.1).
pub fn run_extra_n(query: &ClusterQuery, points: &[Point], summarizer: Summarizer) -> RunStats {
    let spec = query.window;
    let mut engine = WindowEngine::new(spec, query.dim);
    let mut extra = ExtraN::new(query.clone());
    let mut outputs = Vec::new();
    let geometry = query.basic_grid();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0xBE7C);

    let mut windows = 0usize;
    let mut clusters = 0usize;
    let mut peak = 0usize;
    let start = Instant::now();
    for chunk in points.chunks(spec.slide as usize) {
        engine
            .push_batch(chunk.iter().cloned(), &mut extra, &mut outputs)
            .unwrap();
        for (_, out) in outputs.drain(..) {
            windows += 1;
            clusters += out.len();
            let mut summary_bytes = 0usize;
            if summarizer != Summarizer::None {
                for cluster in &out {
                    let members = member_set(&cluster.cores, &cluster.edges, points);
                    match summarizer {
                        Summarizer::Crd => {
                            if let Some(crd) = Crd::from_members(&members) {
                                summary_bytes += crd.archived_bytes();
                            }
                        }
                        Summarizer::Rsp => {
                            // Budget: the bytes the SGS of this cluster
                            // would take (§8's fairness rule).
                            let budget = sgs_equivalent_bytes(&members, &geometry);
                            let rsp = Rsp::from_members_with_budget(&members, budget, &mut rng);
                            summary_bytes += rsp.archived_bytes();
                        }
                        Summarizer::SkPs => {
                            let s = SkPs::from_members(&members, query.theta_r);
                            summary_bytes += s.archived_bytes();
                        }
                        Summarizer::TwoPhaseSgs => {
                            let s = Sgs::from_members(&members, &geometry);
                            summary_bytes += packed::archived_bytes(&s);
                        }
                        Summarizer::None => unreachable!(),
                    }
                }
            }
            peak = peak.max(extra.meta_bytes() + summary_bytes);
        }
    }
    finish_stats(summarizer.label(), start, windows, clusters, peak)
}

fn finish_stats(
    label: &str,
    start: Instant,
    windows: usize,
    clusters: usize,
    peak: usize,
) -> RunStats {
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    RunStats {
        label: label.to_string(),
        windows,
        avg_response_ms: if windows > 0 {
            total_ms / windows as f64
        } else {
            0.0
        },
        peak_meta_bytes: peak,
        clusters_per_window: if windows > 0 {
            clusters as f64 / windows as f64
        } else {
            0.0
        },
    }
}

/// Resolve ids to a member set. The window engine numbers points in
/// arrival order from 0, so a member's id is its index into the fed
/// `points`.
pub fn member_set(cores: &[PointId], edges: &[PointId], points: &[Point]) -> MemberSet {
    let resolve = |ids: &[PointId]| {
        ids.iter()
            .map(|id| points[id.0 as usize].coords.clone())
            .collect()
    };
    MemberSet::new(resolve(cores), resolve(edges))
}

/// Bytes the basic SGS of `members` would occupy — used to size RSP
/// samples fairly (cells are counted by bucketing, no connection probing).
pub fn sgs_equivalent_bytes(members: &MemberSet, geometry: &sgs_core::GridGeometry) -> usize {
    let mut cells: std::collections::BTreeSet<sgs_core::CellCoord> = Default::default();
    for m in members.iter_all() {
        cells.insert(geometry.cell_of(&Point::new(m.to_vec(), 0)));
    }
    packed::summary_bytes(cells.len(), geometry.dim())
}

/// One query cluster carrying all four summary formats.
#[derive(Clone, Debug)]
pub struct MultiFormat {
    /// Skeletal Grid Summarization.
    pub sgs: Sgs,
    /// Centroid-radius-density summary.
    pub crd: Crd,
    /// Random sample at SGS-equivalent memory.
    pub rsp: Rsp,
    /// Skeletal point summarization.
    pub skps: SkPs,
    /// The member set it was built from.
    pub members: MemberSet,
}

impl MultiFormat {
    /// Build all four formats for one cluster.
    pub fn build(
        members: MemberSet,
        sgs: Sgs,
        theta_r: f64,
        rng: &mut impl rand::Rng,
    ) -> Option<MultiFormat> {
        let crd = Crd::from_members(&members)?;
        let budget = packed::archived_bytes(&sgs);
        let rsp = Rsp::from_members_with_budget(&members, budget, rng);
        let skps = SkPs::from_members(&members, theta_r);
        Some(MultiFormat {
            sgs,
            crd,
            rsp,
            skps,
            members,
        })
    }
}

/// An archive of `n` clusters in every summary format plus the §8.2
/// storage accounting, and a set of query clusters detected afterwards.
pub struct ArchiveBundle {
    /// SGS archive behind the pattern-base indexes.
    pub base: PatternBase,
    /// Parallel alternative-format stores (scan-matched, as in §8.2).
    pub alternatives: Vec<MultiFormat>,
    /// Query clusters (detected after archiving stopped).
    pub queries: Vec<MultiFormat>,
    /// Total bytes of the full representations of the archived clusters.
    pub full_repr_bytes: usize,
}

/// Run the extractor over `points` until `n_archive` clusters are
/// archived, then keep extracting until `n_queries` further clusters are
/// collected as to-be-matched queries.
pub fn build_archive(
    query: &ClusterQuery,
    points: &[Point],
    n_archive: usize,
    n_queries: usize,
) -> ArchiveBundle {
    let spec = query.window;
    let mut engine = WindowEngine::new(spec, query.dim);
    let mut csgs = CSgs::new(query.clone());
    let mut outputs: Vec<(WindowId, sgs_csgs::WindowOutput)> = Vec::new();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0xA5C1);

    let mut base = PatternBase::new();
    let mut alternatives = Vec::new();
    let mut queries = Vec::new();
    let mut full_repr_bytes = 0usize;

    'stream: for p in points {
        engine.push(p.clone(), &mut csgs, &mut outputs).unwrap();
        for (window, out) in outputs.drain(..) {
            for cluster in out {
                let members = member_set(&cluster.cores, &cluster.edges, points);
                let Some(mf) =
                    MultiFormat::build(members, cluster.sgs.clone(), query.theta_r, &mut rng)
                else {
                    continue;
                };
                if alternatives.len() < n_archive {
                    full_repr_bytes += mf.members.full_repr_bytes();
                    base.insert(cluster.sgs.clone(), window);
                    alternatives.push(mf);
                } else if queries.len() < n_queries {
                    queries.push(mf);
                } else {
                    break 'stream;
                }
            }
        }
    }
    ArchiveBundle {
        base,
        alternatives,
        queries,
        full_repr_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Dataset;
    use sgs_core::WindowSpec;

    fn small_query() -> ClusterQuery {
        ClusterQuery::new(0.5, 4, 2, WindowSpec::count(500, 250).unwrap()).unwrap()
    }

    #[test]
    fn run_stats_have_sane_shape() {
        let pts = Dataset::Gmti.points(2000);
        let q = small_query();
        let a = run_csgs(&q, &pts);
        let b = run_extra_n(&q, &pts, Summarizer::None);
        assert_eq!(a.windows, b.windows);
        assert!(a.windows >= 5);
        assert!(a.avg_response_ms > 0.0);
        assert!(a.peak_meta_bytes > 0);
        assert!((a.clusters_per_window - b.clusters_per_window).abs() < 1e-9);
    }

    #[test]
    fn extra_n_with_summarizers_runs() {
        let pts = Dataset::Gmti.points(1500);
        let q = small_query();
        for s in [Summarizer::Crd, Summarizer::Rsp, Summarizer::SkPs] {
            let stats = run_extra_n(&q, &pts, s);
            assert!(stats.windows > 0, "{}", s.label());
        }
    }

    #[test]
    fn archive_bundle_collects_requested_counts() {
        let pts = Dataset::Gmti.points(6000);
        let q = small_query();
        let bundle = build_archive(&q, &pts, 20, 5);
        assert_eq!(bundle.base.len(), 20);
        assert_eq!(bundle.alternatives.len(), 20);
        assert_eq!(bundle.queries.len(), 5);
        assert!(bundle.full_repr_bytes > bundle.base.archived_bytes());
    }
}
