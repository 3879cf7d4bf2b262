//! The end-to-end pipeline of Fig. 4: window engine → pattern extractor
//! (C-SGS) → pattern archiver → pattern base, wired behind one handle.
//!
//! This is the single-query execution unit. The multi-query [`Runtime`]
//! (see [`crate::runtime`]) runs one `StreamPipeline` per registered
//! continuous query, serialized onto the shared scheduler pool, which is
//! what makes the runtime's per-query output byte-identical to a solo
//! pipeline run: both paths execute exactly this code over the same
//! point sequence and differ only in who stores what the archiver selects.
//!
//! [`Runtime`]: crate::runtime::Runtime

use std::borrow::Borrow;

use sgs_archive::{ArchivePolicy, PatternArchiver, PatternBase, PatternId};
use sgs_core::{ClusterQuery, Point, Result, WindowId};
use sgs_csgs::{CSgs, WindowOutput};
use sgs_stream::WindowEngine;
use sgs_summarize::Sgs;

/// Completed windows with their outputs, oldest first.
type Windows = Vec<(WindowId, WindowOutput)>;

/// A running continuous clustering query with automatic archival.
///
/// Every completed window's clusters (full + SGS representation) are
/// returned to the caller *and* offered to the archiver, exactly like the
/// system overview in §3.3: the analyst monitors in real time while the
/// stream history accumulates for later matching queries.
pub struct StreamPipeline {
    engine: WindowEngine,
    extractor: CSgs,
    archiver: PatternArchiver,
}

impl StreamPipeline {
    /// Build a pipeline for `query`, archiving per `policy` (seeded for
    /// reproducible sampling policies).
    pub fn new(query: ClusterQuery, policy: ArchivePolicy, seed: u64) -> Result<Self> {
        // The one place a point's coordinates are checked against what
        // this query's grid can address (`DESIGN.md` §5).
        let engine = WindowEngine::new(query.window, query.dim)
            .with_coord_limit(query.basic_grid().coord_limit());
        let extractor = CSgs::new(query);
        Ok(StreamPipeline {
            engine,
            extractor,
            archiver: PatternArchiver::new(policy, seed),
        })
    }

    /// Feed one point — [`push_batch`](Self::push_batch) of a single
    /// element; returns the outputs of any windows that completed
    /// (time-based streams can complete several per push).
    pub fn push(&mut self, point: impl Borrow<Point>) -> Result<Vec<(WindowId, WindowOutput)>> {
        self.push_batch([point])
    }

    /// Feed a batch of points, owned or borrowed, through the window engine
    /// ([`WindowEngine::push_batch`]); returns the outputs of the windows
    /// they completed, oldest first — the last element is the most
    /// recently completed window. Outputs — and the archive state — do
    /// not depend on how a stream is cut into batches.
    ///
    /// On error (dimension mismatch, a non-finite coordinate or one
    /// beyond [`GridGeometry::coord_limit`](sgs_core::GridGeometry::coord_limit),
    /// out-of-order timestamp) the points *before* the failing one are
    /// inserted and the windows they completed are archived; their
    /// outputs are dropped with the error.
    pub fn push_batch(
        &mut self,
        points: impl IntoIterator<Item = impl Borrow<Point>>,
    ) -> Result<Vec<(WindowId, WindowOutput)>> {
        let mut outputs = Vec::new();
        let fed = self
            .engine
            .push_batch(points, &mut self.extractor, &mut outputs);
        for (window, output) in &outputs {
            self.archiver
                .observe(*window, output.iter().map(|c| &c.sgs));
        }
        fed.map(|_| outputs)
    }

    /// [`push_batch`](Self::push_batch) whose archiver only selects: what
    /// it keeps comes back for the caller to store, and the windows come
    /// back alongside an error, since a runtime delivers every window.
    pub(crate) fn push_batch_selecting(
        &mut self,
        points: impl IntoIterator<Item = impl Borrow<Point>>,
    ) -> (Windows, Vec<(Sgs, WindowId)>, Result<u64>) {
        let mut outputs = Vec::new();
        let fed = self
            .engine
            .push_batch(points, &mut self.extractor, &mut outputs);
        let mut selected = Vec::new();
        for (window, output) in &outputs {
            let kept = self.archiver.select(output.iter().map(|c| &c.sgs));
            selected.extend(kept.into_iter().map(|sgs| (sgs.clone(), *window)));
        }
        (outputs, selected, fed)
    }

    /// The pattern base accumulated so far.
    pub fn base(&self) -> &PatternBase {
        self.archiver.base()
    }

    /// Consume the pipeline, returning the pattern base it accumulated.
    pub fn into_base(self) -> PatternBase {
        self.archiver.into_base()
    }

    /// Archive statistics: `(offered, archived)` cluster counts.
    pub fn archive_stats(&self) -> (u64, u64) {
        (self.archiver.offered, self.archiver.archived)
    }

    /// Resolve an archived pattern id.
    pub fn archived(&self, id: PatternId) -> Option<&sgs_archive::ArchivedPattern> {
        self.base().get(id)
    }

    /// Number of windows completed so far.
    pub fn current_window(&self) -> WindowId {
        self.engine.current_window()
    }

    /// Number of points accepted so far (points rejected by a failing
    /// push are not counted).
    pub fn accepted(&self) -> u64 {
        self.engine.accepted()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sgs_core::WindowSpec;
    use sgs_summarize::Cells;

    fn pipeline() -> StreamPipeline {
        let q = ClusterQuery::new(0.5, 2, 2, WindowSpec::count(40, 10).unwrap()).unwrap();
        StreamPipeline::new(q, ArchivePolicy::All, 0).unwrap()
    }

    fn blob_stream(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    vec![(i % 5) as f64 * 0.2, ((i / 5) % 4) as f64 * 0.2],
                    i as u64,
                )
            })
            .collect()
    }

    /// Ten points in one cell, arriving in one slide among points spaced
    /// far apart that form no cluster and come near nothing: the cluster
    /// lives, untouched, in each of the four windows that hold it.
    pub(crate) fn lasting_cluster_stream() -> Vec<Point> {
        let noise = |k: u32| vec![10.0 * f64::from(k), 50.0];
        let cluster = (0..10).map(|i| vec![0.05 + 0.02 * f64::from(i), 0.05]);
        let stream = (1..=30)
            .map(noise)
            .chain(cluster)
            .chain((31..=70).map(noise));
        (stream.enumerate())
            .map(|(t, coords)| Point::new(coords, t as u64))
            .collect()
    }

    /// The output stage carries the cluster over from window to window,
    /// and the archiver keeps it in each one: every pattern it became
    /// holds the one cells allocation the output stage built.
    #[test]
    fn a_carried_cluster_is_archived_in_one_cells_allocation() {
        let mut p = pipeline();
        p.push_batch(lasting_cluster_stream()).unwrap();
        let patterns: Vec<_> = p.base().iter().collect();
        assert_eq!(patterns.len(), 4);
        for (pattern, next) in patterns.iter().zip(&patterns[1..]) {
            assert!(pattern.window < next.window);
            assert!(Cells::ptr_eq(&pattern.sgs.cells, &next.sgs.cells));
        }
    }

    #[test]
    fn pipeline_extracts_and_archives() {
        let mut p = pipeline();
        let outs = p.push_batch(blob_stream(200)).unwrap();
        assert!(!outs.is_empty());
        assert!(!p.base().is_empty());
        let (offered, archived) = p.archive_stats();
        assert_eq!(offered, archived);
        assert!(!outs.last().unwrap().1.is_empty());
    }

    #[test]
    fn pipeline_matching_roundtrip() {
        use sgs_matching::MatchConfig;
        let mut p = pipeline();
        let outs = p.push_batch(blob_stream(200)).unwrap();
        let query_sgs = &outs.last().unwrap().1[0].sgs;
        let outcome = p
            .base()
            .match_query(query_sgs, &MatchConfig::equal_weights(true, 0.2));
        assert!(
            !outcome.matches.is_empty(),
            "the archived twin of the query must match"
        );
        assert!(outcome.matches[0].distance < 1e-9);
    }

    #[test]
    fn batch_and_per_point_paths_archive_identically() {
        let stream = blob_stream(300);

        let mut solo = pipeline();
        let mut solo_outs = Vec::new();
        for p in &stream {
            solo_outs.extend(solo.push(p).unwrap());
        }

        let mut batched = pipeline();
        let mut batch_outs = Vec::new();
        for chunk in stream.chunks(23) {
            batch_outs.extend(batched.push_batch(chunk).unwrap());
        }

        assert_eq!(solo_outs, batch_outs);
        assert_eq!(solo.base().len(), batched.base().len());
        assert_eq!(solo.archive_stats(), batched.archive_stats());
        for (a, b) in solo.base().iter().zip(batched.base().iter()) {
            assert_eq!(a.window, b.window);
            assert_eq!(a.sgs, b.sgs);
        }
    }
}
