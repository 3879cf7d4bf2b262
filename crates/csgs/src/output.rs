//! Per-window output of the C-SGS extractor: clusters in both
//! representations (Fig. 2 of the paper — `DensityBasedClusters(f+s)`).

use std::sync::Arc;

use sgs_core::{HeapSize, PointId};
use sgs_summarize::Sgs;

/// One extracted cluster: full representation + Skeletal Grid
/// Summarization.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtractedCluster {
    /// Core member objects (sorted by id).
    pub cores: Vec<PointId>,
    /// Edge member objects (sorted by id; an edge object may appear in
    /// several clusters, per Def. 3.1).
    pub edges: Vec<PointId>,
    /// The basic (level-0) SGS of this cluster.
    pub sgs: Sgs,
}

impl ExtractedCluster {
    /// Total member count.
    #[inline]
    pub fn population(&self) -> usize {
        self.cores.len() + self.edges.len()
    }
}

impl HeapSize for ExtractedCluster {
    fn heap_size(&self) -> usize {
        (self.cores.capacity() + self.edges.capacity()) * 4 + self.sgs.heap_size()
    }
}

/// All clusters extracted for one window. A cluster is shared: one the
/// output stage carries over from the previous window is the previous
/// window's, not a copy of it, and a pattern base that keeps its summary
/// holds the same [`Cells`](sgs_summarize::Cells) (`DESIGN.md` §6).
pub type WindowOutput = Vec<Arc<ExtractedCluster>>;
