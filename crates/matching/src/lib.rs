//! # sgs-matching
//!
//! Cluster matching (§7.2): the customizable distance metric, the
//! filter-phase candidate range computation, the grid-cell-level refine
//! match with its A*-style anytime alignment search, and the distance
//! machinery for every alternative summarization format the evaluation
//! compares against:
//!
//! * SGS — [`metric`] (cluster-level features) + [`grid_match`] /
//!   [`alignment`] (cell-level refine), with [`bound`] proving before the
//!   alignment search when no alignment can match,
//! * CRD — the subtraction metric lives on
//!   [`sgs_summarize::Crd::distance`],
//! * RSP — [`pointset`] (symmetric Chamfer set distance, standing in for
//!   the subset-matching algorithm of \[15\]),
//! * SkPS — [`ged`] (suboptimal bipartite graph edit distance per Neuhaus,
//!   Riesen & Bunke \[13\]) on top of a from-scratch [`fn@hungarian`] assignment
//!   solver.

pub mod alignment;
pub mod bound;
pub mod candidate;
pub mod ged;
pub mod grid_match;
pub mod hungarian;
pub mod metric;
pub mod pointset;
#[cfg(test)]
mod testkit;

pub use alignment::{best_alignment, AlignmentResult};
pub use bound::AlignmentFilter;
pub use candidate::feature_ranges;
pub use ged::graph_edit_distance;
pub use grid_match::grid_level_distance;
pub use hungarian::hungarian;
pub use metric::{cluster_distance, MatchConfig, DEFAULT_ALIGNMENT_BUDGET};
pub use pointset::chamfer_distance;
