//! # sgs-matching
//!
//! Cluster matching (§7.2): the customizable distance metric, the
//! filter-phase candidate range computation, and the grid-cell-level
//! refine match with its A*-style anytime alignment search —
//! [`metric`] (cluster-level features) + [`grid_match`] / [`alignment`]
//! (cell-level refine), with [`bound`] proving before the alignment
//! search when no alignment can match.
//!
//! The distances of the formats the evaluation compares SGS against
//! (CRD, RSP, SkPS) live with the figures that measure them, in
//! `sgs-bench`'s `baselines`.

pub mod alignment;
pub mod bound;
pub mod candidate;
pub mod grid_match;
pub mod metric;
#[cfg(test)]
mod testkit;

pub use alignment::{best_alignment, AlignmentResult};
pub use bound::AlignmentFilter;
pub use candidate::feature_ranges;
pub use grid_match::grid_level_distance;
pub use metric::{cluster_distance, MatchConfig, DEFAULT_ALIGNMENT_BUDGET};
