//! The summarization formats the evaluation compares SGS against (§8),
//! with the distances that match them. Nothing in the product runs them;
//! they live beside the figures (7–9) that measure them.
//!
//! * [`Crd`] — the traditional *centroid + radius + density* summary,
//!   matched by the subtraction metric [`Crd::distance`],
//! * [`Rsp`] — *random sampling* at a rate chosen to consume the same
//!   memory as the SGS of the same cluster, matched by [`pointset`]
//!   (symmetric Chamfer set distance, standing in for the subset-matching
//!   algorithm of \[15\]),
//! * [`SkPs`] — the graph-based *Skeletal Point Summarization* (§4.2),
//!   computed with the Guha–Khuller greedy connected-dominating-set
//!   approximation (`cds`) — descriptive but expensive and
//!   non-deterministic across equivalent inputs, which is exactly why the
//!   paper rejects it — and matched by `ged` (suboptimal bipartite graph
//!   edit distance per Neuhaus, Riesen & Bunke \[13\]) on top of a
//!   from-scratch [`fn@hungarian`] assignment solver.

mod cds;
mod crd;
mod ged;
mod hungarian;
pub mod pointset;
mod rsp;
mod skps;

pub use crd::Crd;
pub use ged::graph_edit_distance;
pub use hungarian::hungarian;
pub use pointset::chamfer_distance;
pub use rsp::Rsp;
pub use skps::SkPs;
