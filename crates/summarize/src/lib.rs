//! # sgs-summarize
//!
//! Cluster summarization formats (§4 and §6 of the paper) plus every
//! alternative the evaluation compares against (§8):
//!
//! * [`Sgs`] — **Skeletal Grid Summarization** (Def. 4.4), the paper's
//!   contribution: non-overlapping grid cells carrying location, side
//!   length, population, status (core/edge) and a connection vector,
//! * [`Crd`] — the traditional *centroid + radius + density* summary,
//! * [`Rsp`] — *random sampling* at a rate chosen to consume the same
//!   memory as the SGS of the same cluster,
//! * [`SkPs`] — the graph-based *Skeletal Point Summarization* (§4.2),
//!   computed with the Guha–Khuller greedy connected-dominating-set
//!   approximation ([`cds`]) — descriptive but expensive and
//!   non-deterministic across equivalent inputs, which is exactly why the
//!   paper rejects it,
//! * [`multires`] — the multi-resolution hierarchy of §6.1 (level-n cells
//!   combine θ^d level-(n−1) cells),
//! * [`codec`] — the one lossless SGS encoding, which the wire sends and
//!   the durable archive stores, and
//! * [`packed`] — §8.2's byte count (23 bytes per 4-d cell), the formula
//!   behind the ~98 % compression accounting; nothing is written in it.

pub mod cds;
pub mod codec;
pub mod crd;
pub mod member;
pub mod multires;
pub mod packed;
pub mod regen;
pub mod rsp;
pub mod sgs;
pub mod skps;

pub use crd::Crd;
pub use member::MemberSet;
pub use multires::coarsen;
pub use regen::{regenerate, regeneration_error};
pub use rsp::Rsp;
pub use sgs::{CellStatus, Cells, Sgs, SkeletalCell};
pub use skps::SkPs;
