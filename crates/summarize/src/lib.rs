//! # sgs-summarize
//!
//! Cluster summarization (§4 and §6 of the paper):
//!
//! * [`Sgs`] — **Skeletal Grid Summarization** (Def. 4.4), the paper's
//!   contribution: non-overlapping grid cells carrying location, side
//!   length, population, status (core/edge) and a connection vector,
//! * [`multires`] — the multi-resolution hierarchy of §6.1 (level-n cells
//!   combine θ^d level-(n−1) cells),
//! * [`codec`] — the one lossless SGS encoding, which the wire sends and
//!   the durable archive stores, and
//! * [`packed`] — §8.2's byte count (23 bytes per 4-d cell), the formula
//!   behind the ~98 % compression accounting; nothing is written in it.
//!
//! The formats the evaluation compares SGS against (CRD, RSP, SkPS) live
//! with the figures that measure them, in `sgs-bench`'s `baselines`.

pub mod codec;
pub mod member;
pub mod multires;
pub mod packed;
pub mod sgs;

pub use member::MemberSet;
pub use multires::coarsen;
pub use sgs::{CellStatus, CellView, Cells, CellsBuilder, Sgs};
