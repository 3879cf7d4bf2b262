//! # sgs-core
//!
//! Core types shared by every crate in the `streamsum` workspace, the Rust
//! reproduction of *"Summarization and Matching of Density-Based Clusters in
//! Streaming Environments"* (Yang, Rundensteiner, Ward — VLDB 2011).
//!
//! This crate defines:
//!
//! * [`Point`] — a timestamped multi-dimensional stream object (§3.1 of the
//!   paper),
//! * [`CellCoord`] and [`GridGeometry`] — the uniform grid whose cell
//!   diagonal equals the range threshold θr, the geometric foundation of the
//!   Skeletal Grid Summarization (§4.3),
//! * [`WindowSpec`] — periodic sliding-window semantics (CQL-style, §3.1),
//! * [`ClusterQuery`] — the parameters of a continuous clustering query
//!   (θr, θc, win, slide — Figure 2 of the paper),
//! * [`HeapSize`] — deterministic deep-size accounting used by every
//!   memory-footprint experiment, and
//! * strongly-typed identifiers ([`PointId`], [`WindowId`]).
//!
//! Nothing in this crate allocates on hot paths beyond the coordinate
//! buffers owned by the points themselves.

pub mod cell;
pub mod config;
pub mod error;
pub mod ids;
pub mod kernel;
pub mod memsize;
pub mod point;
pub mod window;

pub use cell::{CellCoord, Coords, GridGeometry};
pub use config::{ClusterQuery, PoolThreads, ShardCount};
pub use error::{Error, Result};
pub use ids::{PointId, WindowId};
pub use memsize::HeapSize;
pub use point::{dist, dist_sq, Point};
pub use window::{WindowKind, WindowSpec};
