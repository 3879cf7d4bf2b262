//! # sgs-index
//!
//! Index substrates for streamsum, all built from scratch:
//!
//! * [`GridIndex`] — the uniform in-memory grid the pattern extractor uses
//!   for range-query searches (one per new object, §5.4): occupied cells
//!   kept by row, walked by [`ReachWalker`], which a per-bucket count of
//!   occupied rows spares the map probe of most empty rows,
//! * [`Rect`] — the axis-aligned minimum bounding rectangle the pattern
//!   base keeps per archived cluster and a position-sensitive MATCH tests
//!   for overlap (§7.1),
//! * [`UnionFind`] — disjoint sets with path compression, used by Extra-N's
//!   per-view cluster formation and by C-SGS's output stage, and
//! * [`FxHashMap`]/[`FxHashSet`] — hash containers with a fast
//!   multiply-xor hasher (FxHash), since cell-coordinate hashing is on the
//!   hot path of every insertion.

pub mod fx;
pub mod grid;
pub mod rect;
pub mod union_find;

pub use fx::{FxBuildHasher, FxHashMap, FxHashSet};
pub use grid::{CellSlab, GridIndex, ReachWalker};
pub use rect::Rect;
pub use union_find::UnionFind;
