//! # sgs-index
//!
//! Index substrates for streamsum, all built from scratch:
//!
//! * [`GridIndex`] — the uniform in-memory grid the pattern extractor uses
//!   for range-query searches (one per new object, §5.4): occupied cells
//!   kept by row, walked by [`ReachWalker`], which a per-bucket count of
//!   occupied rows spares the map probe of most empty rows,
//! * [`RTree`] — the locational feature index of the pattern base (§7.1):
//!   an R-tree over cluster minimum bounding rectangles with quadratic
//!   split,
//! * [`FeatureGrid`] — the non-locational feature index of the pattern base
//!   (§7.1): a multi-dimensional grid over (volume, core-cell count, average
//!   density, average connectivity),
//! * [`UnionFind`] — disjoint sets with path compression, used by Extra-N's
//!   per-view cluster formation and by C-SGS's output stage, and
//! * [`FxHashMap`]/[`FxHashSet`] — hash containers with a fast
//!   multiply-xor hasher (FxHash), since cell-coordinate hashing is on the
//!   hot path of every insertion.

pub mod feature_grid;
pub mod fx;
pub mod grid;
pub mod rtree;
pub mod union_find;

pub use feature_grid::FeatureGrid;
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet};
pub use grid::{CellSlab, GridIndex, ReachWalker};
pub use rtree::{RTree, Rect};
pub use union_find::UnionFind;
