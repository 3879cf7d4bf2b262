//! Region hashing: routing grid cells to extraction shards.
//!
//! Sharded C-SGS (`DESIGN.md` §6) partitions a query's extraction state by
//! *grid region* — a hypercube of `width^d` basic cells. The region width
//! is chosen at least as large as the range-query reach
//! ([`GridGeometry::reach`](sgs_core::GridGeometry::reach)), so any point's
//! ε-neighborhood spans at most the 3^d regions adjacent to its own: a
//! shard resolving neighbors only ever reads its own and adjacent shards'
//! indexes.
//!
//! Routing is `FxHash(region coordinates) mod S` — deterministic across
//! runs and processes (the hasher is seeded with compile-time constants),
//! which the sharded extractor's reproducibility relies on.

use std::hash::Hasher;

use sgs_core::{CellCoord, GridGeometry};

use crate::fx::FxHasher;

/// Deterministic cell → shard routing by coarsened (region) coordinate.
#[derive(Clone, Debug)]
pub struct ShardRouter {
    width: i32,
    shards: u32,
}

impl ShardRouter {
    /// Router over `shards` shards with regions `width` cells wide.
    ///
    /// # Panics
    /// Panics if `width < 1` or `shards < 1`.
    pub fn new(width: i32, shards: usize) -> Self {
        assert!(width >= 1, "region width must be at least one cell");
        assert!(shards >= 1, "at least one shard is required");
        ShardRouter {
            width,
            shards: shards as u32,
        }
    }

    /// Number of shards routed over.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// Region width in cells.
    #[inline]
    pub fn width(&self) -> i32 {
        self.width
    }

    /// The region coordinate of a cell (floor division per dimension).
    pub fn region_of(&self, cell: &CellCoord) -> CellCoord {
        CellCoord(cell.0.iter().map(|c| c.div_euclid(self.width)).collect())
    }

    /// The shard owning a cell. Allocation-free: hashes the region
    /// coordinates without materializing them.
    #[inline]
    pub fn shard_of(&self, cell: &CellCoord) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let mut h = FxHasher::default();
        for c in cell.0.iter() {
            h.write_u32(c.div_euclid(self.width) as u32);
        }
        (h.finish() % self.shards as u64) as usize
    }

    /// The shard owning an already-coarsened region coordinate — for
    /// callers that enumerate whole regions (the sharded range-query
    /// search visits each region of a reachability block once instead of
    /// routing every cell).
    #[inline]
    pub fn shard_of_region(&self, region: &[i32]) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let mut h = FxHasher::default();
        for &r in region {
            h.write_u32(r as u32);
        }
        (h.finish() % self.shards as u64) as usize
    }

    /// The shard owning the cell a *point* falls in — equivalent to
    /// `shard_of(geometry.cell_of(point))` but without materializing the
    /// cell coordinate (batch bucketing runs this once per arriving
    /// object).
    #[inline]
    pub fn shard_of_coords(&self, coords: &[f64], geometry: &GridGeometry) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let mut h = FxHasher::default();
        for &x in coords {
            let cell = geometry.cell_index(x);
            h.write_u32(cell.div_euclid(self.width) as u32);
        }
        (h.finish() % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc(v: &[i32]) -> CellCoord {
        CellCoord::new(v.to_vec())
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(2, 1);
        assert_eq!(r.shard_of(&cc(&[5, -3])), 0);
        assert_eq!(r.shard_of(&cc(&[-100, 100])), 0);
    }

    #[test]
    fn cells_of_one_region_share_a_shard() {
        let r = ShardRouter::new(3, 4);
        // Cells 0..3 per dimension are all region (0, 0).
        let base = r.shard_of(&cc(&[0, 0]));
        for x in 0..3 {
            for y in 0..3 {
                assert_eq!(r.shard_of(&cc(&[x, y])), base);
            }
        }
        assert_eq!(r.region_of(&cc(&[2, 2])), cc(&[0, 0]));
        // Negative coordinates floor toward -infinity, not zero.
        assert_eq!(r.region_of(&cc(&[-1, -3])), cc(&[-1, -1]));
        assert_eq!(r.shard_of(&cc(&[-1, -1])), r.shard_of(&cc(&[-3, -3])));
    }

    #[test]
    fn shard_of_region_matches_cell_routing() {
        let r = ShardRouter::new(2, 8);
        for x in -15..15 {
            for y in -15..15 {
                let cell = cc(&[x, y]);
                let region: Vec<i32> = cell.0.iter().map(|c| c.div_euclid(2)).collect();
                assert_eq!(r.shard_of(&cell), r.shard_of_region(&region));
            }
        }
    }

    #[test]
    fn shard_of_coords_matches_cell_routing() {
        use sgs_core::Point;
        let g = GridGeometry::basic(2, 0.7);
        let r = ShardRouter::new(g.reach(), 4);
        for i in 0..200 {
            let coords = vec![(i as f64 * 0.37) - 20.0, (i as f64 * 0.91) - 30.0];
            let cell = g.cell_of(&Point::new(coords.clone(), 0));
            assert_eq!(r.shard_of_coords(&coords, &g), r.shard_of(&cell));
        }
    }

    #[test]
    fn routing_is_deterministic_and_spreads() {
        let r = ShardRouter::new(2, 4);
        let mut seen = [false; 4];
        for x in -20..20 {
            for y in -20..20 {
                let s = r.shard_of(&cc(&[x * 2, y * 2]));
                assert!(s < 4);
                assert_eq!(s, r.shard_of(&cc(&[x * 2, y * 2])));
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all shards should receive regions");
    }
}
