//! The uniform grid index used by the pattern extractor (§5.4).
//!
//! Every arriving object is loaded into its cell, then a single **range
//! query search** (RQS) finds its neighbors by scanning the bounded set of
//! reachable cells (`(2·reach+1)^d`, see [`GridGeometry::reachable_cells`])
//! and pruning by true distance. Because the basic cell diagonal equals θr,
//! all points co-located in a cell are mutual neighbors (Lemma 4.1) — the
//! index exposes per-cell buckets so algorithms can exploit that.
//!
//! There is one reachability walk, [`ReachWalker`]: box-pruned,
//! region-routed, allocation-free once built. [`GridIndex::range_query`]
//! runs it over its own grid; sharded C-SGS runs the same walker over the
//! grids of all its shards.
//!
//! Cell storage is structure-of-arrays ([`CellSlab`]): each cell keeps one
//! contiguous coordinate slab plus parallel id/expiry columns, so the
//! distance pruning of an RQS feeds whole cells into the batched
//! [`sgs_core::kernel`] with zero pointer chasing (`DESIGN.md` §13).

use sgs_core::{kernel, CellCoord, GridGeometry, HeapSize, Point, PointId, WindowId};

use crate::fx::FxHashMap;
use crate::region::ShardRouter;

/// The points of one grid cell, stored column-wise: `coords` holds the
/// cell's points back to back (`dim` consecutive `f64`s per point, the
/// same slab layout the [`sgs_core::kernel`] batch primitives consume),
/// with `ids[j]` / `expires[j]` the id and expiry window of the point at
/// slab position `j`. Expiry rides inline because C-SGS discovery reads
/// every neighbor's expiry and a point's expiry is fixed at arrival
/// (`DESIGN.md` §1) — the copy can never go stale while indexed.
#[derive(Clone, Debug, Default)]
pub struct CellSlab {
    ids: Vec<PointId>,
    expires: Vec<WindowId>,
    coords: Vec<f64>,
}

/// The bucket returned for cells with no live points.
static EMPTY_SLAB: CellSlab = CellSlab {
    ids: Vec::new(),
    expires: Vec::new(),
    coords: Vec::new(),
};

impl CellSlab {
    /// Number of points in the cell.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the cell holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The ids column, slab order.
    #[inline]
    pub fn ids(&self) -> &[PointId] {
        &self.ids
    }

    /// The expiry column, slab order.
    #[inline]
    pub fn expires(&self) -> &[WindowId] {
        &self.expires
    }

    /// The contiguous point-major coordinate slab.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Id of the point at slab position `j`.
    #[inline]
    pub fn id(&self, j: usize) -> PointId {
        self.ids[j]
    }

    /// Expiry window of the point at slab position `j`.
    #[inline]
    pub fn expires_at(&self, j: usize) -> WindowId {
        self.expires[j]
    }

    /// Coordinates of the point at slab position `j`.
    #[inline]
    pub fn point(&self, j: usize) -> &[f64] {
        let d = self.dim();
        &self.coords[j * d..j * d + d]
    }

    /// Coordinate count per point (0 for an empty slab).
    #[inline]
    fn dim(&self) -> usize {
        if self.ids.is_empty() {
            0
        } else {
            self.coords.len() / self.ids.len()
        }
    }

    fn push(&mut self, id: PointId, coords: &[f64], expires_at: WindowId) {
        self.ids.push(id);
        self.expires.push(expires_at);
        self.coords.extend_from_slice(coords);
    }

    /// Remove position `pos` by swapping the last point into the hole —
    /// all three columns move in lockstep so slab positions stay aligned.
    fn swap_remove(&mut self, pos: usize) {
        let d = self.dim();
        let last = self.ids.len() - 1;
        self.ids.swap_remove(pos);
        self.expires.swap_remove(pos);
        if pos != last {
            let (head, tail) = self.coords.split_at_mut(last * d);
            head[pos * d..pos * d + d].copy_from_slice(&tail[..d]);
        }
        self.coords.truncate(last * d);
    }

    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * core::mem::size_of::<PointId>()
            + self.expires.capacity() * core::mem::size_of::<WindowId>()
            + self.coords.capacity() * core::mem::size_of::<f64>()
    }
}

/// Uniform grid over the data space, bucketing live points by cell.
#[derive(Clone, Debug)]
pub struct GridIndex {
    geometry: GridGeometry,
    cells: FxHashMap<CellCoord, CellSlab>,
    len: usize,
}

impl GridIndex {
    /// Empty index with the given geometry.
    pub fn new(geometry: GridGeometry) -> Self {
        GridIndex {
            geometry,
            cells: FxHashMap::default(),
            len: 0,
        }
    }

    /// The grid geometry.
    #[inline]
    pub fn geometry(&self) -> &GridGeometry {
        &self.geometry
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of non-empty cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Insert a non-expiring point (entry expiry pinned to the maximum
    /// window); returns the cell it landed in.
    pub fn insert(&mut self, id: PointId, point: &Point) -> CellCoord {
        self.insert_expiring(id, point, WindowId::MAX)
    }

    /// Insert a point together with its expiry window, stored inline in
    /// the cell slab so range-query consumers read it without a point-map
    /// lookup; returns the cell it landed in.
    pub fn insert_expiring(
        &mut self,
        id: PointId,
        point: &Point,
        expires_at: WindowId,
    ) -> CellCoord {
        let cell = self.geometry.cell_of(point);
        // Established cells (the overwhelmingly common case) take the
        // `get_mut` fast path; the key is cloned only when the insert
        // actually creates a new cell.
        if let Some(slab) = self.cells.get_mut(&cell) {
            slab.push(id, &point.coords, expires_at);
        } else {
            let mut slab = CellSlab::default();
            slab.push(id, &point.coords, expires_at);
            self.cells.insert(cell.clone(), slab);
        }
        self.len += 1;
        cell
    }

    /// Insert a point whose cell is already known (the re-shard move
    /// path): same effect as [`insert_expiring`](Self::insert_expiring)
    /// without recomputing the cell from the geometry.
    pub fn insert_at(
        &mut self,
        cell: &CellCoord,
        id: PointId,
        coords: &[f64],
        expires_at: WindowId,
    ) {
        if let Some(slab) = self.cells.get_mut(cell) {
            slab.push(id, coords, expires_at);
        } else {
            let mut slab = CellSlab::default();
            slab.push(id, coords, expires_at);
            self.cells.insert(cell.clone(), slab);
        }
        self.len += 1;
    }

    /// Remove a point from the cell it was inserted into. Returns `true`
    /// if it was present.
    pub fn remove(&mut self, id: PointId, cell: &CellCoord) -> bool {
        let Some(slab) = self.cells.get_mut(cell) else {
            return false;
        };
        let Some(pos) = slab.ids.iter().position(|&e| e == id) else {
            return false;
        };
        slab.swap_remove(pos);
        if slab.is_empty() {
            self.cells.remove(cell);
        }
        self.len -= 1;
        true
    }

    /// The live points currently bucketed in `cell` (an empty slab when
    /// the cell has none).
    #[inline]
    pub fn cell_points(&self, cell: &CellCoord) -> &CellSlab {
        self.cells.get(cell).unwrap_or(&EMPTY_SLAB)
    }

    /// Iterate over all non-empty cells.
    pub fn cells(&self) -> impl Iterator<Item = (&CellCoord, &CellSlab)> {
        self.cells.iter()
    }

    /// Range query search: every indexed point within `theta_r` of `coords`,
    /// excluding `exclude` (the querying point itself, per Def. 3.1 a point
    /// is not its own neighbor). Results are appended to `out`.
    ///
    /// This is the single-grid form of [`ReachWalker::for_each_neighbor`];
    /// it builds a walker per call, so callers issuing one query per
    /// arriving object (C-SGS) hold a [`ReachWalker`] instead.
    pub fn range_query(
        &self,
        coords: &[f64],
        theta_r: f64,
        exclude: PointId,
        out: &mut Vec<PointId>,
    ) {
        // `GridGeometry::cell_of`, over a coordinate slice: building a
        // `Point` to call it costs 7–8 % of a 4-d query.
        let side = self.geometry.side();
        let center = CellCoord(coords.iter().map(|&x| (x / side).floor() as i32).collect());
        ReachWalker::new(&self.geometry, &ShardRouter::new(1, 1)).for_each_neighbor(
            |_| self,
            &center,
            coords,
            theta_r * theta_r,
            exclude,
            |_, id, _| out.push(id),
        );
    }
}

/// The box-pruned walk over a cell's reachability block — the one
/// enumeration behind every range query search, over one grid
/// ([`GridIndex::range_query`]) or over the region-routed grids of sharded
/// C-SGS (`DESIGN.md` §6, §13).
///
/// It visits the `(2·reach + 1)^d` cells [`GridGeometry::reachable_cells`]
/// yields, grouped by *region* so each region of the block is routed to
/// its owning shard once instead of hashing every cell (a region is at
/// least as wide as the reach, so a block spans at most 3 regions per
/// dimension; with one shard the whole block is one region). The odometer
/// state is reused across queries: a walk allocates nothing.
#[derive(Clone, Debug)]
pub struct ReachWalker {
    reach: i32,
    side: f64,
    router: ShardRouter,
    /// Odometer over the cells of the current region's sub-block.
    cell: CellCoord,
    /// Five `d`-vectors in one buffer: the odometer over the block's
    /// regions and its inclusive lower and upper bounds, then the
    /// inclusive lower and upper cell bounds of the current region's
    /// sub-block.
    odo: Vec<i32>,
}

/// Advance `cur` one position through the integer box whose per-dimension
/// inclusive bounds `bounds` yields, dimension 0 fastest (the
/// [`GridGeometry::reachable_cells`] order). Returns `false` once the box
/// is exhausted, leaving `cur` back at its first position.
#[inline]
fn odometer_step(cur: &mut [i32], bounds: impl Fn(usize) -> (i32, i32)) -> bool {
    for (i, c) in cur.iter_mut().enumerate() {
        let (lo, hi) = bounds(i);
        if *c < hi {
            *c += 1;
            return true;
        }
        *c = lo;
    }
    false
}

impl ReachWalker {
    /// Walker for grids of `geometry` whose cells `router` assigns to
    /// shards.
    pub fn new(geometry: &GridGeometry, router: &ShardRouter) -> Self {
        let d = geometry.dim();
        ReachWalker {
            reach: geometry.reach(),
            side: geometry.side(),
            router: router.clone(),
            cell: CellCoord::new(vec![0; d]),
            odo: vec![0; 5 * d],
        }
    }

    /// Call `f(owner, cell, slab)` for every non-empty cell of the
    /// reachability block around `center` (the cell containing `coords`,
    /// from [`GridGeometry::cell_of`]), reading shard `owner`'s cells from
    /// `grids(owner)`.
    ///
    /// Cells whose bounding box provably sits farther than `theta_sq`
    /// from the query are skipped *before* the hash probe: the block
    /// over-covers the θr-ball (its corner cells mostly lie outside it),
    /// and a few flops of box-clamping are much cheaper than a map lookup.
    /// The skip threshold carries a 16 ε relative margin so floating-point
    /// rounding in the box arithmetic can only ever err toward *visiting*
    /// a cell — pruning never changes the match set.
    fn for_each_slab<'a>(
        &mut self,
        grids: impl Fn(usize) -> &'a GridIndex,
        center: &CellCoord,
        coords: &[f64],
        theta_sq: f64,
        mut f: impl FnMut(usize, &CellCoord, &'a CellSlab),
    ) {
        let ReachWalker {
            reach,
            side,
            ref router,
            ref mut cell,
            ref mut odo,
        } = *self;
        let d = cell.0.len();
        debug_assert_eq!(coords.len(), d);
        let mut parts = odo.chunks_exact_mut(d);
        let [reg, rlo, rhi, lo, hi] = std::array::from_fn(|_| parts.next().expect("5·d buffer"));
        let prune = theta_sq + theta_sq * 16.0 * f64::EPSILON;
        // One shard owns every region: walk the block as a single region.
        let width = (router.shards() > 1).then(|| router.width());
        // Saturating: a centre cell at the edge of the `i32` range (a
        // coordinate `cell_of` saturated) clips its block instead of
        // wrapping it to the far side of the grid.
        let block = |i: usize| {
            (
                center.0[i].saturating_sub(reach),
                center.0[i].saturating_add(reach),
            )
        };
        for i in 0..d {
            (rlo[i], rhi[i]) = match width {
                Some(w) => (block(i).0.div_euclid(w), block(i).1.div_euclid(w)),
                None => (0, 0),
            };
            reg[i] = rlo[i];
        }
        loop {
            let owner = router.shard_of_region(reg);
            let grid = grids(owner);
            if !grid.is_empty() {
                // The cells of the block that fall in this region.
                for i in 0..d {
                    let (b_lo, b_hi) = block(i);
                    (lo[i], hi[i]) = match width {
                        Some(w) => {
                            // In `i64`: the region holding a clipped
                            // block's edge can start below `i32::MIN`;
                            // the clamped bounds lie within the block.
                            let first = i64::from(reg[i]) * i64::from(w);
                            let last = first + i64::from(w) - 1;
                            (
                                i64::from(b_lo).max(first) as i32,
                                i64::from(b_hi).min(last) as i32,
                            )
                        }
                        None => (b_lo, b_hi),
                    };
                    cell.0[i] = lo[i];
                }
                loop {
                    // Minimum squared distance from the query to the
                    // cell's box.
                    let mut min_sq = 0.0;
                    for (&ci, &c) in cell.0.iter().zip(coords) {
                        let lo_edge = ci as f64 * side;
                        let hi_edge = lo_edge + side;
                        let delta = if c < lo_edge {
                            lo_edge - c
                        } else if c > hi_edge {
                            c - hi_edge
                        } else {
                            0.0
                        };
                        min_sq += delta * delta;
                    }
                    if min_sq <= prune {
                        if let Some(slab) = grid.cells.get(cell) {
                            f(owner, cell, slab);
                        }
                    }
                    if !odometer_step(&mut cell.0, |i| (lo[i], hi[i])) {
                        break;
                    }
                }
            }
            if !odometer_step(reg, |i| (rlo[i], rhi[i])) {
                break;
            }
        }
    }

    /// The range query search: call `found(owner, id, expires_at)` for
    /// every indexed point within `theta_sq` (squared distance) of
    /// `coords`, excluding `exclude` — the querying point itself, which
    /// Def. 3.1 does not count as its own neighbor. `center` is the cell
    /// containing `coords` (from [`GridGeometry::cell_of`]) and
    /// `grids(owner)` the grid of shard `owner`.
    ///
    /// Each visited cell's slab is fed whole into the batched distance
    /// kernel; the self-exclusion check runs once per *match*, not once
    /// per candidate, and the expiry rides inline in the slab, so
    /// discovery touches no point map.
    pub fn for_each_neighbor<'a>(
        &mut self,
        grids: impl Fn(usize) -> &'a GridIndex,
        center: &CellCoord,
        coords: &[f64],
        theta_sq: f64,
        exclude: PointId,
        mut found: impl FnMut(usize, PointId, WindowId),
    ) {
        self.for_each_slab(grids, center, coords, theta_sq, |owner, _, slab| {
            kernel::for_each_within(coords, &slab.coords, theta_sq, |j| {
                let id = slab.ids[j];
                if id != exclude {
                    found(owner, id, slab.expires[j]);
                }
            });
        });
    }
}

impl HeapSize for GridIndex {
    fn heap_size(&self) -> usize {
        let mut bytes = self.cells.capacity() * (core::mem::size_of::<(CellCoord, CellSlab)>() + 1);
        for (c, slab) in &self.cells {
            bytes += c.heap_size();
            bytes += slab.heap_bytes();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::GridGeometry;

    fn index2d(theta_r: f64) -> GridIndex {
        GridIndex::new(GridGeometry::basic(2, theta_r))
    }

    fn pt(x: f64, y: f64) -> Point {
        Point::new(vec![x, y], 0)
    }

    #[test]
    fn insert_and_cell_lookup() {
        let mut g = index2d(1.0);
        let c = g.insert(PointId(0), &pt(0.1, 0.1));
        assert_eq!(g.len(), 1);
        assert_eq!(g.cell_points(&c).len(), 1);
        assert_eq!(g.cell_count(), 1);
    }

    #[test]
    fn range_query_finds_exact_neighbors() {
        let mut g = index2d(1.0);
        g.insert(PointId(0), &pt(0.0, 0.0));
        g.insert(PointId(1), &pt(0.5, 0.0)); // dist 0.5 → neighbor
        g.insert(PointId(2), &pt(1.0, 0.0)); // dist 1.0 → neighbor (inclusive)
        g.insert(PointId(3), &pt(1.01, 0.0)); // just outside
        g.insert(PointId(4), &pt(5.0, 5.0)); // far away
        let mut out = Vec::new();
        g.range_query(&[0.0, 0.0], 1.0, PointId(0), &mut out);
        out.sort();
        assert_eq!(out, vec![PointId(1), PointId(2)]);
    }

    #[test]
    fn range_query_excludes_self_only() {
        let mut g = index2d(1.0);
        g.insert(PointId(0), &pt(0.0, 0.0));
        g.insert(PointId(1), &pt(0.0, 0.0)); // coincident distinct point
        let mut out = Vec::new();
        g.range_query(&[0.0, 0.0], 1.0, PointId(0), &mut out);
        assert_eq!(out, vec![PointId(1)]);
    }

    #[test]
    fn remove_clears_cells() {
        let mut g = index2d(1.0);
        let c0 = g.insert(PointId(0), &pt(0.0, 0.0));
        let c1 = g.insert(PointId(1), &pt(10.0, 10.0));
        assert!(g.remove(PointId(0), &c0));
        assert!(!g.remove(PointId(0), &c0));
        assert_eq!(g.len(), 1);
        assert_eq!(g.cell_count(), 1);
        assert!(g.remove(PointId(1), &c1));
        assert!(g.is_empty());
    }

    #[test]
    fn swap_remove_keeps_slab_columns_aligned() {
        let mut g = index2d(10.0); // wide cells → everything co-located
        let c = g.insert(PointId(0), &pt(0.0, 0.0));
        g.insert_expiring(PointId(1), &pt(1.0, 1.0), WindowId(11));
        g.insert_expiring(PointId(2), &pt(2.0, 2.0), WindowId(22));
        assert!(g.remove(PointId(0), &c));
        let slab = g.cell_points(&c);
        assert_eq!(slab.len(), 2);
        for j in 0..slab.len() {
            let id = slab.id(j);
            assert_eq!(slab.point(j), &[id.0 as f64, id.0 as f64]);
            assert_eq!(slab.expires_at(j), WindowId(11 * id.0 as u64));
        }
    }

    #[test]
    fn range_query_matches_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let theta = 0.3;
        let mut g = index2d(theta);
        let pts: Vec<Point> = (0..400)
            .map(|_| pt(rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)))
            .collect();
        for (i, p) in pts.iter().enumerate() {
            g.insert(PointId(i as u32), p);
        }
        for (i, p) in pts.iter().enumerate() {
            let mut fast = Vec::new();
            g.range_query(&p.coords, theta, PointId(i as u32), &mut fast);
            fast.sort();
            let mut slow: Vec<PointId> = pts
                .iter()
                .enumerate()
                .filter(|(j, q)| *j != i && p.is_neighbor(q, theta))
                .map(|(j, _)| PointId(j as u32))
                .collect();
            slow.sort();
            assert_eq!(fast, slow, "point {i}");
        }
    }

    /// The walker visits exactly the occupied cells of
    /// [`GridGeometry::reachable_cells`] whose box lies within the pruning
    /// radius of the query — for one grid and for region-routed grids, in
    /// the benchmark's two dimensionalities — and reports each cell's
    /// points with their owning shard and inline expiry.
    #[test]
    fn walker_visits_exactly_the_reachable_cells_that_survive_the_box_prune() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let theta = 0.5;
        for (dim, shards) in [(2, 1), (2, 4), (4, 1), (4, 3)] {
            let geometry = GridGeometry::basic(dim, theta);
            let (side, theta_sq) = (geometry.side(), theta * theta);
            let router = ShardRouter::new(2 * geometry.reach() + 1, shards);
            let mut walker = ReachWalker::new(&geometry, &router);
            for _ in 0..20 {
                let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let center = geometry.cell_of(&Point::new(q.clone(), 0));
                // One point in the middle of every cell of a box one cell
                // wider than the reachability block, in its owner's grid.
                let mut grids: Vec<GridIndex> = (0..shards)
                    .map(|_| GridIndex::new(geometry.clone()))
                    .collect();
                let wide = GridGeometry::with_side(dim, theta + side, side);
                for (n, cell) in wide.reachable_cells(&center).iter().enumerate() {
                    let at = Point::new(geometry.center(cell), 0);
                    grids[router.shard_of(cell)].insert_expiring(
                        PointId(n as u32),
                        &at,
                        WindowId(n as u64),
                    );
                }
                let mut want: Vec<CellCoord> = geometry
                    .reachable_cells(&center)
                    .into_iter()
                    .filter(|cell| {
                        let min_sq: f64 = cell
                            .0
                            .iter()
                            .zip(&q)
                            .map(|(&ci, &c)| {
                                let lo = ci as f64 * side;
                                (c.clamp(lo, lo + side) - c).powi(2)
                            })
                            .sum();
                        min_sq <= theta_sq + theta_sq * 16.0 * f64::EPSILON
                    })
                    .collect();
                want.sort();
                let mut got = Vec::new();
                walker.for_each_slab(
                    |o| &grids[o],
                    &center,
                    &q,
                    theta_sq,
                    |owner, cell, slab| {
                        assert_eq!(owner, router.shard_of(cell));
                        assert_eq!(slab.len(), 1);
                        assert_eq!(slab.expires_at(0).0, slab.id(0).0 as u64);
                        got.push(cell.clone());
                    },
                );
                got.sort();
                assert_eq!(got, want, "dim {dim}, S = {shards}, query {q:?}");
            }
        }
    }

    /// A block around a cell on the rim of the `i32` range is clipped to
    /// the range, for one grid and for region-routed grids (whose rim
    /// region starts below `i32::MIN`): no overflow, and the centre cell
    /// is still visited exactly once, under its owner.
    #[test]
    fn walk_on_the_rim_of_the_cell_range_clips_instead_of_wrapping() {
        let geometry = GridGeometry::basic(2, 0.5);
        let side = geometry.side();
        let q = [
            (f64::from(i32::MAX) + 0.5) * side,
            (f64::from(i32::MIN) + 0.5) * side,
        ];
        let at = Point::new(q.to_vec(), 0);
        let corner = geometry.cell_of(&at);
        assert_eq!(*corner.0, [i32::MAX, i32::MIN]);
        for shards in [1, 3] {
            let router = ShardRouter::new(2 * geometry.reach() + 1, shards);
            let mut grids: Vec<GridIndex> = (0..shards)
                .map(|_| GridIndex::new(geometry.clone()))
                .collect();
            grids[router.shard_of(&corner)].insert(PointId(7), &at);
            let mut seen = Vec::new();
            ReachWalker::new(&geometry, &router).for_each_slab(
                |o| &grids[o],
                &corner,
                &q,
                0.25,
                |owner, cell, slab| seen.push((owner, cell.clone(), slab.id(0))),
            );
            let want = (router.shard_of(&corner), corner.clone(), PointId(7));
            assert_eq!(seen, [want], "S = {shards}");
        }
    }

    #[test]
    fn plain_insert_pins_expiry_to_max() {
        let mut g = index2d(1.0);
        let c = g.insert(PointId(0), &pt(0.1, 0.1));
        assert_eq!(g.cell_points(&c).expires_at(0), WindowId::MAX);
    }

    #[test]
    fn heap_size_grows_with_content() {
        let mut g = index2d(1.0);
        let before = g.heap_size();
        for i in 0..100 {
            g.insert(PointId(i), &pt(i as f64, 0.0));
        }
        assert!(g.heap_size() > before);
    }
}
