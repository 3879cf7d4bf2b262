//! The uniform grid index used by the pattern extractor (§5.4).
//!
//! Every arriving object is loaded into its cell, then a single **range
//! query search** (RQS) finds its neighbors by scanning the bounded set of
//! reachable cells (`(2·reach+1)^d`, see [`GridGeometry::reachable_cells`])
//! and pruning by true distance. Because the basic cell diagonal equals θr,
//! all points co-located in a cell are mutual neighbors (Lemma 4.1) — the
//! index exposes per-cell buckets so algorithms can exploit that.
//!
//! There is one reachability walk, [`ReachWalker`]: box-pruned and
//! allocation-free once built. [`GridIndex::range_query`] builds one per
//! call; C-SGS holds one for its one range query per arriving object.
//!
//! Occupied cells are kept by *row* — the cells that agree on every
//! coordinate but dimension 0, sorted by that coordinate — so the walk
//! scans only cells that exist, instead of probing every cell of the
//! block. The walk over the rows is nested, one level per dimension from
//! `d − 1` (outermost) down to 1: each level adds its squared gap to the
//! partial distance of the levels above it and its coordinate to their
//! partial row hash, and a partial distance past the prune threshold
//! skips the whole sub-block below it. The grid also counts its occupied
//! cells per coordinate of dimensions `2..d`, and the walk reads a
//! coordinate no cell holds as an infinite gap, so a coordinate slab of
//! the block that holds nothing is never stepped into. Dimension 1 needs
//! no count: a row filter — a count of occupied rows per hash bucket —
//! answers "empty" for most empty rows before the walk probes the row
//! map, and dimension 0 is the sorted row scan. Per `stt_insert` query
//! (4-d, 5⁴ cells) the flat row odometer this replaced stepped through
//! all 125 rows of the block and tested 84 past its box prune; the nested
//! walk evaluates about 85 positions over its three levels and reaches 53
//! rows (`DESIGN.md` §13).
//!
//! Cell storage is structure-of-arrays ([`CellSlab`]): each cell reads as
//! one contiguous coordinate slab plus parallel id/expiry columns, so the
//! distance pruning of an RQS feeds whole cells into the batched
//! [`sgs_core::kernel`] with zero pointer chasing. A cell of one point of
//! up to four dimensions — most cells, and the cell most arrivals open —
//! holds the point in place, and a row key of up to four coordinates is a
//! [`Coords`] held inline, so opening a cell allocates nothing and opening
//! a row allocates the row alone (`DESIGN.md` §13).

use sgs_core::{kernel, CellCoord, Coords, GridGeometry, HeapSize, Point, PointId, WindowId};

use crate::fx::FxHashMap;

/// The points of one grid cell. A cell of one point of up to four
/// coordinates (`ONE_POINT_DIMS`) holds it in place — most cells of the
/// paper's streams hold one point, and most arrivals open a cell — so it
/// costs no allocation. The second point spills the cell into three
/// columns sized for two points, and a first point of more dimensions
/// starts in them: `coords` holds the cell's points back to back (`dim`
/// consecutive `f64`s per point, the same slab layout the
/// [`sgs_core::kernel`] batch primitives consume), with `ids[j]` /
/// `expires[j]` the id and expiry window of the point at slab position
/// `j`. Either way every accessor reads a slice. Expiry
/// rides inline because C-SGS discovery reads every neighbor's expiry and
/// a point's expiry is fixed at arrival (`DESIGN.md` §1) — the copy can
/// never go stale while indexed.
#[derive(Clone, Debug)]
pub struct CellSlab(Slab);

/// The most coordinates a one-point cell holds in place.
const ONE_POINT_DIMS: usize = 4;

#[derive(Clone, Debug)]
enum Slab {
    /// One point, its coordinates in `coords[..dim]`.
    One {
        id: PointId,
        expires: WindowId,
        dim: u8,
        coords: [f64; ONE_POINT_DIMS],
    },
    /// Any number of points, column-wise.
    Columns {
        ids: Vec<PointId>,
        expires: Vec<WindowId>,
        coords: Vec<f64>,
    },
}

/// The bucket returned for cells with no live points.
static EMPTY_SLAB: CellSlab = CellSlab(Slab::Columns {
    ids: Vec::new(),
    expires: Vec::new(),
    coords: Vec::new(),
});

impl CellSlab {
    /// A cell holding the one point `id`.
    fn one(id: PointId, coords: &[f64], expires_at: WindowId) -> Self {
        let dim = coords.len();
        if dim <= ONE_POINT_DIMS {
            let mut held = [0.0; ONE_POINT_DIMS];
            held[..dim].copy_from_slice(coords);
            return CellSlab(Slab::One {
                id,
                expires: expires_at,
                dim: dim as u8,
                coords: held,
            });
        }
        let mut slab = EMPTY_SLAB.clone();
        slab.push(id, coords, expires_at);
        slab
    }

    /// The ids, expiry and coordinate columns, slab order.
    #[inline]
    fn columns(&self) -> (&[PointId], &[WindowId], &[f64]) {
        match &self.0 {
            Slab::One {
                id,
                expires,
                dim,
                coords,
            } => (
                core::slice::from_ref(id),
                core::slice::from_ref(expires),
                &coords[..usize::from(*dim)],
            ),
            Slab::Columns {
                ids,
                expires,
                coords,
            } => (ids, expires, coords),
        }
    }

    /// The columns to write, spilling a one-point cell into them first.
    fn columns_mut(&mut self) -> (&mut Vec<PointId>, &mut Vec<WindowId>, &mut Vec<f64>) {
        if let Slab::One {
            id,
            expires,
            dim,
            coords,
        } = self.0
        {
            // Sized for the two points a spilled cell most often holds.
            let d = usize::from(dim);
            let (mut ids, mut expiry) = (Vec::with_capacity(2), Vec::with_capacity(2));
            let mut slab = Vec::with_capacity(2 * d);
            ids.push(id);
            expiry.push(expires);
            slab.extend_from_slice(&coords[..d]);
            self.0 = Slab::Columns {
                ids,
                expires: expiry,
                coords: slab,
            };
        }
        match &mut self.0 {
            Slab::Columns {
                ids,
                expires,
                coords,
            } => (ids, expires, coords),
            Slab::One { .. } => unreachable!("spilled above"),
        }
    }

    /// Number of points in the cell.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids().len()
    }

    /// Whether the cell holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids().is_empty()
    }

    /// The ids column, slab order.
    #[inline]
    pub fn ids(&self) -> &[PointId] {
        self.columns().0
    }

    /// The expiry column, slab order.
    #[inline]
    pub fn expires(&self) -> &[WindowId] {
        self.columns().1
    }

    /// The contiguous point-major coordinate slab.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        self.columns().2
    }

    /// Id of the point at slab position `j`.
    #[inline]
    pub fn id(&self, j: usize) -> PointId {
        self.ids()[j]
    }

    /// Expiry window of the point at slab position `j`.
    #[inline]
    pub fn expires_at(&self, j: usize) -> WindowId {
        self.expires()[j]
    }

    /// Coordinates of the point at slab position `j`.
    #[inline]
    pub fn point(&self, j: usize) -> &[f64] {
        let d = self.dim();
        &self.coords()[j * d..j * d + d]
    }

    /// Coordinate count per point (0 for an empty slab).
    #[inline]
    fn dim(&self) -> usize {
        let (ids, _, coords) = self.columns();
        if ids.is_empty() {
            0
        } else {
            coords.len() / ids.len()
        }
    }

    fn push(&mut self, id: PointId, coords: &[f64], expires_at: WindowId) {
        let (ids, expires, slab) = self.columns_mut();
        ids.push(id);
        expires.push(expires_at);
        slab.extend_from_slice(coords);
    }

    /// Remove position `pos` of a cell of two or more points by swapping
    /// the last point into the hole — all three columns move in lockstep
    /// so slab positions stay aligned. (A cell's last point leaves with
    /// the cell.)
    fn swap_remove(&mut self, pos: usize) {
        let d = self.dim();
        let (ids, expires, coords) = self.columns_mut();
        let last = ids.len() - 1;
        ids.swap_remove(pos);
        expires.swap_remove(pos);
        if pos != last {
            let (head, tail) = coords.split_at_mut(last * d);
            head[pos * d..pos * d + d].copy_from_slice(&tail[..d]);
        }
        coords.truncate(last * d);
    }

    fn heap_bytes(&self) -> usize {
        match &self.0 {
            Slab::One { .. } => 0,
            Slab::Columns {
                ids,
                expires,
                coords,
            } => {
                ids.capacity() * core::mem::size_of::<PointId>()
                    + expires.capacity() * core::mem::size_of::<WindowId>()
                    + coords.capacity() * core::mem::size_of::<f64>()
            }
        }
    }
}

/// One row of the grid: the occupied cells that agree on every coordinate
/// except dimension 0, each with its dimension-0 coordinate, sorted by it.
/// Grown one cell at a time at exact capacity — most rows of a
/// high-dimensional grid hold a single cell, and a `Vec`'s default first
/// growth would reserve four.
type Row = Vec<(i32, CellSlab)>;

/// Where the cell with dimension-0 coordinate `x` sits in `row`, or where
/// it would be inserted.
#[inline]
fn slot_of(row: &Row, x: i32) -> Result<usize, usize> {
    row.binary_search_by_key(&x, |&(at, _)| at)
}

/// The multiplier of the row hash: 2⁶⁴/φ, rounded to odd.
const ROW_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of the row hash: fold coordinate `c` into `h`.
#[inline]
fn row_hash_step(h: u64, c: i32) -> u64 {
    h.wrapping_add(u64::from(c as u32)).wrapping_mul(ROW_MUL)
}

/// The row hash of a row key `c₁ … c_{d−1}`: `Σᵢ cᵢ·Kᵢ` with
/// `Kᵢ = ROW_MUL^i`, summed by Horner's rule from the last coordinate —
/// one add and one multiply per coordinate, which the nested walk runs
/// level by level, outermost dimension first, beside the partial gap sum
/// instead of hashing the key slice.
fn row_hash(key: &[i32]) -> u64 {
    key.iter().rev().fold(0, |h, &c| row_hash_step(h, c))
}

/// Buckets the [`RowFilter`] keeps per occupied row, at least.
const BUCKETS_PER_ROW: usize = 8;

/// How many occupied rows hash to each bucket, by the top bits of the
/// [`row_hash`] (its last multiply is the Fibonacci-hashing step). A zero
/// proves the row absent, so the walk skips its map probe; a non-zero
/// bucket only admits one. A count that reaches `u8::MAX` sticks there
/// until the next rebuild: it can only admit a probe, never hide a row.
#[derive(Clone, Debug)]
struct RowFilter {
    /// A power of two of at least `BUCKETS_PER_ROW` per occupied row.
    counts: Vec<u8>,
    /// `64 − log₂(counts.len())`.
    shift: u32,
}

impl RowFilter {
    fn with_buckets(buckets: usize) -> Self {
        debug_assert!(buckets.is_power_of_two() && buckets > 1);
        RowFilter {
            counts: vec![0; buckets],
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    #[inline]
    fn bucket(&self, h: u64) -> usize {
        (h >> self.shift) as usize
    }

    /// Whether a row of hash `h` may be occupied.
    #[inline]
    fn may_hold(&self, h: u64) -> bool {
        self.counts[self.bucket(h)] != 0
    }

    fn add(&mut self, h: u64) {
        let at = self.bucket(h);
        self.counts[at] = self.counts[at].saturating_add(1);
    }

    fn remove(&mut self, h: u64) {
        let at = self.bucket(h);
        let count = &mut self.counts[at];
        debug_assert_ne!(*count, 0, "removing a row the filter never counted");
        if *count != u8::MAX {
            *count -= 1;
        }
    }

    /// Count a new row, `rows` the occupied rows with it among `keys`:
    /// when they outgrow the ratio, recount `keys` into twice the buckets.
    fn add_row<'k>(&mut self, h: u64, rows: usize, keys: impl Iterator<Item = &'k [i32]>) {
        if rows * BUCKETS_PER_ROW <= self.counts.len() {
            self.add(h);
            return;
        }
        *self = RowFilter::with_buckets((rows * BUCKETS_PER_ROW).next_power_of_two());
        for key in keys {
            self.add(row_hash(key));
        }
    }
}

/// Uniform grid over the data space, bucketing live points by cell.
#[derive(Clone, Debug)]
pub struct GridIndex {
    geometry: GridGeometry,
    /// The occupied cells, by row: cell `c` lives in `rows[&c.0[1..]]`
    /// under `c.0[0]`. No row is empty and no listed cell is empty. A
    /// 1-d grid is the single row keyed by the empty slice. A key of up
    /// to four coordinates — a grid of up to five dimensions — is held in
    /// place, and the map is probed by slice.
    rows: FxHashMap<Coords, Row>,
    /// Which rows may be occupied; every key of `rows` counts in it.
    filter: RowFilter,
    /// The occupied cells per coordinate of dimensions `2..d`:
    /// `occupied[i − 2][&c]` counts the cells whose dimension-`i`
    /// coordinate is `c`. No count is zero. Dimension 1 is the row
    /// filter's and dimension 0 the row scan's, so neither is counted.
    occupied: Box<[FxHashMap<i32, u32>]>,
    /// Number of occupied cells (the sum of the rows' lengths).
    cells: usize,
    len: usize,
}

impl GridIndex {
    /// Empty index with the given geometry.
    pub fn new(geometry: GridGeometry) -> Self {
        GridIndex {
            rows: FxHashMap::default(),
            filter: RowFilter::with_buckets(BUCKETS_PER_ROW),
            occupied: (2..geometry.dim()).map(|_| FxHashMap::default()).collect(),
            cells: 0,
            len: 0,
            geometry,
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
        self.cells
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
        let (x, key) = (cell.0[0], &cell.0[1..]);
        let fresh = || (x, CellSlab::one(id, &point.coords, expires_at));
        // Established rows are found by slice — the key is copied only
        // when the insert creates the row — and an established cell takes
        // the point with no allocation beyond its slab's own growth.
        if let Some(row) = self.rows.get_mut(key) {
            match slot_of(row, x) {
                Ok(i) => {
                    row[i].1.push(id, &point.coords, expires_at);
                    self.len += 1;
                    return cell;
                }
                Err(i) => {
                    row.reserve_exact(1);
                    row.insert(i, fresh());
                }
            }
        } else {
            self.rows.insert(Coords::from(key), vec![fresh()]);
            let keys = self.rows.keys().map(|key| &key[..]);
            self.filter.add_row(row_hash(key), self.rows.len(), keys);
        }
        // The point opened a cell.
        for (counts, &c) in self.occupied.iter_mut().zip(cell.0.iter().skip(2)) {
            *counts.entry(c).or_insert(0) += 1;
        }
        self.cells += 1;
        self.len += 1;
        cell
    }

    /// Remove a point from the cell it was inserted into. Returns `true`
    /// if it was present. Removing a cell's last point removes the cell,
    /// and removing a row's last cell removes the row.
    pub fn remove(&mut self, id: PointId, cell: &CellCoord) -> bool {
        let (x, key) = (cell.0[0], &cell.0[1..]);
        let Some(row) = self.rows.get_mut(key) else {
            return false;
        };
        let Ok(i) = slot_of(row, x) else {
            return false;
        };
        let slab = &mut row[i].1;
        let Some(pos) = slab.ids().iter().position(|&e| e == id) else {
            return false;
        };
        if slab.len() > 1 {
            slab.swap_remove(pos);
        } else {
            row.remove(i);
            self.cells -= 1;
            if row.is_empty() {
                self.rows.remove(key);
                self.filter.remove(row_hash(key));
            }
            for (counts, c) in self.occupied.iter_mut().zip(cell.0.iter().skip(2)) {
                let count = counts
                    .get_mut(c)
                    .expect("an open cell's coordinate is counted");
                *count -= 1;
                if *count == 0 {
                    counts.remove(c);
                }
            }
        }
        self.len -= 1;
        true
    }

    /// The live points currently bucketed in `cell` (an empty slab when
    /// the cell has none).
    pub fn cell_points(&self, cell: &CellCoord) -> &CellSlab {
        self.rows
            .get(&cell.0[1..])
            .and_then(|row| Some(&row[slot_of(row, cell.0[0]).ok()?].1))
            .unwrap_or(&EMPTY_SLAB)
    }

    /// Range query search: every indexed point within `theta_r` of `coords`,
    /// excluding `exclude` (the querying point itself, per Def. 3.1 a point
    /// is not its own neighbor). Results are appended to `out`.
    ///
    /// This is [`ReachWalker::for_each_neighbor`] with a walker built per
    /// call; callers issuing one query per arriving object (C-SGS) hold a
    /// [`ReachWalker`] instead.
    pub fn range_query(
        &self,
        coords: &[f64],
        theta_r: f64,
        exclude: PointId,
        out: &mut Vec<PointId>,
    ) {
        // `GridGeometry::cell_of`, over a coordinate slice: building a
        // `Point` to call it costs 7–8 % of a 4-d query.
        let center = CellCoord(
            coords
                .iter()
                .map(|&x| self.geometry.cell_index(x))
                .collect(),
        );
        ReachWalker::new(&self.geometry).for_each_neighbor(
            self,
            &center,
            coords,
            theta_r * theta_r,
            exclude,
            |id, _| out.push(id),
        );
    }
}

/// The box-pruned walk over a cell's reachability block — the one
/// enumeration behind every range query search (`DESIGN.md` §13).
///
/// It visits the occupied cells among the `(2·reach + 1)^d` that
/// [`GridGeometry::reachable_cells`] yields, in that order. The walk is
/// driven by occupancy: it nests one level per dimension from `d − 1`
/// down to 1, steps only into a coordinate slab some cell occupies and
/// whose box may reach the query, probes the row map only for a row the
/// grid's row filter does not rule out, and scans the cells the row
/// actually holds. The position, the per-level partial sums and the gap
/// table are reused across queries: a walk allocates nothing.
#[derive(Clone, Debug)]
pub struct ReachWalker {
    reach: i32,
    side: f64,
    /// The cell being visited: dimensions `1..` are the levels' positions
    /// in the block, dimension 0 the cell the row scan is at. A plain
    /// slice, so the row probe reads it without a layout branch.
    cell: Box<[i32]>,
    /// `d` rows of `2·reach + 1`: `gaps[i·(2·reach+1) + k]` is the squared
    /// distance along dimension `i` from the query to the interval of the
    /// block's `k`-th cell in that dimension (0 where the query lies
    /// inside it), or `+∞` where no cell of the grid has that
    /// dimension-`i` coordinate (`i ≥ 2`). Filled once per query.
    gaps: Vec<f64>,
    /// `above[i − 1]`, for level `i` in `1..d`: the partial squared
    /// distance and the partial row hash of the levels above it —
    /// dimensions `i + 1 .. d` at their current positions. `above[d − 2]`
    /// is the empty sum, never written.
    above: Box<[(f64, u64)]>,
}

impl ReachWalker {
    /// Walker for grids of `geometry`.
    pub fn new(geometry: &GridGeometry) -> Self {
        let d = geometry.dim();
        let reach = geometry.reach();
        ReachWalker {
            reach,
            side: geometry.side(),
            cell: vec![0; d].into(),
            gaps: vec![0.0; d * (2 * reach as usize + 1)],
            above: vec![(0.0, 0); d.saturating_sub(1)].into(),
        }
    }

    /// Call `f(cell, slab)` for every non-empty cell of `grid` in the
    /// reachability block around `center` (the cell containing `coords`,
    /// from [`GridGeometry::cell_of`]).
    ///
    /// Sub-blocks and cells whose bounding box provably sits farther than
    /// `theta_sq` from the query are skipped — a slab of the block as
    /// soon as its partial sum exceeds the threshold, and so a row
    /// *before* its hash probe: the block over-covers the θr-ball (its
    /// corner cells mostly lie outside it), and a table lookup per level
    /// is much cheaper than a map lookup. So is a slab no occupied cell
    /// lies in (its gap is `+∞`), and a row whose filter bucket is zero:
    /// no occupied row hashes there. A cell's squared distance is the sum
    /// of its per-dimension gaps, taken as
    /// `((g_{d−1} + g_{d−2}) + … + g₁) + g₀` so that each level's share
    /// is summed once. Gaps are non-negative, so a partial sum past the
    /// threshold proves every full sum below it past it too. The skip
    /// threshold carries a 16 ε relative margin so floating-point
    /// rounding in the box arithmetic can only ever err toward *visiting*
    /// a cell: a sum of `d` non-negative terms is within `(d − 1) ε`
    /// relative of exact in any order, far inside the margin for every
    /// dimensionality in use. Pruning never changes the match set.
    fn for_each_slab<'a>(
        &mut self,
        grid: &'a GridIndex,
        center: &CellCoord,
        coords: &[f64],
        theta_sq: f64,
        mut f: impl FnMut(&[i32], &'a CellSlab),
    ) {
        if grid.is_empty() {
            return;
        }
        let center: &[i32] = &center.0;
        let ReachWalker {
            reach,
            side,
            ref mut cell,
            ref mut gaps,
            ref mut above,
        } = *self;
        let d = cell.len();
        debug_assert_eq!(coords.len(), d);
        let prune = theta_sq + theta_sq * 16.0 * f64::EPSILON;
        // Saturating: a centre cell at the edge of the `i32` range (a
        // coordinate `cell_of` saturated) clips its block instead of
        // wrapping it to the far side of the grid.
        let block = |i: usize| {
            (
                center[i].saturating_sub(reach),
                center[i].saturating_add(reach),
            )
        };
        let stride = gaps.len() / d;
        for i in 0..d {
            let (b_lo, b_hi) = block(i);
            let c = coords[i];
            for (g, ci) in gaps[i * stride..].iter_mut().zip(b_lo..=b_hi) {
                let lo_edge = ci as f64 * side;
                let hi_edge = lo_edge + side;
                let delta = if c < lo_edge {
                    lo_edge - c
                } else if c > hi_edge {
                    c - hi_edge
                } else {
                    0.0
                };
                *g = delta * delta;
            }
        }
        // A coordinate of a counted dimension that no cell holds is an
        // empty slab of the block: an infinite gap, which the walk never
        // steps into. Only a slab within reach needs the lookup.
        for (i, counts) in (2..d).zip(&grid.occupied) {
            let (b_lo, b_hi) = block(i);
            for (g, ci) in gaps[i * stride..].iter_mut().zip(b_lo..=b_hi) {
                if *g <= prune && !counts.contains_key(&ci) {
                    *g = f64::INFINITY;
                }
            }
        }
        // A clipped block is narrower than the table's stride: entries are
        // indexed by offset from the clipped lower bound.
        let gap = |i: usize, ci: i32| gaps[i * stride + (ci - block(i).0) as usize];
        let mut scan_row = |cell: &mut [i32], outer: f64, h: u64| {
            if !grid.filter.may_hold(h) {
                return;
            }
            let Some(row) = grid.rows.get(&cell[1..]) else {
                return;
            };
            let (lo0, hi0) = block(0);
            let first = row.partition_point(|&(x, _)| x < lo0);
            for (x, slab) in &row[first..] {
                if *x > hi0 {
                    break;
                }
                if outer + gap(0, *x) <= prune {
                    cell[0] = *x;
                    f(cell, slab);
                }
            }
        };
        if d == 1 {
            scan_row(cell, 0.0, 0);
            return;
        }
        // Levels `d − 1` down to 2 step their dimension through the block,
        // a position within reach descending a level; level 1 runs its
        // rows in one loop, the row's share of the distance and its hash
        // in registers.
        let mut i = d - 1;
        cell[i] = block(i).0;
        loop {
            if i == 1 {
                let (sum, h) = above[0];
                let (lo1, hi1) = block(1);
                for c1 in lo1..=hi1 {
                    let outer = sum + gap(1, c1);
                    if outer <= prune {
                        cell[1] = c1;
                        scan_row(cell, outer, row_hash_step(h, c1));
                    }
                }
                // Level 1 is done: the climb below leaves it.
                cell[1] = hi1;
            } else {
                let (sum, h) = above[i - 1];
                let partial = sum + gap(i, cell[i]);
                if partial <= prune {
                    above[i - 2] = (partial, row_hash_step(h, cell[i]));
                    i -= 1;
                    if i > 1 {
                        cell[i] = block(i).0;
                    }
                    continue;
                }
            }
            // The next position: this level's, or the first level up
            // that has one. Compared before the increment, so the walk
            // never steps past `i32::MAX`.
            while cell[i] == block(i).1 {
                i += 1;
                if i == d {
                    return;
                }
            }
            cell[i] += 1;
        }
    }

    /// The range query search: call `found(id, expires_at)` for every
    /// point of `grid` within `theta_sq` (squared distance) of `coords`,
    /// excluding `exclude` — the querying point itself, which Def. 3.1
    /// does not count as its own neighbor. `center` is the cell containing
    /// `coords` (from [`GridGeometry::cell_of`]).
    ///
    /// Each visited cell's slab is fed whole into the batched distance
    /// kernel; the self-exclusion check runs once per *match*, not once
    /// per candidate, and the expiry rides inline in the slab, so
    /// discovery touches no point map.
    pub fn for_each_neighbor(
        &mut self,
        grid: &GridIndex,
        center: &CellCoord,
        coords: &[f64],
        theta_sq: f64,
        exclude: PointId,
        mut found: impl FnMut(PointId, WindowId),
    ) {
        self.for_each_slab(grid, center, coords, theta_sq, |_, slab| {
            let (ids, expires, slab) = slab.columns();
            kernel::for_each_within(coords, slab, theta_sq, |j| {
                let id = ids[j];
                if id != exclude {
                    found(id, expires[j]);
                }
            });
        });
    }
}

impl HeapSize for GridIndex {
    fn heap_size(&self) -> usize {
        let mut bytes = self.rows.capacity() * (core::mem::size_of::<(Coords, Row)>() + 1)
            + self.filter.counts.capacity()
            + self.occupied.len() * core::mem::size_of::<FxHashMap<i32, u32>>();
        for counts in &self.occupied {
            bytes += counts.capacity() * (core::mem::size_of::<(i32, u32)>() + 1);
        }
        for (key, row) in &self.rows {
            bytes += key.heap_size();
            bytes += row.capacity() * core::mem::size_of::<(i32, CellSlab)>();
            bytes += row.iter().map(|(_, slab)| slab.heap_bytes()).sum::<usize>();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq};
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
    /// radius of the query (summed the way the walk sums it: dimension
    /// `d − 1` down to 1, then dimension 0), in the `reachable_cells`
    /// order, in one to five dimensions — and reports each cell's points
    /// with their inline expiry.
    #[test]
    fn walker_visits_exactly_the_reachable_cells_that_survive_the_box_prune() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let theta = 0.5;
        for dim in 1..=5 {
            let geometry = GridGeometry::basic(dim, theta);
            let (side, theta_sq) = (geometry.side(), theta * theta);
            let mut walker = ReachWalker::new(&geometry);
            // A 5-d round loads 9⁵ cells: a few rounds suffice there.
            for _ in 0..if dim < 5 { 20 } else { 3 } {
                let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let center = geometry.cell_of(&Point::new(q.clone(), 0));
                // One point in the middle of every cell of a box one cell
                // wider than the reachability block.
                let mut grid = GridIndex::new(geometry.clone());
                let wide = GridGeometry::with_side(dim, theta + side, side);
                for (n, cell) in wide.reachable_cells(&center).iter().enumerate() {
                    let at = Point::new(geometry.center(cell), 0);
                    grid.insert_expiring(PointId(n as u32), &at, WindowId(n as u64));
                }
                let gap = |i: usize, cell: &CellCoord| {
                    let lo = cell.0[i] as f64 * side;
                    let delta = q[i].clamp(lo, lo + side) - q[i];
                    delta * delta
                };
                let want: Vec<CellCoord> = geometry
                    .reachable_cells(&center)
                    .into_iter()
                    .filter(|cell| {
                        let outer = (1..dim).rev().fold(0.0, |sum, i| sum + gap(i, cell));
                        outer + gap(0, cell) <= theta_sq + theta_sq * 16.0 * f64::EPSILON
                    })
                    .collect();
                let mut got = Vec::new();
                walker.for_each_slab(&grid, &center, &q, theta_sq, |cell, slab| {
                    assert_eq!(slab.len(), 1);
                    assert_eq!(slab.expires_at(0).0, slab.id(0).0 as u64);
                    got.push(CellCoord::new(cell));
                });
                assert_eq!(got, want, "dim {dim}, query {q:?}");
            }
        }
    }

    /// The cells of the reachability block around `center`, clipped to the
    /// `i32` range, in [`GridGeometry::reachable_cells`] order: dimension 0
    /// fastest.
    fn clipped_block(center: &[i32], reach: i32) -> Vec<CellCoord> {
        let lo: Vec<i32> = center.iter().map(|c| c.saturating_sub(reach)).collect();
        let hi: Vec<i32> = center.iter().map(|c| c.saturating_add(reach)).collect();
        let mut cell = lo.clone();
        let mut out = Vec::new();
        'walk: loop {
            out.push(CellCoord::new(&cell[..]));
            for i in 0..cell.len() {
                if cell[i] < hi[i] {
                    cell[i] += 1;
                    continue 'walk;
                }
                cell[i] = lo[i];
            }
            return out;
        }
    }

    /// A sparse grid, in one to five dimensions: in every dimension one
    /// coordinate slab of the block next to the query's holds no cell, a
    /// neighbour of the query sits beyond it, and the rest of the block
    /// is filled at random. The walker visits exactly the occupied cells
    /// of the flat `reachable_cells` enumeration that survive the box
    /// prune, in that order — around a cell near the origin and around
    /// one on the rim of the `i32` range — and the empty slabs of the
    /// counted dimensions (`2..d`) read as infinite gaps.
    #[test]
    fn walker_over_a_sparse_grid_visits_what_the_flat_enumeration_keeps() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let theta = 0.5;
        for dim in 1..=5 {
            let geometry = GridGeometry::basic(dim, theta);
            let (side, reach, theta_sq) = (geometry.side(), geometry.reach(), theta * theta);
            let prune = theta_sq + theta_sq * 16.0 * f64::EPSILON;
            let mut walker = ReachWalker::new(&geometry);
            for rim in [false, true] {
                for _ in 0..10 {
                    // The rim's cell is `i32::MAX` in dimension 0 and
                    // `i32::MIN` in the last.
                    let center: Vec<i32> = (0..dim)
                        .map(|i| match (rim, i) {
                            (true, 0) => i32::MAX,
                            (true, i) if i == dim - 1 => i32::MIN,
                            _ => rng.gen_range(-3..3),
                        })
                        .collect();
                    // The empty slab's side: inward at the rim.
                    let toward: Vec<i32> = center
                        .iter()
                        .map(|&c| match c {
                            i32::MAX => -1,
                            i32::MIN => 1,
                            _ if rng.gen_bool(0.5) => 1,
                            _ => -1,
                        })
                        .collect();
                    // The query sits near the face of its cell toward the
                    // empty slabs.
                    let q: Vec<f64> = center
                        .iter()
                        .zip(&toward)
                        .map(|(&c, &t)| (f64::from(c) + if t > 0 { 0.9 } else { 0.1 }) * side)
                        .collect();
                    let center = geometry.cell_of(&Point::new(q.clone(), 0));
                    let empty = |cell: &[i32]| {
                        (0..dim).any(|i| {
                            i64::from(cell[i]) == i64::from(center.0[i]) + i64::from(toward[i])
                        })
                    };
                    let mut grid = GridIndex::new(geometry.clone());
                    let mut n = 0u32;
                    for cell in clipped_block(&center.0, reach + 1) {
                        if !empty(&cell.0) && rng.gen_bool(0.3) {
                            grid.insert(PointId(n), &Point::new(geometry.center(&cell), 0));
                            n += 1;
                        }
                    }
                    // Beyond each empty slab, two cells out along one
                    // dimension, a point at the near face of its cell:
                    // a neighbour of the query wherever the block
                    // reaches that far.
                    let mut beyond = Vec::new();
                    for i in (0..dim).filter(|_| reach >= 2) {
                        let mut at = q.clone();
                        let cell = f64::from(center.0[i]) + 2.0 * f64::from(toward[i]);
                        at[i] = (cell + if toward[i] > 0 { 0.02 } else { 0.98 }) * side;
                        assert!(sgs_core::dist_sq(&at, &q) <= theta_sq);
                        let p = Point::new(at, 0);
                        beyond.push(geometry.cell_of(&p));
                        if grid.cell_points(beyond.last().unwrap()).is_empty() {
                            grid.insert(PointId(n), &p);
                            n += 1;
                        }
                    }
                    let gap = |i: usize, cell: &CellCoord| {
                        let lo = f64::from(cell.0[i]) * side;
                        let delta = q[i].clamp(lo, lo + side) - q[i];
                        delta * delta
                    };
                    let flat = clipped_block(&center.0, reach);
                    if !rim {
                        assert_eq!(flat, geometry.reachable_cells(&center));
                    }
                    let want: Vec<CellCoord> = flat
                        .into_iter()
                        .filter(|cell| !grid.cell_points(cell).is_empty())
                        .filter(|cell| {
                            let outer = (1..dim).rev().fold(0.0, |sum, i| sum + gap(i, cell));
                            outer + gap(0, cell) <= prune
                        })
                        .collect();
                    for cell in &beyond {
                        assert!(want.contains(cell), "dim {dim}: {cell:?} not a neighbour");
                    }
                    let mut got = Vec::new();
                    walker.for_each_slab(&grid, &center, &q, theta_sq, |cell, _| {
                        got.push(CellCoord::new(cell))
                    });
                    assert_eq!(got, want, "dim {dim}, rim {rim}, query {q:?}");
                    let stride = walker.gaps.len() / dim;
                    let counted = center.0.iter().zip(&toward).enumerate().skip(2);
                    for (i, (&c, &t)) in counted {
                        let slab = (c + t - c.saturating_sub(reach)) as usize;
                        assert_eq!(walker.gaps[i * stride + slab], f64::INFINITY, "dim {dim}");
                    }
                }
            }
        }
    }

    /// A block around a cell on the rim of the `i32` range is clipped to
    /// the range: no overflow, and the centre cell is still visited
    /// exactly once.
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
        let mut grid = GridIndex::new(geometry.clone());
        grid.insert(PointId(7), &at);
        let mut seen = Vec::new();
        ReachWalker::new(&geometry).for_each_slab(&grid, &corner, &q, 0.25, |cell, slab| {
            seen.push((CellCoord::new(cell), slab.id(0)))
        });
        assert_eq!(seen, [(corner, PointId(7))]);
    }

    /// The `Vec`-scan model of the index: the occupied cells in no
    /// particular order, each with its points in slab order.
    type Model = Vec<(CellCoord, Vec<PointId>)>;

    /// The expiry the model scripts give point `id`: distinct per point.
    fn expiry_of(id: PointId) -> WindowId {
        WindowId(3 * u64::from(id.0) + 7)
    }

    /// The cell transitions a script step makes, by a cell's point count
    /// before → after: 0→1, 1→2, 2→1, 1→0.
    #[derive(Clone, Copy, Debug, Default)]
    struct Transitions([usize; 4]);

    impl Transitions {
        fn count(&mut self, before: usize, after: usize) {
            let at = match (before, after) {
                (0, 1) => 0,
                (1, 2) => 1,
                (2, 1) => 2,
                (1, 0) => 3,
                _ => return,
            };
            self.0[at] += 1;
        }

        fn add(&mut self, other: Transitions) {
            for (sum, n) in self.0.iter_mut().zip(other.0) {
                *sum += n;
            }
        }
    }

    /// Remove a live point from the index and from the model.
    fn remove_from_both(
        index: &mut GridIndex,
        model: &mut Model,
        id: PointId,
        cell: &CellCoord,
    ) -> Transitions {
        let mut crossed = Transitions::default();
        assert!(index.remove(id, cell));
        assert!(!index.remove(id, cell), "already removed");
        let at = model.iter().position(|(c, _)| c == cell).expect("occupied");
        let ids = &mut model[at].1;
        ids.swap_remove(ids.iter().position(|p| *p == id).expect("present"));
        crossed.count(ids.len() + 1, ids.len());
        if ids.is_empty() {
            model.swap_remove(at);
        }
        crossed
    }

    /// Every cell of the model reads back from the index column by
    /// column: ids, expiries and coordinates, whole and per position.
    fn assert_cells_read_as_the_model(index: &GridIndex, model: &Model, placed: &[Vec<f64>]) {
        for (cell, ids) in model {
            let slab = index.cell_points(cell);
            assert_eq!(slab.ids(), &ids[..]);
            let expiries: Vec<WindowId> = ids.iter().map(|&id| expiry_of(id)).collect();
            assert_eq!(slab.expires(), &expiries[..]);
            let coords: Vec<f64> = ids
                .iter()
                .flat_map(|id| placed[id.0 as usize].clone())
                .collect();
            assert_eq!(slab.coords(), &coords[..]);
            for (j, &id) in ids.iter().enumerate() {
                assert_eq!(slab.id(j), id);
                assert_eq!(slab.expires_at(j), expiry_of(id));
                assert_eq!(slab.point(j), &placed[id.0 as usize][..]);
            }
        }
    }

    thread_local! {
        /// The transitions the model scripts have crossed so far, inline
        /// (up to 4-d) and spilled, and the scripts run.
        static CROSSED: core::cell::Cell<([Transitions; 2], usize)> = Default::default();
    }

    /// Cases the vendored `proptest!` runs per property.
    const PROPTEST_CASES: usize = 64;

    proptest::proptest! {
        /// Random insert / remove / query scripts against the model, in
        /// one to six dimensions — a one-point cell held in place and a
        /// spilled one: counts and cell contents (ids, expiries,
        /// coordinates) agree after every step, a query reports the
        /// model's neighbours in `reachable_cells` order then slab order,
        /// and removing everything leaves no cell and no row behind. The
        /// scripts, together, take cells of either kind through every
        /// transition: 0→1, 1→2, 2→1 and 1→0.
        #[test]
        fn scripts_agree_with_a_vec_scan_model(
            dim in 1usize..7,
            script in proptest::prop::collection::vec(
                (0u8..4, 0usize..1000, proptest::prop::collection::vec(-1.0f64..1.0, 6)),
                1..80,
            ),
        ) {
            let theta = 1.0;
            let geometry = GridGeometry::basic(dim, theta);
            let mut index = GridIndex::new(geometry.clone());
            let mut model = Model::new();
            let mut crossed = Transitions::default();
            // Coordinates of every point ever inserted, by id.
            let mut placed: Vec<Vec<f64>> = Vec::new();
            let mut live: Vec<(PointId, CellCoord)> = Vec::new();
            for (op, pick, unit) in &script {
                // About three cells per dimension, astride the origin:
                // cells repeat, rows fill and drain, coordinates go
                // negative. An op 1 with a point live lands in that
                // point's cell, so that cells fill in every dimension.
                let mut coords: Vec<f64> =
                    unit[..dim].iter().map(|u| u * 1.6 * geometry.side()).collect();
                if *op == 1 && !live.is_empty() {
                    let corner = geometry.min_corner(&live[pick % live.len()].1);
                    for (x, (lo, u)) in coords.iter_mut().zip(corner.iter().zip(unit)) {
                        *x = lo + (u + 1.0) / 2.0 * 0.99 * geometry.side();
                    }
                }
                match op {
                    0 | 1 => {
                        let id = PointId(placed.len() as u32);
                        let at = Point::new(coords.clone(), 0);
                        let cell = index.insert_expiring(id, &at, expiry_of(id));
                        placed.push(coords);
                        match model.iter_mut().find(|(c, _)| *c == cell) {
                            Some((_, ids)) => {
                                ids.push(id);
                                crossed.count(ids.len() - 1, ids.len());
                            }
                            None => {
                                model.push((cell.clone(), vec![id]));
                                crossed.count(0, 1);
                            }
                        }
                        live.push((id, cell));
                    }
                    2 if !live.is_empty() => {
                        let (id, cell) = live.swap_remove(pick % live.len());
                        crossed.add(remove_from_both(&mut index, &mut model, id, &cell));
                    }
                    _ => {
                        let exclude = PointId((pick % 80) as u32);
                        let center = geometry.cell_of(&Point::new(coords.clone(), 0));
                        let mut want = Vec::new();
                        for cell in geometry.reachable_cells(&center) {
                            let Some((_, ids)) = model.iter().find(|(c, _)| *c == cell) else {
                                continue;
                            };
                            for id in ids {
                                let d_sq = sgs_core::dist_sq(&coords, &placed[id.0 as usize]);
                                if d_sq <= theta * theta && *id != exclude {
                                    want.push(*id);
                                }
                            }
                        }
                        let mut got = Vec::new();
                        index.range_query(&coords, theta, exclude, &mut got);
                        prop_assert_eq!(got, want, "dim {}", dim);
                    }
                }
                prop_assert_eq!(index.len(), live.len());
                prop_assert_eq!(index.cell_count(), model.len());
                assert_cells_read_as_the_model(&index, &model, &placed);
                let buckets = index.filter.counts.len();
                prop_assert!(buckets.is_power_of_two());
                prop_assert!(buckets >= BUCKETS_PER_ROW * index.rows.len());
                for key in index.rows.keys() {
                    prop_assert!(index.filter.may_hold(row_hash(key)), "row {:?} hidden", key);
                }
                // Each counted dimension's coordinate counts are the
                // model's occupied cells per coordinate.
                prop_assert_eq!(index.occupied.len(), dim.saturating_sub(2));
                for (i, counts) in (2..dim).zip(&index.occupied) {
                    let mut want: FxHashMap<i32, u32> = FxHashMap::default();
                    for (cell, _) in &model {
                        *want.entry(cell.0[i]).or_insert(0) += 1;
                    }
                    prop_assert!(counts.values().all(|&n| n > 0), "a zero count kept");
                    prop_assert_eq!(counts, &want, "dimension {}", i);
                }
            }
            for (id, cell) in live.drain(..) {
                crossed.add(remove_from_both(&mut index, &mut model, id, &cell));
                assert_cells_read_as_the_model(&index, &model, &placed);
            }
            prop_assert!(index.is_empty());
            prop_assert_eq!(index.cell_count(), 0);
            prop_assert!(index.rows.is_empty(), "a drained row was left behind");
            prop_assert!(index.occupied.iter().all(|counts| counts.is_empty()));

            // The coverage guard, once every case has run.
            let (mut kinds, mut scripts) = CROSSED.get();
            kinds[usize::from(dim > ONE_POINT_DIMS)].add(crossed);
            scripts += 1;
            CROSSED.set((kinds, scripts));
            if scripts == PROPTEST_CASES {
                for (kind, seen) in ["inline", "spilled"].iter().zip(kinds) {
                    prop_assert!(seen.0.iter().all(|&n| n > 0), "{} cells crossed {:?}", kind, seen);
                }
            }
        }
    }

    /// A slab is no larger than the three columns it replaces: the row
    /// entry a cell costs did not grow with the one-point layout.
    #[test]
    fn a_slab_is_the_size_of_its_three_columns() {
        assert_eq!(
            core::mem::size_of::<CellSlab>(),
            3 * core::mem::size_of::<Vec<u8>>()
        );
    }

    /// A bucket driven past `u8::MAX` sticks there: removing every row it
    /// counted leaves it admitting probes until a rebuild recounts it.
    #[test]
    fn a_saturated_filter_bucket_sticks_until_a_rebuild() {
        let key: &[i32] = &[3, -1];
        let h = row_hash(key);
        let mut filter = RowFilter::with_buckets(BUCKETS_PER_ROW);
        for _ in 0..300 {
            filter.add(h);
        }
        for _ in 0..299 {
            filter.remove(h);
            assert!(filter.may_hold(h));
        }
        // One row is left. A second arrives: two rows outgrow 8 buckets,
        // and the rebuild reads their true count.
        filter.add_row(h, 2, [key; 2].into_iter());
        assert_eq!(filter.counts.len(), 16);
        assert_eq!(filter.counts[filter.bucket(h)], 2);
        for _ in 0..2 {
            assert!(filter.may_hold(h));
            filter.remove(h);
        }
        assert!(!filter.may_hold(h));
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
