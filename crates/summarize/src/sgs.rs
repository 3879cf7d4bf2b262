//! Skeletal Grid Summarization (Def. 4.4) — the paper's core contribution.
//!
//! An SGS is the set of grid cells containing at least one member of the
//! cluster. Each **skeletal cell** carries the five attributes of Def. 4.4:
//! location (integer cell coordinate), side length (held once on the
//! [`Sgs`]), population, status (core/edge, Def. 4.2), and its connection
//! vector.
//!
//! One deliberate generalization over the paper's prose: Def. 4.4 words the
//! connection vector over *adjacent* cells, but with the basic cell side
//! `θr/√d`, core objects in cells up to Chebyshev distance `⌈√d⌉` apart can
//! still be neighbors — and §5's output stage rebuilds clusters by DFS over
//! cell connections, which is only correct if those longer-range
//! connections are kept. We therefore record connections between any cell
//! pair within the grid's reach. The wire and the durable archive keep
//! all of them ([`crate::codec`]); only §8.2's byte count
//! ([`crate::packed`]) prices a cell's connections at the paper's 2-byte
//! bitmask.

use std::fmt;
use std::sync::Arc;

use sgs_core::{CellCoord, GridGeometry, HeapSize};
use sgs_index::{FxHashMap, Rect};

use crate::member::MemberSet;

/// Status of a skeletal grid cell (Def. 4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CellStatus {
    /// Contains at least one core object.
    Core,
    /// Contains no core object but at least one edge object.
    Edge,
}

/// One skeletal grid cell (Def. 4.4) of a [`Cells`] list, borrowed: its
/// coordinate is a run of the list's coordinate column and its
/// connections a run of the list's word block. The side length is held
/// once, on the [`Sgs`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellView<'a> {
    /// Integer cell coordinate, one `i32` per dimension; the location
    /// vector of Def. 4.4 is `coord * side` per dimension.
    pub coord: &'a [i32],
    /// Number of cluster member objects inside the cell.
    pub population: u32,
    /// Core or edge (noise cells never appear in a summary).
    pub status: CellStatus,
    /// Indices (into the list) of connected cells, ascending and without
    /// repeats. Populated on core cells only: a core cell lists
    /// directly-connected core cells and attached edge cells; edge cells
    /// carry no indicators (Def. 4.4).
    pub connections: &'a [u32],
}

impl CellView<'_> {
    /// Connection degree.
    #[inline]
    pub fn connectivity(&self) -> usize {
        self.connections.len()
    }
}

/// The bit of a cell's run-end word set on a core cell: a list holds
/// fewer than 2^31 connections, so a run end never reaches it.
pub(crate) const CORE: u32 = 1 << 31;

/// The word of a cell's status and connection run end.
#[inline]
pub(crate) fn end_word(end: u32, status: CellStatus) -> u32 {
    match status {
        CellStatus::Core => end | CORE,
        CellStatus::Edge => end,
    }
}

/// The cell whose coordinate is `coord`, whose population and end word
/// are `cell`, and whose connections are `connections`.
#[inline]
fn view<'a>(coord: &'a [i32], cell: [u32; 2], connections: &'a [u32]) -> CellView<'a> {
    let [population, end] = cell;
    CellView {
        coord,
        population,
        status: if end & CORE == 0 {
            CellStatus::Edge
        } else {
            CellStatus::Core
        },
        connections,
    }
}

/// The skeletal cells of a summary, flat and shared in two blocks
/// whatever the cell count and dimensionality:
///
/// - a block of `i32`s: the list's dimensionality, then the coordinate
///   column, `dim` per cell in cell order;
/// - a block of `u32` words: the list's cell count, then two words per
///   cell — its population, and the end of its connection run with the
///   status in the top bit — then every cell's connection run in cell
///   order, each starting where the previous cell's ends.
///
/// Each block leads with the count its readers need, so a reader of
/// coordinates alone touches one block, and neither count is a division.
/// A cell costs `4·dim + 8` bytes plus 4 per connection: 16 B in 2-d and
/// 24 B in 4-d. An empty list holds no word at all. A clone bumps two
/// counts, so every holder of one summary — the output stage, the
/// archiver's selection, a pattern base — holds the same two blocks.
/// Cells are read as [`CellView`]s ([`iter`](Self::iter),
/// [`get`](Self::get)) and built only by a [`CellsBuilder`] (or decoded,
/// [`crate::codec::decode`]); equality compares the list of cells, and
/// `Debug` prints it as a list of [`CellView`]s.
#[derive(Clone, Default)]
pub struct Cells {
    coords: Arc<[i32]>,
    words: Arc<[u32]>,
}

impl Cells {
    /// The list of the coordinate column `coords` and the word block
    /// `words`, laid out as [`Cells`] describes.
    pub(crate) fn from_parts(coords: Arc<[i32]>, words: Arc<[u32]>) -> Cells {
        let cells = Cells { coords, words };
        if cfg!(debug_assertions) {
            let dim = cells.dim().unwrap_or(1);
            assert!(dim > 0 && cells.column().len() == dim * cells.len());
            assert_eq!(cells.coords.is_empty(), cells.words.is_empty());
            let (per_cell, runs) = cells.split();
            assert_eq!(per_cell.len(), cells.len());
            let last_end = per_cell.last().map_or(0, |c| c[1] & !CORE);
            assert_eq!(last_end as usize, runs.len(), "the runs end the word block");
        }
        cells
    }

    /// Whether `a` and `b` are the same allocation (equal contents need
    /// not be).
    #[inline]
    pub fn ptr_eq(a: &Cells, b: &Cells) -> bool {
        Arc::ptr_eq(&a.words, &b.words)
    }

    /// The address of the list's word block: the same for every clone,
    /// and distinct from any other list's while this one is held.
    #[inline]
    pub fn addr(&self) -> usize {
        Arc::as_ptr(&self.words).cast::<u32>() as usize
    }

    /// The length of every coordinate of the list; `None` for an empty
    /// list.
    #[inline]
    pub fn dim(&self) -> Option<usize> {
        self.coords.first().map(|&dim| dim as usize)
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.first().map_or(0, |&n| n as usize)
    }

    /// Whether the list holds no cell.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The coordinate column, past the dimensionality.
    #[inline]
    fn column(&self) -> &[i32] {
        self.coords.get(1..).unwrap_or_default()
    }

    /// The per-cell words and the connection runs after them, past the
    /// cell count.
    #[inline]
    fn split(&self) -> (&[[u32; 2]], &[u32]) {
        let words = self.words.get(1..).unwrap_or_default();
        let (cells, connections) = words.split_at(2 * self.len());
        (cells.as_chunks().0, connections)
    }

    /// Cell `i`, if the list has one.
    #[inline]
    pub fn get(&self, i: usize) -> Option<CellView<'_>> {
        let dim = self.dim()?;
        let coord = self.column().get(i * dim..(i + 1) * dim)?;
        let (cells, connections) = self.split();
        let start = i
            .checked_sub(1)
            .map_or(0, |p| (cells[p][1] & !CORE) as usize);
        let end = (cells[i][1] & !CORE) as usize;
        Some(view(coord, cells[i], &connections[start..end]))
    }

    /// Each cell's coordinate in list order: the coordinate column alone,
    /// for a reader that needs no other field of a cell.
    #[inline]
    pub fn coords(&self) -> std::slice::ChunksExact<'_, i32> {
        self.column().chunks_exact(self.dim().unwrap_or(1))
    }

    /// The cells in list order.
    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        let (cells, connections) = self.split();
        Iter {
            coords: self.coords(),
            cells: cells.iter(),
            connections,
            start: 0,
        }
    }
}

/// The cells of a [`Cells`] list in order, as [`CellView`]s.
#[derive(Clone)]
pub struct Iter<'a> {
    coords: std::slice::ChunksExact<'a, i32>,
    cells: std::slice::Iter<'a, [u32; 2]>,
    connections: &'a [u32],
    /// Where the next cell's connection run starts.
    start: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = CellView<'a>;

    #[inline]
    fn next(&mut self) -> Option<CellView<'a>> {
        let &cell = self.cells.next()?;
        let coord = self.coords.next()?;
        let end = (cell[1] & !CORE) as usize;
        let cell = view(coord, cell, &self.connections[self.start..end]);
        self.start = end;
        Some(cell)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.cells.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Cells {
    type Item = CellView<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// A [`Cells`] list under construction, kept to build many: each cell is
/// pushed with its coordinate and its connections, and
/// [`build`](Self::build) copies what was pushed into the list's two
/// blocks and empties the buffers for the next list, keeping their room.
/// The first coordinate pushed fixes the list's dimensionality. The
/// builder is the one place that puts a connection run in its canonical
/// order: ascending, without repeats.
#[derive(Debug, Default)]
pub struct CellsBuilder {
    coords: Vec<i32>,
    /// Each cell's population and run-end word.
    cells: Vec<u32>,
    connections: Vec<u32>,
    /// The length of the first coordinate pushed since the last build.
    dim: usize,
}

impl CellsBuilder {
    /// Append a cell; its connections are stored ascending, each index
    /// once.
    ///
    /// # Panics
    /// Panics if `coord` is empty or differs in length from the first
    /// coordinate pushed since the last build, or if the list would hold
    /// 2^31 connections or more.
    pub fn push(
        &mut self,
        coord: &[i32],
        population: u32,
        status: CellStatus,
        connections: impl IntoIterator<Item = u32>,
    ) {
        assert!(!coord.is_empty(), "a cell has at least one coordinate");
        if self.cells.is_empty() {
            self.dim = coord.len();
        }
        assert_eq!(
            coord.len(),
            self.dim,
            "a cell's coordinate differs in length from the list's first"
        );
        let start = self.connections.len();
        self.connections.extend(connections);
        let run = &mut self.connections[start..];
        run.sort_unstable();
        // Repeats go within this run only: the previous run may end on
        // the index this one starts with.
        let mut kept = 0;
        for i in 0..run.len() {
            if kept == 0 || run[i] != run[kept - 1] {
                run[kept] = run[i];
                kept += 1;
            }
        }
        self.connections.truncate(start + kept);
        let end = u32::try_from(self.connections.len())
            .ok()
            .filter(|&end| end < CORE)
            .expect("a summary holds fewer than 2^31 connections");
        self.coords.extend_from_slice(coord);
        self.cells.extend([population, end_word(end, status)]);
    }

    /// The list of the cells pushed since the last build, in push order.
    pub fn build(&mut self) -> Cells {
        let n = u32::try_from(self.cells.len() / 2).expect("a summary holds fewer than 2^32 cells");
        let dim = i32::try_from(self.dim).expect("a cell has fewer than 2^31 coordinates");
        let (dim, n) = (n > 0).then_some((dim, n)).unzip();
        let coords = dim.into_iter().chain(self.coords.drain(..)).collect();
        let words = n.into_iter();
        let words = words
            .chain(self.cells.drain(..))
            .chain(self.connections.drain(..));
        Cells::from_parts(coords, words.collect())
    }
}

impl PartialEq for Cells {
    /// Every list is laid out the one way, each cell's run right after
    /// the previous cell's, so equal blocks are equal lists.
    fn eq(&self, other: &Cells) -> bool {
        Cells::ptr_eq(self, other) || (self.coords == other.coords && self.words == other.words)
    }
}

impl fmt::Debug for Cells {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The cells' bytes: the coordinate column, two words per cell and the
/// connection runs. The two blocks' leading counts, like their reference
/// counts, are a constant per list and not counted.
impl HeapSize for Cells {
    fn heap_size(&self) -> usize {
        let words = self.coords.len() + self.words.len();
        core::mem::size_of::<u32>() * words.saturating_sub(2)
    }
}

/// A Skeletal Grid Summarization of one density-based cluster.
///
/// A clone shares its [`Cells`] with the original: keeping a summary the
/// output stage emitted copies no cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Sgs {
    /// Dimensionality of the data space.
    pub dim: usize,
    /// Side length of every cell in this summary (uniform per Def. 4.4).
    pub side: f64,
    /// Resolution level: 0 = basic SGS (§6.1).
    pub level: u8,
    /// Skeletal cells, sorted by coordinate (canonical order).
    pub cells: Cells,
}

impl Sgs {
    /// Build the **basic SGS** of a cluster from its member set.
    ///
    /// This is the offline (two-phase) construction: bucket members into
    /// cells, derive statuses, then probe reachable cell pairs for
    /// object-level neighborships to derive connections (Def. 4.3). C-SGS
    /// produces the identical structure incrementally.
    pub fn from_members(members: &MemberSet, geometry: &GridGeometry) -> Sgs {
        let dim = geometry.dim();
        let theta_sq = geometry.theta_r() * geometry.theta_r();

        // Bucket members per cell.
        #[derive(Default)]
        struct Bucket {
            cores: Vec<Box<[f64]>>,
            edges: Vec<Box<[f64]>>,
        }
        let mut buckets: FxHashMap<CellCoord, Bucket> = FxHashMap::default();
        for c in &members.cores {
            let coord = geometry.cell_of(&sgs_core::Point::new(c.clone(), 0));
            buckets.entry(coord).or_default().cores.push(c.clone());
        }
        for e in &members.edges {
            let coord = geometry.cell_of(&sgs_core::Point::new(e.clone(), 0));
            buckets.entry(coord).or_default().edges.push(e.clone());
        }

        // Canonical cell order.
        let mut coords: Vec<CellCoord> = buckets.keys().cloned().collect();
        coords.sort_unstable();
        let index_of: FxHashMap<CellCoord, u32> = coords
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), i as u32))
            .collect();

        let status = |b: &Bucket| {
            if b.cores.is_empty() {
                CellStatus::Edge
            } else {
                CellStatus::Core
            }
        };

        // Connections (Def. 4.3): probe each core cell against reachable
        // cells; a core-core pair connects if some core objects are
        // neighbors; an edge cell attaches if one of its objects neighbors
        // a core object of the core cell.
        let any_pair = |a: &[Box<[f64]>], b: &[Box<[f64]>]| {
            a.iter()
                .any(|x| b.iter().any(|y| sgs_core::dist_sq(x, y) <= theta_sq))
        };
        let mut list = CellsBuilder::default();
        for coord in &coords {
            let bi = &buckets[coord];
            let connections = match status(bi) {
                CellStatus::Edge => Vec::new(),
                CellStatus::Core => geometry.reachable_cells(coord),
            };
            let connections = connections.into_iter().filter_map(|other| {
                let &j = index_of.get(&other)?;
                if other == *coord || geometry.min_cell_dist(coord, &other) > geometry.theta_r() {
                    return None;
                }
                let bj = &buckets[&other];
                let connected = match status(bj) {
                    CellStatus::Core => any_pair(&bi.cores, &bj.cores),
                    // Attachment: an object of the edge cell (which holds
                    // no core object) neighboring one of our core objects.
                    CellStatus::Edge => any_pair(&bi.cores, &bj.edges),
                };
                connected.then_some(j)
            });
            let population = (bi.cores.len() + bi.edges.len()) as u32;
            list.push(&coord.0, population, status(bi), connections);
        }

        Sgs {
            dim,
            side: geometry.side(),
            level: 0,
            cells: list.build(),
        }
    }

    /// Number of skeletal cells — the *volume* feature of §7.1.
    #[inline]
    pub fn volume(&self) -> usize {
        self.cells.len()
    }

    /// Number of core cells — the *status count* feature of §7.1.
    pub fn core_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.status == CellStatus::Core)
            .count()
    }

    /// Total population across cells.
    pub fn population(&self) -> u32 {
        self.cells.iter().map(|c| c.population).sum()
    }

    /// Average objects per cell — the *average density* feature of §7.1
    /// (population over volume; cell volume is uniform so the constant
    /// factor cancels in every comparison).
    pub fn avg_density(&self) -> f64 {
        if self.cells.is_empty() {
            0.0
        } else {
            self.population() as f64 / self.cells.len() as f64
        }
    }

    /// Average connection degree of core cells — the *average connectivity*
    /// feature of §7.1.
    pub fn avg_connectivity(&self) -> f64 {
        let cores = self.core_count();
        if cores == 0 {
            return 0.0;
        }
        let total: usize = self
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Core)
            .map(|c| c.connectivity())
            .sum();
        total as f64 / cores as f64
    }

    /// The four non-locational features of §7.1 in index order:
    /// `[volume, core_count, avg_density, avg_connectivity]`.
    pub fn features(&self) -> [f64; 4] {
        [
            self.volume() as f64,
            self.core_count() as f64,
            self.avg_density(),
            self.avg_connectivity(),
        ]
    }

    /// Minimum bounding rectangle in data space (the locational feature a
    /// position-sensitive MATCH filters on). `None` for an empty summary.
    /// The upper corner is computed in `f64`, so a cell at `i32::MAX`
    /// yields a finite, non-inverted rectangle.
    pub fn mbr(&self) -> Option<Rect> {
        let first = self.cells.coords().next()?;
        let mut lo = first.to_vec();
        let mut hi = first.to_vec();
        for coord in self.cells.coords() {
            for (d, &x) in coord.iter().enumerate() {
                lo[d] = lo[d].min(x);
                hi[d] = hi[d].max(x);
            }
        }
        Some(Rect::new(
            lo.iter().map(|&v| v as f64 * self.side).collect::<Vec<_>>(),
            hi.iter()
                .map(|&v| (f64::from(v) + 1.0) * self.side)
                .collect::<Vec<_>>(),
        ))
    }

    /// Fidelity check for Lemma 4.3: every cell's data-space box is within
    /// θr of a member (trivially true by construction — each cell contains
    /// a member). Exposed for property tests: verifies that the cells are
    /// [`dim`](Self::dim)-dimensional, non-empty and sorted, that each
    /// connection run is ascending without repeats and names another
    /// cell, and that the cell populations sum to at most `u32::MAX`, so
    /// [`population`](Self::population) cannot wrap.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(dim) = self.cells.dim().filter(|&d| d != self.dim) {
            return Err(format!(
                "{dim}-dimensional cells in a {}-dimensional summary",
                self.dim
            ));
        }
        let coords = self.cells.iter().map(|c| c.coord);
        if !coords.clone().zip(coords.skip(1)).all(|(a, b)| a < b) {
            return Err("cells not sorted by coordinate".into());
        }
        let mut population = 0u32;
        for (i, c) in self.cells.iter().enumerate() {
            if c.population == 0 {
                return Err(format!("cell {i} has zero population"));
            }
            population = population
                .checked_add(c.population)
                .ok_or_else(|| format!("cell populations up to cell {i} sum above u32::MAX"))?;
            if c.status == CellStatus::Edge && !c.connections.is_empty() {
                return Err(format!("edge cell {i} carries connection indicators"));
            }
            if !c.connections.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("cell {i}'s connections are not strictly ascending"));
            }
            for &j in c.connections {
                if j as usize >= self.cells.len() {
                    return Err(format!("cell {i} connects to out-of-range {j}"));
                }
                if j as usize == i {
                    return Err(format!("cell {i} connects to itself"));
                }
            }
        }
        Ok(())
    }

    /// Group cells into connected components: DFS over core-core
    /// connections, pulling in attached edge cells (the output stage of
    /// §5.4). Returns cell-index groups, one per cluster, each sorted.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.cells.len();
        let mut comp = vec![usize::MAX; n];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut stack = Vec::new();
        let cell = |i: usize| self.cells.get(i).expect("a connection names a cell");
        for start in 0..n {
            if comp[start] != usize::MAX || cell(start).status != CellStatus::Core {
                continue;
            }
            let gid = groups.len();
            groups.push(Vec::new());
            comp[start] = gid;
            stack.push(start);
            while let Some(i) = stack.pop() {
                groups[gid].push(i);
                for &j in cell(i).connections {
                    let j = j as usize;
                    match cell(j).status {
                        CellStatus::Core => {
                            if comp[j] == usize::MAX {
                                comp[j] = gid;
                                stack.push(j);
                            }
                        }
                        CellStatus::Edge => {
                            // Edge cells can attach to several clusters.
                            if !groups[gid].contains(&j) {
                                groups[gid].push(j);
                            }
                        }
                    }
                }
            }
            groups[gid].sort_unstable();
            groups[gid].dedup();
        }
        groups
    }
}

/// The logical size: the cells count in full whoever else shares them.
impl HeapSize for Sgs {
    fn heap_size(&self) -> usize {
        self.cells.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::GridGeometry;

    fn geo() -> GridGeometry {
        GridGeometry::basic(2, 1.0)
    }

    /// Two tight core groups bridged by neighboring cores, plus an edge.
    fn sample_members() -> MemberSet {
        MemberSet::new(
            vec![
                vec![0.1, 0.1].into(),
                vec![0.2, 0.1].into(),
                vec![0.9, 0.1].into(), // next cell over, neighbor of the others
            ],
            vec![vec![1.6, 0.1].into()], // edge, neighbor of (0.9,0.1)
        )
    }

    #[test]
    fn from_members_buckets_and_statuses() {
        let sgs = Sgs::from_members(&sample_members(), &geo());
        sgs.validate().unwrap();
        assert_eq!(sgs.population(), 4);
        assert_eq!(sgs.level, 0);
        // side = 1/sqrt(2) ≈ 0.707: cells x∈[0,0.707)=0, [0.707,1.414)=1, [1.414,..)=2
        assert_eq!(sgs.volume(), 3);
        assert_eq!(sgs.core_count(), 2);
        let edge_cells: Vec<_> = sgs
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Edge)
            .collect();
        assert_eq!(edge_cells.len(), 1);
        assert_eq!(edge_cells[0].population, 1);
    }

    #[test]
    fn connections_follow_def_4_3() {
        let sgs = Sgs::from_members(&sample_members(), &geo());
        // Core cell 0 (x bucket 0) ↔ core cell 1 (x bucket 1): cores (0.2,0.1)
        // and (0.9,0.1) are 0.7 apart ≤ 1 → connected.
        let index_of = |coord: [i32; 2]| sgs.cells.iter().position(|c| c.coord == coord).unwrap();
        let (c0, c1, c2) = (index_of([0, 0]), index_of([1, 0]), index_of([2, 0]));
        let connections = |i: usize| sgs.cells.get(i).unwrap().connections;
        assert!(connections(c0).contains(&(c1 as u32)));
        assert!(connections(c1).contains(&(c0 as u32)));
        // Edge cell attached to core cell 1: (1.6,0.1)-(0.9,0.1) = 0.7 ≤ 1.
        assert!(connections(c1).contains(&(c2 as u32)));
        // Edge cells carry no indicators.
        assert!(connections(c2).is_empty());
    }

    #[test]
    fn components_join_connected_cells() {
        let sgs = Sgs::from_members(&sample_members(), &geo());
        let comps = sgs.components();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 3);
    }

    #[test]
    fn disconnected_cores_split_components() {
        let members = MemberSet::new(vec![vec![0.1, 0.1].into(), vec![8.0, 8.0].into()], vec![]);
        let sgs = Sgs::from_members(&members, &geo());
        assert_eq!(sgs.components().len(), 2);
    }

    #[test]
    fn features_vector() {
        let sgs = Sgs::from_members(&sample_members(), &geo());
        let f = sgs.features();
        assert_eq!(f[0], 3.0); // volume
        assert_eq!(f[1], 2.0); // core cells
        assert!((f[2] - 4.0 / 3.0).abs() < 1e-12); // avg density
                                                   // connectivity: c0 has 1 connection, c1 has 2 → avg 1.5
        assert!((f[3] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mbr_covers_cells() {
        let sgs = Sgs::from_members(&sample_members(), &geo());
        let mbr = sgs.mbr().unwrap();
        let side = geo().side();
        assert_eq!(mbr.min.as_ref(), &[0.0, 0.0][..]);
        assert!((mbr.max[0] - 3.0 * side).abs() < 1e-12);

        // A cell at either end of the coordinate range, as `Bind` accepts
        // over the wire: the rectangle is finite and not inverted.
        for v in [i32::MAX, i32::MIN] {
            let mut list = CellsBuilder::default();
            list.push(&[v, 0], 1, CellStatus::Edge, []);
            let edge = Sgs {
                dim: 2,
                side,
                level: 0,
                cells: list.build(),
            };
            let mbr = edge.mbr().unwrap();
            assert!(mbr.min.iter().chain(mbr.max.iter()).all(|c| c.is_finite()));
            assert!(mbr.min.iter().zip(mbr.max.iter()).all(|(a, b)| a < b));
            assert_eq!(mbr.min[0], f64::from(v) * side);
        }
    }

    #[test]
    fn lemma_4_1_same_cell_members_are_mutual_neighbors() {
        // Stress with random points: every pair bucketed into one cell must
        // be within θr.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let g = GridGeometry::basic(3, 0.5);
        let mut buckets: std::collections::HashMap<CellCoord, Vec<Vec<f64>>> = Default::default();
        for _ in 0..2000 {
            let p: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..2.0)).collect();
            let c = g.cell_of(&sgs_core::Point::new(p.clone(), 0));
            buckets.entry(c).or_default().push(p);
        }
        for pts in buckets.values() {
            for a in pts {
                for b in pts {
                    assert!(sgs_core::dist(a, b) <= 0.5 + 1e-12);
                }
            }
        }
    }

    #[test]
    fn a_clone_shares_its_cells_and_equality_reads_contents() {
        let sgs = Sgs::from_members(&sample_members(), &geo());
        let copy = sgs.clone();
        assert!(Cells::ptr_eq(&sgs.cells, &copy.cells));
        // Built twice, equal, and two allocations.
        let again = Sgs::from_members(&sample_members(), &geo());
        assert!(!Cells::ptr_eq(&sgs.cells, &again.cells));
        assert_eq!(sgs, again);
        let mut list = CellsBuilder::default();
        for c in sgs.cells.iter().skip(1) {
            let connections = c.connections.iter().copied();
            list.push(c.coord, c.population, c.status, connections);
        }
        let fewer = list.build();
        assert_ne!(
            sgs,
            Sgs {
                cells: fewer,
                ..again
            }
        );
        // The logical size, shared or not.
        assert_eq!(copy.heap_size(), sgs.heap_size());
    }

    #[test]
    fn a_pushed_run_is_stored_ascending_without_repeats() {
        let mut list = CellsBuilder::default();
        list.push(&[0, 0], 1, CellStatus::Core, [2, 1, 2]);
        // Starts on the index the previous run ends on: both keep it.
        list.push(&[1, 0], 1, CellStatus::Core, [3, 0, 0]);
        list.push(&[2, 0], 1, CellStatus::Core, [3]);
        list.push(&[3, 0], 1, CellStatus::Edge, []);
        let cells = list.build();
        let runs: Vec<&[u32]> = cells.iter().map(|c| c.connections).collect();
        assert_eq!(runs, [&[1, 2][..], &[0, 3], &[3], &[]]);
        // The builder is empty again, its room kept.
        assert!(list.build().is_empty());
    }

    #[test]
    fn empty_members_give_empty_sgs() {
        let sgs = Sgs::from_members(&MemberSet::default(), &geo());
        assert_eq!(sgs.volume(), 0);
        assert!(sgs.mbr().is_none());
        assert_eq!(sgs.avg_density(), 0.0);
        assert_eq!(sgs.avg_connectivity(), 0.0);
        sgs.validate().unwrap();
    }

    #[test]
    fn populations_summing_past_u32_max_are_refused() {
        // Edge cells along one row with the given populations, as a wire
        // `Bind` may carry them.
        let row = |populations: &[u32]| Sgs {
            dim: 2,
            side: 1.0,
            level: 0,
            cells: {
                let mut list = CellsBuilder::default();
                for (x, &population) in (0..).zip(populations) {
                    list.push(&[x, 0], population, CellStatus::Edge, []);
                }
                list.build()
            },
        };
        for over in [
            &[u32::MAX, 1][..],
            &[u32::MAX - 1, 2],
            &[u32::MAX / 2 + 1, u32::MAX / 2 + 1],
            &[u32::MAX, u32::MAX, u32::MAX],
        ] {
            assert!(row(over).validate().is_err(), "{over:?}");
        }
        for at_most in [
            &[u32::MAX][..],
            &[u32::MAX - 1, 1],
            &[u32::MAX / 2, u32::MAX / 2 + 1],
        ] {
            let sgs = row(at_most);
            sgs.validate().unwrap();
            assert_eq!(
                u64::from(sgs.population()),
                at_most.iter().map(|&p| u64::from(p)).sum::<u64>()
            );
        }
    }

    #[test]
    fn a_summary_over_cells_of_another_dimensionality_is_refused() {
        let mut list = CellsBuilder::default();
        list.push(&[0, 0], 1, CellStatus::Edge, []);
        list.push(&[1, 0], 1, CellStatus::Edge, []);
        let cells = list.build();
        assert_eq!(cells.dim(), Some(2));
        let sgs = |dim| Sgs {
            dim,
            side: 1.0,
            level: 0,
            cells: cells.clone(),
        };
        sgs(2).validate().unwrap();
        assert!(sgs(3).validate().is_err());
        assert!(sgs(1).validate().is_err());
        // An empty list has no dimensionality to disagree with.
        let empty = Sgs {
            cells: list.build(),
            ..sgs(3)
        };
        assert_eq!(empty.cells.dim(), None);
        empty.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "differs in length")]
    fn a_coordinate_of_another_length_is_refused_by_the_builder() {
        let mut list = CellsBuilder::default();
        list.push(&[0, 0], 1, CellStatus::Edge, []);
        list.push(&[1, 0, 0], 1, CellStatus::Edge, []);
    }

    #[test]
    fn a_build_lets_the_next_list_take_another_dimensionality() {
        let mut list = CellsBuilder::default();
        list.push(&[0, 0], 1, CellStatus::Edge, []);
        assert_eq!(list.build().dim(), Some(2));
        list.push(&[0, 0, 0, 0], 1, CellStatus::Edge, []);
        assert_eq!(list.build().dim(), Some(4));
    }

    #[test]
    fn a_cell_costs_its_coordinate_and_two_words_and_a_word_per_connection() {
        for (dim, per_cell) in [(2, 16), (4, 24), (9, 44)] {
            // 30 cells in a row, every third an edge cell, each core cell
            // linked to the next cell: 20 connections.
            let mut list = CellsBuilder::default();
            let mut coord = vec![0; dim];
            for x in 0..30u32 {
                coord[0] = x as i32;
                if x % 3 == 2 {
                    list.push(&coord, 1, CellStatus::Edge, []);
                } else {
                    list.push(&coord, 1, CellStatus::Core, [(x + 1) % 30]);
                }
            }
            let cells = list.build();
            assert_eq!(cells.heap_size(), per_cell * 30 + 4 * 20, "{dim}-d");
        }
        assert_eq!(Cells::default().heap_size(), 0);
    }
}
