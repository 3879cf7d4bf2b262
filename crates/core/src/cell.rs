//! Grid geometry: the uniform cell decomposition underlying SGS.
//!
//! §4.3 of the paper fixes the *basic* (finest, level-0) grid so that the
//! **diagonal of each cell equals the range threshold θr**. In a
//! `d`-dimensional space that makes the side length `θr / √d`, which yields
//! the two structural lemmas the whole design rests on:
//!
//! * **Lemma 4.1** — all objects inside one core cell belong to the same
//!   cluster (any two objects in a cell are at most one diagonal — θr —
//!   apart, hence mutual neighbors), and
//! * **Lemma 4.2** — an edge cell holds fewer than θc objects.
//!
//! [`GridGeometry`] maps points to integer cell coordinates and enumerates
//! the bounded set of cells a range-query search must visit.

use crate::memsize::HeapSize;
use crate::point::Point;

/// Integer coordinates of a grid cell (one `i32` per dimension).
///
/// The cell with coordinate `c` on a dimension covers the half-open interval
/// `[c * side, (c + 1) * side)`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellCoord(pub Coords);

impl CellCoord {
    /// Build from per-dimension indices.
    pub fn new(coords: impl Into<Coords>) -> Self {
        CellCoord(coords.into())
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }
}

impl core::fmt::Debug for CellCoord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

impl HeapSize for CellCoord {
    fn heap_size(&self) -> usize {
        self.0.heap_size()
    }
}

/// The per-dimension indices of a cell, read as an `[i32]`. Up to four
/// of them are held in place — the paper's streams are 2-d (GMTI) and 4-d
/// (STT), so a cell costs no allocation there — and more in one heap box.
/// Comparison, equality and hashing are the slice's, so cell order does
/// not depend on how a coordinate is held — and a map keyed by `Coords`
/// is probed with a plain `&[i32]` ([`Borrow`](core::borrow::Borrow)).
#[derive(Clone)]
pub struct Coords(Layout);

/// How [`Coords`] holds its indices: `Inline(len, buf)` has `len ≤ INLINE`
/// of them at the front of `buf` and zeros after, `Spilled` more than
/// `INLINE`.
#[derive(Clone)]
enum Layout {
    Inline(u8, [i32; Coords::INLINE]),
    Spilled(Box<[i32]>),
}

impl Coords {
    /// The most dimensions held without a heap box.
    const INLINE: usize = 4;
}

impl core::ops::Deref for Coords {
    type Target = [i32];

    #[inline]
    fn deref(&self) -> &[i32] {
        match &self.0 {
            Layout::Inline(len, buf) => &buf[..usize::from(*len)],
            Layout::Spilled(coords) => coords,
        }
    }
}

impl core::fmt::Debug for Coords {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        (**self).fmt(f)
    }
}

/// Sound because `Hash`, `Eq` and `Ord` below are the slice's.
impl core::borrow::Borrow<[i32]> for Coords {
    #[inline]
    fn borrow(&self) -> &[i32] {
        self
    }
}

impl HeapSize for Coords {
    /// 0 held in place, `4·d` spilled.
    fn heap_size(&self) -> usize {
        match &self.0 {
            Layout::Inline(..) => 0,
            Layout::Spilled(coords) => core::mem::size_of_val::<[i32]>(coords),
        }
    }
}

impl core::ops::DerefMut for Coords {
    #[inline]
    fn deref_mut(&mut self) -> &mut [i32] {
        match &mut self.0 {
            Layout::Inline(len, buf) => &mut buf[..usize::from(*len)],
            Layout::Spilled(coords) => coords,
        }
    }
}

impl From<&[i32]> for Coords {
    fn from(coords: &[i32]) -> Self {
        match coords.len() {
            len @ 0..=Coords::INLINE => {
                let mut buf = [0; Coords::INLINE];
                buf[..len].copy_from_slice(coords);
                Coords(Layout::Inline(len as u8, buf))
            }
            _ => Coords(Layout::Spilled(coords.into())),
        }
    }
}

impl From<Vec<i32>> for Coords {
    fn from(coords: Vec<i32>) -> Self {
        if coords.len() <= Coords::INLINE {
            Coords::from(&coords[..])
        } else {
            Coords(Layout::Spilled(coords.into_boxed_slice()))
        }
    }
}

impl<const N: usize> From<[i32; N]> for Coords {
    fn from(coords: [i32; N]) -> Self {
        Coords::from(&coords[..])
    }
}

impl FromIterator<i32> for Coords {
    fn from_iter<I: IntoIterator<Item = i32>>(iter: I) -> Self {
        let mut iter = iter.into_iter().fuse();
        let mut buf = [0; Coords::INLINE];
        let mut len = 0;
        for (slot, c) in buf.iter_mut().zip(&mut iter) {
            *slot = c;
            len += 1;
        }
        match iter.next() {
            None => Coords(Layout::Inline(len, buf)),
            Some(c) => {
                let spilled = buf.into_iter().chain([c]).chain(iter);
                Coords(Layout::Spilled(spilled.collect()))
            }
        }
    }
}

impl PartialEq for Coords {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Coords {}

impl PartialOrd for Coords {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Coords {
    #[inline]
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl core::hash::Hash for Coords {
    #[inline]
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

/// The geometry of a uniform grid over a `d`-dimensional data space.
#[derive(Clone, Debug, PartialEq)]
pub struct GridGeometry {
    dim: usize,
    side: f64,
    theta_r: f64,
    /// How many cells away (per dimension) a range query of radius θr can
    /// reach: `ceil(θr / side)`.
    reach: i32,
}

impl GridGeometry {
    /// Basic (level-0) geometry for a clustering query: cell diagonal = θr.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `theta_r <= 0`.
    pub fn basic(dim: usize, theta_r: f64) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert!(theta_r > 0.0, "theta_r must be positive");
        let side = theta_r / (dim as f64).sqrt();
        GridGeometry {
            dim,
            side,
            theta_r,
            reach: (theta_r / side).ceil() as i32,
        }
    }

    /// Geometry with an explicit side length (used by coarser resolutions,
    /// §6.1, where the side is the basic side times θ^level).
    pub fn with_side(dim: usize, theta_r: f64, side: f64) -> Self {
        assert!(dim > 0 && side > 0.0 && theta_r > 0.0);
        GridGeometry {
            dim,
            side,
            theta_r,
            reach: (theta_r / side).ceil() as i32,
        }
    }

    /// Dimensionality of the data space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Side length of each cell.
    #[inline]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// The range threshold this grid was built for.
    #[inline]
    pub fn theta_r(&self) -> f64 {
        self.theta_r
    }

    /// Cell diagonal length: `side * √d`. Equals θr for a basic grid.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        self.side * (self.dim as f64).sqrt()
    }

    /// How many cell layers a range query of radius θr can reach.
    #[inline]
    pub fn reach(&self) -> i32 {
        self.reach
    }

    /// The largest coordinate magnitude this grid addresses with
    /// head-room: cell indices up to ±2³⁰, half the `i32` range, which
    /// keeps `± reach` and adjacency offsets far from overflow. Far enough beyond it [`cell_of`](Self::cell_of)
    /// saturates distant points into one cell; ingestion rejects such
    /// points instead
    /// ([`Error::InvalidCoordinate`](crate::Error::InvalidCoordinate)).
    #[inline]
    pub fn coord_limit(&self) -> f64 {
        self.side * f64::from(1u32 << 30)
    }

    /// The cell index of coordinate `x` along any one dimension — the one
    /// place the cell arithmetic is written. The cast saturates: a
    /// coordinate beyond the `i32` cell range lands in the outermost cell
    /// (and NaN in cell 0); see [`coord_limit`](Self::coord_limit).
    #[inline]
    pub fn cell_index(&self, x: f64) -> i32 {
        (x / self.side).floor() as i32
    }

    /// Map a point to the coordinates of the cell containing it.
    pub fn cell_of(&self, p: &Point) -> CellCoord {
        debug_assert_eq!(p.dim(), self.dim, "point dimensionality mismatch");
        CellCoord(p.coords.iter().map(|&x| self.cell_index(x)).collect())
    }

    /// The minimum corner (location vector of Def. 4.4) of a cell.
    pub fn min_corner(&self, cell: &CellCoord) -> Vec<f64> {
        cell.0.iter().map(|&c| c as f64 * self.side).collect()
    }

    /// The center of a cell, used as the representative position for
    /// alignment seeding in the matcher.
    pub fn center(&self, cell: &CellCoord) -> Vec<f64> {
        cell.0
            .iter()
            .map(|&c| (c as f64 + 0.5) * self.side)
            .collect()
    }

    /// Enumerate the coordinates of every cell that a ball of radius θr
    /// centered anywhere inside `cell` can intersect, i.e. all cells within
    /// Chebyshev distance [`Self::reach`]. The center cell itself is
    /// included. Visits `(2·reach + 1)^d` cells.
    pub fn reachable_cells(&self, cell: &CellCoord) -> Vec<CellCoord> {
        let mut out = Vec::new();
        let mut offset = vec![-self.reach; self.dim];
        loop {
            out.push(CellCoord(
                cell.0
                    .iter()
                    .zip(offset.iter())
                    .map(|(c, o)| c + o)
                    .collect(),
            ));
            // odometer increment over the offset vector
            let mut i = 0;
            loop {
                if i == self.dim {
                    return out;
                }
                offset[i] += 1;
                if offset[i] <= self.reach {
                    break;
                }
                offset[i] = -self.reach;
                i += 1;
            }
        }
    }

    /// Minimum possible distance between any point of `a` and any point of
    /// `b` — used to prune cell pairs that can never host a neighbor pair.
    pub fn min_cell_dist(&self, a: &CellCoord, b: &CellCoord) -> f64 {
        let mut acc = 0.0;
        for (ca, cb) in a.0.iter().zip(b.0.iter()) {
            let gap = (ca.abs_diff(*cb) as f64 - 1.0).max(0.0) * self.side;
            acc += gap * gap;
        }
        acc.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_grid_diagonal_equals_theta_r() {
        for dim in 1..=5 {
            let g = GridGeometry::basic(dim, 0.7);
            assert!((g.diagonal() - 0.7).abs() < 1e-12, "dim {dim}");
        }
    }

    #[test]
    fn cell_of_floors_coordinates() {
        let g = GridGeometry::with_side(2, 1.0, 1.0);
        let c = g.cell_of(&Point::new(vec![2.5, -0.5], 0));
        assert_eq!(c, CellCoord::new(vec![2, -1]));
    }

    #[test]
    fn objects_in_same_basic_cell_are_neighbors() {
        // Lemma 4.1 precondition: any two positions in one cell are <= θr apart.
        let g = GridGeometry::basic(3, 2.0);
        let corner_a = Point::new(vec![0.0, 0.0, 0.0], 0);
        let eps = 1e-9;
        let corner_b = Point::new(vec![g.side() - eps; 3], 0);
        assert!(corner_a.is_neighbor(&corner_b, 2.0));
    }

    #[test]
    fn reachable_cells_cover_radius() {
        let g = GridGeometry::basic(2, 1.0);
        let center = CellCoord::new(vec![0, 0]);
        let cells = g.reachable_cells(&center);
        // reach = ceil(sqrt(2)) = 2 → 5x5 block
        assert_eq!(g.reach(), 2);
        assert_eq!(cells.len(), 25);
        assert!(cells.contains(&CellCoord::new(vec![-2, 2])));
        assert!(cells.contains(&center));
    }

    #[test]
    fn reachable_cells_suffice_for_neighbor_search() {
        // Any point within θr of a point in the center cell must fall in a
        // reachable cell.
        let g = GridGeometry::basic(2, 1.0);
        let p = Point::new(vec![0.01, 0.01], 0);
        let center = g.cell_of(&p);
        let q = Point::new(vec![0.01 - 1.0, 0.01], 0); // exactly θr away
        let qc = g.cell_of(&q);
        assert!(g.reachable_cells(&center).contains(&qc));
    }

    #[test]
    fn min_cell_dist_zero_for_adjacent() {
        let g = GridGeometry::basic(2, 1.0);
        let a = CellCoord::new(vec![0, 0]);
        let b = CellCoord::new(vec![1, 1]);
        assert_eq!(g.min_cell_dist(&a, &b), 0.0);
        let far = CellCoord::new(vec![3, 0]);
        assert!((g.min_cell_dist(&a, &far) - 2.0 * g.side()).abs() < 1e-12);
    }

    fn hash_of<T: core::hash::Hash + ?Sized>(value: &T) -> u64 {
        use core::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(value)
    }

    proptest::proptest! {
        /// A coordinate reads as the slice it was built from, whichever
        /// way it was built and on either side of the inline/spill
        /// boundary; it orders, compares and hashes as that slice — with
        /// every other coordinate and every prefix of itself, also as a
        /// map key probed by slice — and a write through it reads back.
        #[test]
        fn coords_behave_as_their_slice(
            a in proptest::prop::collection::vec(-2i32..2, 1..10),
            b in proptest::prop::collection::vec(-2i32..2, 1..10),
            at in 0usize..9,
            x in -9i32..9,
        ) {
            let mut built = vec![
                Coords::from(a.clone()),
                Coords::from(&a[..]),
                a.iter().copied().collect(),
                CellCoord::new(a.clone()).0,
            ];
            if let Ok(array) = <[i32; 4]>::try_from(&a[..]) {
                built.push(Coords::from(array));
            }
            for c in &built {
                proptest::prop_assert_eq!(&**c, &a[..]);
                proptest::prop_assert!(*c == built[0]);
            }
            let spilled = if a.len() > Coords::INLINE { 4 * a.len() } else { 0 };
            proptest::prop_assert_eq!(CellCoord::new(a.clone()).heap_size(), spilled);
            // A map keyed by coordinates is probed by slice.
            let keys: std::collections::HashSet<Coords> = [Coords::from(&b[..])].into();
            proptest::prop_assert_eq!(keys.contains(&a[..]), a == b);
            let mut others: Vec<&[i32]> = (0..=a.len()).map(|k| &a[..k]).collect();
            others.push(&b);
            for other in others {
                let (c, o) = (Coords::from(&a[..]), Coords::from(other));
                proptest::prop_assert_eq!(c.cmp(&o), a[..].cmp(other));
                proptest::prop_assert_eq!(c == o, a[..] == *other);
                proptest::prop_assert_eq!(hash_of(&o), hash_of(other));
            }
            let (mut c, mut a) = (Coords::from(&a[..]), a);
            let at = at % a.len();
            c[at] = x;
            a[at] = x;
            proptest::prop_assert_eq!(&*c, &a[..]);
        }
    }

    #[test]
    fn min_corner_and_center() {
        let g = GridGeometry::with_side(2, 1.0, 0.5);
        let c = CellCoord::new(vec![2, -1]);
        assert_eq!(g.min_corner(&c), vec![1.0, -0.5]);
        assert_eq!(g.center(&c), vec![1.25, -0.25]);
    }
}
