//! Stream objects and distance functions.
//!
//! A [`Point`] is a single tuple of the input stream: a position in a
//! `d`-dimensional data space plus a timestamp. Following §3.1 of the paper,
//! the *neighbor* predicate between two points is `dist(a, b) <= theta_r`
//! under the Euclidean metric, and a point is **not** its own neighbor.

use crate::memsize::HeapSize;

/// A timestamped multi-dimensional stream object.
///
/// `ts` is the logical timestamp used by time-based windows; for count-based
/// windows the arrival sequence number (the [`crate::PointId`]) plays the
/// same role. Coordinates are owned so points can outlive their source
/// buffer; the dimensionality is `coords.len()` and must be uniform across a
/// stream (enforced by the stream engine).
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// Position in the data space.
    pub coords: Box<[f64]>,
    /// Logical timestamp (milliseconds or any monotone unit).
    pub ts: u64,
}

impl Point {
    /// Create a point from coordinates and a timestamp.
    pub fn new(coords: impl Into<Box<[f64]>>, ts: u64) -> Self {
        Point {
            coords: coords.into(),
            ts,
        }
    }

    /// Dimensionality of the data space this point lives in.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Euclidean distance to another point.
    ///
    /// # Panics
    /// Panics in debug builds if dimensionalities differ.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        dist(&self.coords, &other.coords)
    }

    /// Squared Euclidean distance — the form used on hot paths to avoid the
    /// square root when comparing against a squared threshold.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        dist_sq(&self.coords, &other.coords)
    }

    /// Whether `other` is a neighbor of `self` under range threshold
    /// `theta_r` (Def. 3.1). A point is *not* a neighbor of itself only by
    /// identity — callers must not pass the same object twice; geometrically
    /// coincident distinct points *are* neighbors.
    #[inline]
    pub fn is_neighbor(&self, other: &Point, theta_r: f64) -> bool {
        self.dist_sq(other) <= theta_r * theta_r
    }
}

/// Euclidean distance between two coordinate slices.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist_sq(a, b).sqrt()
}

/// Squared Euclidean distance between two coordinate slices.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut acc = 0.0;
    for i in 0..a.len().min(b.len()) {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

impl HeapSize for Point {
    fn heap_size(&self) -> usize {
        self.coords.len() * core::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coords: &[f64]) -> Point {
        Point::new(coords.to_vec(), 0)
    }

    #[test]
    fn distance_matches_hand_computation() {
        let a = p(&[0.0, 0.0]);
        let b = p(&[3.0, 4.0]);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist_sq(&b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = p(&[1.0, 2.0, 3.0]);
        let b = p(&[-1.0, 0.5, 9.0]);
        assert_eq!(a.dist(&b), b.dist(&a));
    }

    #[test]
    fn zero_distance_to_self_position() {
        let a = p(&[1.5, -2.5]);
        let b = p(&[1.5, -2.5]);
        assert_eq!(a.dist(&b), 0.0);
        assert!(a.is_neighbor(&b, 0.0));
    }

    #[test]
    fn neighbor_threshold_is_inclusive() {
        let a = p(&[0.0]);
        let b = p(&[2.0]);
        assert!(a.is_neighbor(&b, 2.0));
        assert!(!a.is_neighbor(&b, 1.999));
    }

    #[test]
    fn heap_size_counts_coordinates() {
        let a = p(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(a.heap_size(), 4 * 8);
    }

    #[test]
    fn dim_reports_coordinate_count() {
        assert_eq!(p(&[0.0; 4]).dim(), 4);
    }
}
