//! Axis-aligned rectangles — the minimum bounding rectangles the pattern
//! base (§7.1) keeps per archived cluster and tests for overlap in a
//! position-sensitive MATCH.

use sgs_core::HeapSize;

/// Axis-aligned rectangle in `d` dimensions.
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    /// Minimum corner.
    pub min: Box<[f64]>,
    /// Maximum corner (inclusive).
    pub max: Box<[f64]>,
}

impl Rect {
    /// Build from corners.
    ///
    /// # Panics
    /// Panics if the corners disagree in dimensionality or are inverted.
    pub fn new(min: impl Into<Box<[f64]>>, max: impl Into<Box<[f64]>>) -> Self {
        let (min, max) = (min.into(), max.into());
        assert_eq!(min.len(), max.len(), "corner dimensionality mismatch");
        assert!(
            min.iter().zip(max.iter()).all(|(a, b)| a <= b),
            "inverted rectangle"
        );
        Rect { min, max }
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Whether two rectangles overlap (closed intervals).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.iter().zip(other.max.iter()).all(|(a, b)| a <= b)
            && other.min.iter().zip(self.max.iter()).all(|(a, b)| a <= b)
    }

    /// Volume (product of extents).
    pub fn volume(&self) -> f64 {
        self.min
            .iter()
            .zip(self.max.iter())
            .map(|(a, b)| b - a)
            .product()
    }
}

impl HeapSize for Rect {
    fn heap_size(&self) -> usize {
        (self.min.len() + self.max.len()) * core::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq(x: f64, y: f64, s: f64) -> Rect {
        Rect::new(vec![x, y], vec![x + s, y + s])
    }

    #[test]
    fn rect_predicates() {
        let a = sq(0.0, 0.0, 2.0);
        let b = sq(1.0, 1.0, 2.0);
        let c = sq(5.0, 5.0, 1.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // touching edges count as intersecting (closed intervals)
        assert!(a.intersects(&sq(2.0, 0.0, 1.0)));
        assert_eq!(sq(0.0, 0.0, 3.0).volume(), 9.0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn rect_rejects_inverted() {
        Rect::new(vec![1.0], vec![0.0]);
    }
}
