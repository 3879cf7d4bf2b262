//! Strongly-typed identifiers.
//!
//! Points and windows are referred to by dense `u32`/`u64` indices
//! throughout the workspace. Newtypes keep them from being mixed up and keep
//! hot structures small (see the *Type Sizes* guidance: indices are stored
//! as `u32` and widened at use sites).

use core::fmt;

/// Identifier of a stream object. Assigned densely in arrival order by the
/// stream engine, which counts arrivals in a `u64` and hands out that count
/// truncated to 32 bits: ids wrap after 2^32 arrivals, so they are distinct
/// among the live points while a window holds fewer than 2^32 arrivals,
/// but their order is not arrival order across a wrap.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PointId(pub u32);

/// Index of a window in the stream history. `WindowId(0)` is the first
/// complete window; lifespan arithmetic (Obs. 5.2) is done on these indices.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WindowId(pub u64);

impl PointId {
    /// Widen to a `usize` for slab indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl WindowId {
    /// The largest representable window index — "never expires" when
    /// used as an expiry (no real stream reaches it).
    pub const MAX: WindowId = WindowId(u64::MAX);

    /// The window that follows this one.
    #[inline]
    pub fn next(self) -> WindowId {
        WindowId(self.0 + 1)
    }

    /// The window `n` slides later.
    #[inline]
    pub fn advance(self, n: u64) -> WindowId {
        WindowId(self.0 + n)
    }
}

impl fmt::Debug for PointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Debug for WindowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}", self.0)
    }
}

impl fmt::Display for PointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Display for WindowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u32> for PointId {
    fn from(v: u32) -> Self {
        PointId(v)
    }
}

impl From<u64> for WindowId {
    fn from(v: u64) -> Self {
        WindowId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_arithmetic() {
        let w = WindowId(3);
        assert_eq!(w.next(), WindowId(4));
        assert_eq!(w.advance(5), WindowId(8));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", PointId(7)), "p7");
        assert_eq!(format!("{}", WindowId(9)), "W9");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(PointId(1) < PointId(2));
        assert!(WindowId(10) > WindowId(9));
    }
}
