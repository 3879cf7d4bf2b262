//! Lifespan analysis (§5.3 of the paper).
//!
//! All lifespans in this workspace are stored in **absolute window indices**
//! rather than relative window counts: a point carries `expires_at`, the
//! first [`WindowId`] in which it no longer participates. This avoids the
//! per-slide decrement the relative formulation would need — checking
//! liveness at window `w` is just `w < expires_at`.
//!
//! * Obs. 5.2 — a point with logical time `t` participates in windows
//!   `first_window_of(t) ..= last_window_of(t)`; its `expires_at` is
//!   `last_window_of(t) + 1`.
//! * Obs. 5.3 — a neighborship lives until `min` of the endpoints'
//!   `expires_at`.
//! * Obs. 5.4 — a point is a core object at window `w` iff at least θc of
//!   its (current and future) neighbors are alive at `w`; with the neighbor
//!   set known, its *core career* ends at the θc-th largest neighbor
//!   `expires_at` (capped by its own). [`core_until`] computes it in one
//!   shot; C-SGS reads it off each point's expiry-ordered neighbor list,
//!   and checks that reading against [`core_until`].

use sgs_core::{WindowId, WindowSpec};

/// First window in which a point with logical time `t` no longer
/// participates (Obs. 5.2, in absolute form).
#[inline]
pub fn expires_at(spec: &WindowSpec, t: u64) -> WindowId {
    WindowId(spec.last_window_of(t) + 1)
}

/// One-shot core-career computation (Obs. 5.4): given a point's own expiry
/// and the expiries of all its neighbors, return the first window in which
/// the point is **not** a core object. Requires θc ≥ 1.
///
/// The point is core at window `w` iff `w < own_expires` and at least
/// `theta_c` entries of `neighbor_expires` exceed `w`.
pub fn core_until(own_expires: WindowId, neighbor_expires: &[WindowId], theta_c: u32) -> WindowId {
    debug_assert!(theta_c >= 1);
    let k = theta_c as usize;
    if neighbor_expires.len() < k {
        // Never core: career "ends" immediately. We use window 0 as the
        // canonical "never" value only when nothing is alive; callers
        // compare with `<`, so returning the current window would also do.
        return WindowId(0);
    }
    // k-th largest expiry without full sort: selection on a copied buffer.
    let mut buf: Vec<u64> = neighbor_expires.iter().map(|w| w.0).collect();
    let idx = buf.len() - k;
    let (_, kth, _) = buf.select_nth_unstable(idx);
    WindowId((*kth).min(own_expires.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: u64) -> WindowId {
        WindowId(v)
    }

    #[test]
    fn expires_at_matches_window_membership() {
        let spec = WindowSpec::count(10, 2).unwrap();
        // t = 9 participates in windows 0..=4 → expires at 5
        assert_eq!(expires_at(&spec, 9), w(5));
        assert_eq!(expires_at(&spec, 10), w(6));
    }

    #[test]
    fn core_until_kth_largest() {
        // neighbors expiring at 3,5,7,9; θc=2 → core while ≥2 alive,
        // i.e. through window 6 (at w=7 only the 9-expiry one is alive).
        let nb = [w(3), w(5), w(7), w(9)];
        assert_eq!(core_until(w(100), &nb, 2), w(7));
        // own expiry caps the career
        assert_eq!(core_until(w(4), &nb, 2), w(4));
        // θc larger than neighbor count → never core
        assert_eq!(core_until(w(100), &nb, 5), w(0));
        // θc = 1 → largest
        assert_eq!(core_until(w(100), &nb, 1), w(9));
    }

    /// Neighbors arriving only move a career later (status *prolong*,
    /// Fig. 6): the θc-th latest expiry can rise, never fall.
    #[test]
    fn prolong_only_moves_later() {
        let mut nb = vec![w(4), w(4), w(4)];
        let c1 = core_until(w(100), &nb, 3);
        nb.extend([w(8); 3]); // new neighbors with long lifespans
        let c2 = core_until(w(100), &nb, 3);
        assert!(c2 >= c1);
        assert_eq!(c2, w(8));
    }
}
