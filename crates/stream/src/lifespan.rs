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
//!   `expires_at` (capped by its own). [`ExpiryHistogram`] maintains exactly
//!   this quantity incrementally.

use sgs_core::{WindowId, WindowSpec};

/// First window in which a point with logical time `t` no longer
/// participates (Obs. 5.2, in absolute form).
#[inline]
pub fn expires_at(spec: &WindowSpec, t: u64) -> WindowId {
    WindowId(spec.last_window_of(t) + 1)
}

/// Remaining lifespan (in windows) of a point at window `now`: the number of
/// windows from `now` (inclusive) in which the point still participates.
#[inline]
pub fn remaining(expires: WindowId, now: WindowId) -> u64 {
    expires.0.saturating_sub(now.0)
}

/// Lifespan of the neighborship between two points (Obs. 5.3): it ends when
/// the first endpoint expires.
#[inline]
pub fn neighborship_until(a_expires: WindowId, b_expires: WindowId) -> WindowId {
    WindowId(a_expires.0.min(b_expires.0))
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

/// Incrementally maintained histogram of neighbor expiries for one point.
///
/// This is the "non-core-career neighbor list" companion structure of §5.3:
/// instead of retaining full neighbor identities for core-career purposes,
/// it retains only *counts per expiry window*, bounded by `views + 1`
/// buckets. It answers:
///
/// * [`alive_at`](Self::alive_at) — how many recorded neighbors are alive at
///   a window, and
/// * [`core_until`](Self::core_until) — the end of the point's core career
///   (Obs. 5.4), which can only move *later* as new neighbors arrive
///   ("status prolong" in Fig. 6 of the paper).
#[derive(Clone, Debug, Default)]
pub struct ExpiryHistogram {
    /// `counts[i]` = number of neighbors whose `expires_at == base + i`.
    counts: Vec<u32>,
    /// Window id corresponding to `counts\[0\]`.
    base: u64,
    /// Total neighbors recorded and not yet pruned.
    total: u32,
}

impl ExpiryHistogram {
    /// Empty histogram; `base` becomes the first recorded expiry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a neighbor that expires at `w`.
    pub fn add(&mut self, w: WindowId) {
        if self.counts.is_empty() {
            self.base = w.0;
            self.counts.push(0);
        }
        if w.0 < self.base {
            let shift = (self.base - w.0) as usize;
            let mut fresh = vec![0u32; shift + self.counts.len()];
            fresh[shift..].copy_from_slice(&self.counts);
            self.counts = fresh;
            self.base = w.0;
        }
        let idx = (w.0 - self.base) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Number of recorded neighbors alive at window `w`
    /// (`expires_at > w`).
    pub fn alive_at(&self, w: WindowId) -> u32 {
        if self.counts.is_empty() {
            return 0;
        }
        if w.0 < self.base {
            return self.total;
        }
        // Neighbors expiring after `w`: the buckets past its own. Summed
        // from the tail, which is short for the recent windows C-SGS asks
        // about.
        let idx = (w.0 - self.base) as usize;
        self.counts
            .get(idx + 1..)
            .map_or(0, |alive| alive.iter().sum())
    }

    /// Number of recorded neighbors that expire exactly at window `w`.
    pub fn expiring_at(&self, w: WindowId) -> u32 {
        w.0.checked_sub(self.base)
            .and_then(|i| self.counts.get(i as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Drop buckets for windows `< now` (their neighbors have expired and
    /// can no longer affect any query at or after `now`), returning how
    /// many neighbors they held. Keeps the structure O(views); a second
    /// call with the same `now` drops nothing.
    pub fn prune(&mut self, now: WindowId) -> u32 {
        if self.counts.is_empty() || now.0 <= self.base {
            return 0;
        }
        let cut = ((now.0 - self.base) as usize).min(self.counts.len());
        let dead: u32 = self.counts[..cut].iter().sum();
        self.counts.drain(..cut);
        self.total -= dead;
        self.base = now.0;
        dead
    }

    /// End of the core career (Obs. 5.4): the first window `w ≥ now` at
    /// which fewer than `theta_c` recorded neighbors are alive, capped by
    /// `own_expires`. Returns `now` itself if the point is not core even at
    /// `now`.
    ///
    /// One pass: the alive count at `now` is carried forward, losing one
    /// bucket per window.
    pub fn core_until(&self, own_expires: WindowId, now: WindowId, theta_c: u32) -> WindowId {
        let mut w = now.0;
        let mut alive = self.alive_at(now);
        while w < own_expires.0 && alive >= theta_c {
            w += 1;
            // Neighbors expiring at `w` are dead from `w` on.
            let bucket = w
                .checked_sub(self.base)
                .and_then(|i| self.counts.get(i as usize));
            alive -= bucket.copied().unwrap_or(0);
        }
        WindowId(w)
    }

    /// Total recorded (unpruned) neighbors.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Heap bytes retained — exposed for the memory experiments.
    pub fn heap_bytes(&self) -> usize {
        self.counts.capacity() * core::mem::size_of::<u32>()
    }
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
    fn remaining_lifespan() {
        assert_eq!(remaining(w(5), w(2)), 3);
        assert_eq!(remaining(w(5), w(5)), 0);
        assert_eq!(remaining(w(5), w(7)), 0);
    }

    #[test]
    fn neighborship_is_min() {
        assert_eq!(neighborship_until(w(3), w(7)), w(3));
        assert_eq!(neighborship_until(w(9), w(4)), w(4));
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

    #[test]
    fn histogram_alive_counts() {
        let mut h = ExpiryHistogram::new();
        for e in [3u64, 5, 5, 7] {
            h.add(w(e));
        }
        assert_eq!(h.total(), 4);
        assert_eq!(h.alive_at(w(0)), 4);
        assert_eq!(h.alive_at(w(2)), 4);
        assert_eq!(h.alive_at(w(3)), 3); // the 3-expiry one died
        assert_eq!(h.alive_at(w(4)), 3);
        assert_eq!(h.alive_at(w(5)), 1);
        assert_eq!(h.alive_at(w(6)), 1);
        assert_eq!(h.alive_at(w(7)), 0);
    }

    #[test]
    fn histogram_core_until_agrees_with_oneshot() {
        let nb = [w(3), w(5), w(5), w(7), w(9), w(9)];
        let mut h = ExpiryHistogram::new();
        for e in &nb {
            h.add(*e);
        }
        for theta_c in 1..=6u32 {
            let oneshot = core_until(w(100), &nb, theta_c);
            let incremental = h.core_until(w(100), w(0), theta_c);
            // one-shot returns 0 for "never"; incremental returns `now`.
            if oneshot.0 == 0 {
                assert_eq!(incremental, w(0), "θc={theta_c}");
            } else {
                assert_eq!(incremental, oneshot, "θc={theta_c}");
            }
        }
    }

    #[test]
    fn histogram_prune_preserves_future_queries() {
        let mut h = ExpiryHistogram::new();
        for e in [2u64, 4, 6, 8] {
            h.add(w(e));
        }
        let before = h.alive_at(w(5));
        h.prune(w(5));
        assert_eq!(h.alive_at(w(5)), before);
        assert_eq!(h.alive_at(w(7)), 1);
        assert_eq!(h.total(), 2); // expiries 6 and 8 survive
    }

    #[test]
    fn histogram_handles_out_of_order_expiry() {
        let mut h = ExpiryHistogram::new();
        h.add(w(10));
        h.add(w(3)); // earlier than base — must re-base
        assert_eq!(h.alive_at(w(2)), 2);
        assert_eq!(h.alive_at(w(3)), 1);
        assert_eq!(h.alive_at(w(9)), 1);
        assert_eq!(h.alive_at(w(10)), 0);
    }

    /// `expiring_at`, `alive_at`, `total` and the count `prune` gives up
    /// agree with a plain multiset of expiries, under adds in any order
    /// (before the base, inside, past the end) and repeated prunes.
    #[test]
    fn histogram_operations_agree_with_a_multiset() {
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) % n
        };
        for _ in 0..50 {
            let (mut h, mut model, mut now) = (ExpiryHistogram::new(), Vec::<u64>::new(), 0);
            for _ in 0..200 {
                if next(4) == 0 {
                    now += next(3);
                    let before = model.len();
                    model.retain(|&e| e >= now);
                    assert_eq!(h.prune(w(now)) as usize, before - model.len());
                    assert_eq!(h.prune(w(now)), 0, "a second prune drops nothing");
                } else {
                    let e = now + next(12);
                    model.push(e);
                    h.add(w(e));
                }
                assert_eq!(h.total() as usize, model.len());
                let count =
                    |keep: &dyn Fn(u64) -> bool| model.iter().filter(|&&e| keep(e)).count() as u32;
                for q in now.saturating_sub(2)..now + 14 {
                    assert_eq!(h.expiring_at(w(q)), count(&|e| e == q), "at {q}");
                    assert_eq!(h.alive_at(w(q)), count(&|e| e > q), "after {q}");
                }
            }
        }
    }

    #[test]
    fn prolong_only_moves_later() {
        let mut h = ExpiryHistogram::new();
        for e in [4u64, 4, 4] {
            h.add(w(e));
        }
        let c1 = h.core_until(w(100), w(0), 3);
        h.add(w(8)); // new neighbor with long lifespan
        h.add(w(8));
        h.add(w(8));
        let c2 = h.core_until(w(100), w(0), 3);
        assert!(c2 >= c1);
        assert_eq!(c2, w(8));
    }
}
