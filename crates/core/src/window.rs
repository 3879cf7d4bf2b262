//! Periodic sliding-window semantics (CQL-style, §3.1).
//!
//! A query has a fixed window size `win` and slide size `slide`, either
//! count-based (tuple counts) or time-based (timestamp intervals). Clusters
//! are produced once per slide over the points currently inside the window.
//!
//! The determinism of these semantics — every object's expiry window is known
//! the moment it arrives — is what makes the lifespan analysis of §5.3
//! possible; the arithmetic itself lives in `sgs-stream::lifespan` and is
//! built on [`WindowSpec`].

use crate::error::{Error, Result};

/// Whether window extents are measured in tuples or in timestamp units.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// `win` and `slide` count tuples; a point's "time" is its arrival
    /// sequence number.
    Count,
    /// `win` and `slide` are timestamp intervals; a point's time is its
    /// `ts` field.
    Time,
}

/// A periodic sliding window specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    /// Window extent (tuples or time units).
    pub win: u64,
    /// Slide extent (tuples or time units).
    pub slide: u64,
    /// Count- or time-based semantics.
    pub kind: WindowKind,
}

impl WindowSpec {
    /// Count-based window: the most recent `win` tuples, advancing every
    /// `slide` tuples.
    pub fn count(win: u64, slide: u64) -> Result<Self> {
        Self::validate(win, slide)?;
        Ok(WindowSpec {
            win,
            slide,
            kind: WindowKind::Count,
        })
    }

    /// Time-based window: the most recent `win` time units, advancing every
    /// `slide` units.
    pub fn time(win: u64, slide: u64) -> Result<Self> {
        Self::validate(win, slide)?;
        Ok(WindowSpec {
            win,
            slide,
            kind: WindowKind::Time,
        })
    }

    fn validate(win: u64, slide: u64) -> Result<()> {
        if win == 0 || slide == 0 {
            return Err(Error::InvalidWindow(
                "window and slide must be positive".into(),
            ));
        }
        if slide > win {
            return Err(Error::InvalidWindow(format!(
                "slide ({slide}) must not exceed window size ({win}): \
                 tumbling-with-gaps semantics are not defined by the paper"
            )));
        }
        if !win.is_multiple_of(slide) {
            return Err(Error::InvalidWindow(format!(
                "window size ({win}) must be a multiple of slide ({slide}) \
                 for periodic sliding windows"
            )));
        }
        Ok(())
    }

    /// Number of windows any single object participates in: `win / slide`.
    /// This is also the number of "views" Extra-N maintains, and the upper
    /// bound on every lifespan in the system.
    #[inline]
    pub fn views(&self) -> u64 {
        self.win / self.slide
    }

    /// Number of *complete* windows that have ended at or before logical
    /// time `t` (exclusive of the partial window still filling). Window
    /// `W_i` covers `[i*slide, i*slide + win)`, so it completes when
    /// `t >= i*slide + win`.
    pub fn completed_windows(&self, t: u64) -> u64 {
        if t < self.win {
            0
        } else {
            (t - self.win) / self.slide + 1
        }
    }

    /// Start (inclusive) of window `w` in logical time.
    #[inline]
    pub fn window_start(&self, w: u64) -> u64 {
        w * self.slide
    }

    /// End (exclusive) of window `w` in logical time.
    #[inline]
    pub fn window_end(&self, w: u64) -> u64 {
        w * self.slide + self.win
    }

    /// The first window that contains an object with logical time `t`:
    /// the smallest `w` with `window_start(w) <= t < window_end(w)`.
    pub fn first_window_of(&self, t: u64) -> u64 {
        if t < self.win {
            0
        } else {
            // earliest window whose end exceeds t
            (t - self.win) / self.slide + 1
        }
    }

    /// The last window containing logical time `t`: `floor(t / slide)`.
    #[inline]
    pub fn last_window_of(&self, t: u64) -> u64 {
        t / self.slide
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_extents() {
        assert!(WindowSpec::count(0, 1).is_err());
        assert!(WindowSpec::count(10, 0).is_err());
    }

    #[test]
    fn rejects_slide_larger_than_window() {
        assert!(WindowSpec::count(5, 10).is_err());
    }

    #[test]
    fn rejects_non_divisible_slide() {
        assert!(WindowSpec::count(10, 3).is_err());
        assert!(WindowSpec::count(10, 5).is_ok());
    }

    #[test]
    fn views_is_win_over_slide() {
        let w = WindowSpec::count(10_000, 1_000).unwrap();
        assert_eq!(w.views(), 10);
    }

    #[test]
    fn window_extents() {
        let w = WindowSpec::count(10, 2).unwrap();
        assert_eq!(w.window_start(0), 0);
        assert_eq!(w.window_end(0), 10);
        assert_eq!(w.window_start(3), 6);
        assert_eq!(w.window_end(3), 16);
    }

    #[test]
    fn membership_window_ranges() {
        let w = WindowSpec::count(10, 2).unwrap();
        // t=0 is only in window 0..=0? last = 0/2 = 0; first = 0.
        assert_eq!(w.first_window_of(0), 0);
        assert_eq!(w.last_window_of(0), 0);
        // t=9 participates in windows 0..=4
        assert_eq!(w.first_window_of(9), 0);
        assert_eq!(w.last_window_of(9), 4);
        // t=10: windows 1..=5
        assert_eq!(w.first_window_of(10), 1);
        assert_eq!(w.last_window_of(10), 5);
    }

    #[test]
    fn completed_windows_counts() {
        let w = WindowSpec::count(10, 2).unwrap();
        assert_eq!(w.completed_windows(9), 0);
        assert_eq!(w.completed_windows(10), 1); // window 0 = [0,10) done
        assert_eq!(w.completed_windows(11), 1);
        assert_eq!(w.completed_windows(12), 2);
    }

    #[test]
    fn every_point_in_views_windows() {
        // In steady state (t >= win - slide) every point participates in
        // exactly win/slide windows.
        let w = WindowSpec::count(12, 3).unwrap();
        for t in (w.win - w.slide)..40u64 {
            let first = w.first_window_of(t);
            let last = w.last_window_of(t);
            assert_eq!(last - first + 1, w.views(), "t={t}");
            assert!(w.window_start(first) <= t && t < w.window_end(first));
            assert!(w.window_start(last) <= t && t < w.window_end(last));
        }
    }
}
