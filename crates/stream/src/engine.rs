//! The window engine: drives a clustering algorithm over a stream.
//!
//! The engine owns nothing but the window bookkeeping. Algorithms implement
//! [`WindowConsumer`]; the engine hands every run of arriving points
//! between two window boundaries to
//! [`insert_batch`](WindowConsumer::insert_batch) (each point tagged with
//! its pre-computed expiry window, Obs. 5.2) and calls
//! [`slide`](WindowConsumer::slide) whenever a window completes, collecting
//! the per-window outputs.

use crate::lifespan::expires_at;
use sgs_core::{Error, Point, PointId, Result, WindowId, WindowKind, WindowSpec};

/// A sliding-window clustering algorithm, driven by [`WindowEngine`].
pub trait WindowConsumer {
    /// Per-window output (e.g. the set of extracted clusters).
    type Output;

    /// A new point arrived. `expires_at` is the first window in which the
    /// point no longer participates; the point participates in every window
    /// from the engine's current window up to `expires_at - 1`.
    fn insert(&mut self, id: PointId, point: &Point, expires_at: WindowId);

    /// A run of points that all arrive between two window boundaries (no
    /// slide occurs inside the batch), in arrival order. The default
    /// implementation loops over [`insert`](Self::insert); a consumer that
    /// can take a run at once overrides it.
    fn insert_batch(&mut self, items: &[(PointId, Point, WindowId)]) {
        for (id, point, expires_at) in items {
            self.insert(*id, point, *expires_at);
        }
    }

    /// Window `completed` is full: produce its output. After this call the
    /// engine considers `completed + 1` the current window; points with
    /// `expires_at == completed + 1` are gone from it.
    fn slide(&mut self, completed: WindowId) -> Self::Output;
}

/// Drives a [`WindowConsumer`] over a point stream with periodic sliding
/// windows (count- or time-based).
#[derive(Debug)]
pub struct WindowEngine {
    spec: WindowSpec,
    dim: usize,
    /// Largest accepted coordinate magnitude (see
    /// [`with_coord_limit`](Self::with_coord_limit)).
    coord_limit: f64,
    /// Arrivals so far: the next point's arrival sequence number, the
    /// count-window logical time, and (truncated) its [`PointId`].
    seq: u64,
    /// Smallest not-yet-completed window.
    current: u64,
    /// Last accepted timestamp (time-based ordering check).
    last_ts: u64,
    started: bool,
}

impl WindowEngine {
    /// New engine for a `dim`-dimensional stream. Any finite coordinate is
    /// accepted until [`with_coord_limit`](Self::with_coord_limit) narrows
    /// the domain.
    pub fn new(spec: WindowSpec, dim: usize) -> Self {
        WindowEngine {
            spec,
            dim,
            coord_limit: f64::MAX,
            seq: 0,
            current: 0,
            last_ts: 0,
            started: false,
        }
    }

    /// Reject points with a coordinate whose magnitude exceeds `limit`
    /// ([`Error::InvalidCoordinate`]). A consumer that buckets points
    /// into integer grid cells passes the largest magnitude its cell
    /// arithmetic can address
    /// ([`GridGeometry::coord_limit`](sgs_core::GridGeometry::coord_limit)),
    /// so an oversized value is a typed error at the door instead of a
    /// saturated or wrapped cell index inside. Non-finite coordinates are
    /// rejected under every limit.
    pub fn with_coord_limit(mut self, limit: f64) -> Self {
        self.coord_limit = limit;
        self
    }

    /// The smallest window that has not yet completed.
    #[inline]
    pub fn current_window(&self) -> WindowId {
        WindowId(self.current)
    }

    /// Number of points accepted so far.
    #[inline]
    pub fn accepted(&self) -> u64 {
        self.seq
    }

    /// The window spec this engine runs.
    #[inline]
    pub fn spec(&self) -> &WindowSpec {
        &self.spec
    }

    /// Logical time of a point under the configured window kind.
    #[inline]
    fn logical_time(&self, p: &Point) -> u64 {
        match self.spec.kind {
            WindowKind::Count => self.seq,
            WindowKind::Time => p.ts,
        }
    }

    /// The admission checks every arriving point passes, in order:
    /// dimensionality, coordinate domain, timestamp order (time-based
    /// windows; an admitted point becomes the new high-water mark).
    fn admit(&mut self, point: &Point) -> Result<()> {
        if point.dim() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                got: point.dim(),
            });
        }
        let limit = self.coord_limit;
        if let Some(axis) = point
            .coords
            .iter()
            .position(|x| x.is_nan() || x.abs() > limit)
        {
            return Err(Error::InvalidCoordinate(format!(
                "{:e} on axis {axis} is not finite or lies beyond ±{limit:e}",
                point.coords[axis]
            )));
        }
        if self.spec.kind == WindowKind::Time {
            if self.started && point.ts < self.last_ts {
                return Err(Error::OutOfOrderTimestamp {
                    last: self.last_ts,
                    got: point.ts,
                });
            }
            self.last_ts = point.ts;
            self.started = true;
        }
        Ok(())
    }

    /// Feed one point: [`push_batch`](Self::push_batch) of a single
    /// element. Completes any windows that close *before* this point
    /// (time-based streams can close several at once), pushing their outputs
    /// into `outputs`, then inserts the point into the consumer.
    pub fn push<C: WindowConsumer>(
        &mut self,
        point: Point,
        consumer: &mut C,
        outputs: &mut Vec<(WindowId, C::Output)>,
    ) -> Result<PointId> {
        self.push_batch([point], consumer, outputs)?;
        Ok(PointId((self.seq - 1) as u32))
    }

    /// Feed a batch of points. Returns the number of points accepted.
    ///
    /// The batch is cut into *segments* — maximal runs of points between
    /// two window boundaries — and each segment is handed to the consumer
    /// in one [`insert_batch`](WindowConsumer::insert_batch) call. The
    /// sequence of consumer `insert`/`slide` effects — and thus every
    /// output — does not depend on how a stream is cut into batches.
    ///
    /// On error (dimension mismatch, invalid coordinate, out-of-order
    /// timestamp), points before the failing one are already inserted and
    /// any windows they completed are already in `outputs`.
    pub fn push_batch<C: WindowConsumer>(
        &mut self,
        points: impl IntoIterator<Item = Point>,
        consumer: &mut C,
        outputs: &mut Vec<(WindowId, C::Output)>,
    ) -> Result<u64> {
        let mut accepted = 0u64;
        let mut boundary = self.spec.window_end(self.current);
        let mut segment: Vec<(PointId, Point, WindowId)> = Vec::new();
        for point in points {
            if let Err(e) = self.admit(&point) {
                if !segment.is_empty() {
                    consumer.insert_batch(&segment);
                }
                return Err(e);
            }
            let t = self.logical_time(&point);
            if t >= boundary {
                if !segment.is_empty() {
                    consumer.insert_batch(&segment);
                    segment.clear();
                }
                while t >= boundary {
                    let out = consumer.slide(WindowId(self.current));
                    outputs.push((WindowId(self.current), out));
                    self.current += 1;
                    boundary = self.spec.window_end(self.current);
                }
            }
            let id = PointId(self.seq as u32);
            self.seq += 1;
            segment.push((id, point, expires_at(&self.spec, t)));
            accepted += 1;
        }
        if !segment.is_empty() {
            consumer.insert_batch(&segment);
        }
        Ok(accepted)
    }

    /// Force-complete the current window (end-of-stream flush). Returns the
    /// output of the window that was closed.
    pub fn flush<C: WindowConsumer>(&mut self, consumer: &mut C) -> (WindowId, C::Output) {
        let w = WindowId(self.current);
        let out = consumer.slide(w);
        self.current += 1;
        (w, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test consumer that records the points alive in each window.
    #[derive(Default)]
    struct Recorder {
        alive: Vec<(PointId, WindowId)>,
    }

    impl WindowConsumer for Recorder {
        type Output = Vec<PointId>;

        fn insert(&mut self, id: PointId, _point: &Point, expires_at: WindowId) {
            self.alive.push((id, expires_at));
        }

        fn slide(&mut self, completed: WindowId) -> Vec<PointId> {
            let out = self
                .alive
                .iter()
                .filter(|(_, e)| completed < *e)
                .map(|(id, _)| *id)
                .collect();
            self.alive.retain(|(_, e)| e.0 > completed.0 + 1);
            out
        }
    }

    fn pt(x: f64, ts: u64) -> Point {
        Point::new(vec![x], ts)
    }

    #[test]
    fn count_windows_complete_on_schedule() {
        let spec = WindowSpec::count(4, 2).unwrap();
        let mut eng = WindowEngine::new(spec, 1);
        let mut rec = Recorder::default();
        let mut outs = Vec::new();
        for i in 0..8 {
            eng.push(pt(i as f64, 0), &mut rec, &mut outs).unwrap();
        }
        // Windows complete when tuple 4 and tuple 6 arrive.
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].0, WindowId(0));
        assert_eq!(
            outs[0].1,
            vec![PointId(0), PointId(1), PointId(2), PointId(3)]
        );
        assert_eq!(outs[1].0, WindowId(1));
        assert_eq!(
            outs[1].1,
            vec![PointId(2), PointId(3), PointId(4), PointId(5)]
        );
    }

    /// Past 2^32 arrivals count windows keep completing on schedule and
    /// expiries stay ahead of the current window; only the ids wrap.
    #[test]
    fn count_windows_run_past_two_to_the_32_arrivals() {
        let spec = WindowSpec::count(4, 2).unwrap();
        let mut eng = WindowEngine::new(spec, 1);
        // As if 2^32 − 4 points had arrived: window 2^31 − 4 covers
        // t ∈ [2^32 − 8, 2^32 − 4) and completes at the next arrival.
        let (start, first): (u64, u64) = ((1 << 32) - 4, (1 << 31) - 4);
        eng.seq = start;
        eng.current = first;
        let mut rec = Recorder::default();
        let mut outs = Vec::new();
        for i in 0..8 {
            eng.push(pt(i as f64, 0), &mut rec, &mut outs).unwrap();
        }
        let windows: Vec<WindowId> = outs.iter().map(|(w, _)| *w).collect();
        assert_eq!(
            windows,
            (first..first + 4).map(WindowId).collect::<Vec<_>>()
        );
        assert_eq!(eng.accepted(), start + 8);
        assert!(eng.accepted() > u64::from(u32::MAX));
        // Window 2^31 − 1 holds t ∈ [2^32 − 2, 2^32 + 2): the ids wrap.
        let ids = [u32::MAX - 1, u32::MAX, 0, 1].map(PointId);
        assert_eq!(outs[3].1, ids);
    }

    #[test]
    fn flush_completes_partial_window() {
        let spec = WindowSpec::count(4, 2).unwrap();
        let mut eng = WindowEngine::new(spec, 1);
        let mut rec = Recorder::default();
        let mut outs = Vec::new();
        for i in 0..5 {
            eng.push(pt(i as f64, 0), &mut rec, &mut outs).unwrap();
        }
        assert_eq!(outs.len(), 1);
        let (w, members) = eng.flush(&mut rec);
        assert_eq!(w, WindowId(1));
        assert_eq!(members, vec![PointId(2), PointId(3), PointId(4)]);
    }

    #[test]
    fn time_windows_can_close_many_at_once() {
        let spec = WindowSpec::time(10, 5).unwrap();
        let mut eng = WindowEngine::new(spec, 1);
        let mut rec = Recorder::default();
        let mut outs = Vec::new();
        eng.push(pt(0.0, 1), &mut rec, &mut outs).unwrap();
        assert!(outs.is_empty());
        // ts=42 closes windows 0..=6 (ends 10,15,...,40 ≤ 42 < 45)
        eng.push(pt(1.0, 42), &mut rec, &mut outs).unwrap();
        assert_eq!(outs.len(), 7);
        assert_eq!(outs[0].0, WindowId(0));
        assert_eq!(outs[0].1, vec![PointId(0)]);
        // later windows no longer contain p0 (its ts=1 expires after window 0)
        assert!(outs[1].1.is_empty());
    }

    #[test]
    fn rejects_wrong_dimension() {
        let spec = WindowSpec::count(4, 2).unwrap();
        let mut eng = WindowEngine::new(spec, 2);
        let mut rec = Recorder::default();
        let mut outs = Vec::new();
        let err = eng.push(pt(0.0, 0), &mut rec, &mut outs).unwrap_err();
        assert!(matches!(
            err,
            Error::DimensionMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn rejects_time_regression() {
        let spec = WindowSpec::time(10, 5).unwrap();
        let mut eng = WindowEngine::new(spec, 1);
        let mut rec = Recorder::default();
        let mut outs = Vec::new();
        eng.push(pt(0.0, 100), &mut rec, &mut outs).unwrap();
        let err = eng.push(pt(0.0, 99), &mut rec, &mut outs).unwrap_err();
        assert!(matches!(err, Error::OutOfOrderTimestamp { .. }));
    }

    #[test]
    fn push_batch_equals_per_point_push() {
        for spec in [
            WindowSpec::count(6, 2).unwrap(),
            WindowSpec::time(10, 5).unwrap(),
        ] {
            let points: Vec<Point> = (0..50).map(|i| pt(i as f64, i * 2)).collect();

            let mut solo_eng = WindowEngine::new(spec, 1);
            let mut solo_rec = Recorder::default();
            let mut solo_outs = Vec::new();
            for p in points.clone() {
                solo_eng.push(p, &mut solo_rec, &mut solo_outs).unwrap();
            }

            let mut batch_eng = WindowEngine::new(spec, 1);
            let mut batch_rec = Recorder::default();
            let mut batch_outs = Vec::new();
            let mut fed = 0u64;
            for chunk in points.chunks(7) {
                fed += batch_eng
                    .push_batch(chunk.to_vec(), &mut batch_rec, &mut batch_outs)
                    .unwrap();
            }

            assert_eq!(fed, points.len() as u64);
            assert_eq!(solo_outs, batch_outs);
            assert_eq!(solo_eng.current_window(), batch_eng.current_window());
            assert_eq!(solo_eng.accepted(), batch_eng.accepted());
        }
    }

    #[test]
    fn insert_batch_segments_never_span_boundaries() {
        /// Consumer that records the id runs handed to `insert_batch`.
        #[derive(Default)]
        struct Segments {
            runs: Vec<Vec<u32>>,
            slides: u64,
        }
        impl WindowConsumer for Segments {
            type Output = ();
            fn insert(&mut self, id: PointId, _p: &Point, _e: WindowId) {
                self.runs.push(vec![id.0]);
            }
            fn insert_batch(&mut self, items: &[(PointId, Point, WindowId)]) {
                self.runs
                    .push(items.iter().map(|(id, _, _)| id.0).collect());
            }
            fn slide(&mut self, _completed: WindowId) {
                self.slides += 1;
            }
        }
        let spec = WindowSpec::count(6, 3).unwrap();
        let mut eng = WindowEngine::new(spec, 1);
        let mut seg = Segments::default();
        let mut outs = Vec::new();
        let points: Vec<Point> = (0..14).map(|i| pt(i as f64, 0)).collect();
        eng.push_batch(points, &mut seg, &mut outs).unwrap();
        // Boundaries fall at t = 6, 9, 12 → runs 0..=5, 6..=8, 9..=11, 12..=13.
        let expect: Vec<Vec<u32>> = vec![
            (0..6).collect(),
            (6..9).collect(),
            (9..12).collect(),
            (12..14).collect(),
        ];
        assert_eq!(seg.runs, expect);
        assert_eq!(seg.slides, 3);
    }

    #[test]
    fn push_batch_rejects_wrong_dimension_mid_batch() {
        let spec = WindowSpec::count(4, 2).unwrap();
        let mut eng = WindowEngine::new(spec, 1);
        let mut rec = Recorder::default();
        let mut outs = Vec::new();
        let batch = vec![pt(0.0, 0), pt(1.0, 0), Point::new(vec![0.0, 0.0], 0)];
        let err = eng.push_batch(batch, &mut rec, &mut outs).unwrap_err();
        assert!(matches!(
            err,
            Error::DimensionMismatch {
                expected: 1,
                got: 2
            }
        ));
        // The two good points before the failure were accepted.
        assert_eq!(eng.accepted(), 2);
    }

    #[test]
    fn push_batch_rejects_time_regression_mid_batch() {
        let spec = WindowSpec::time(10, 5).unwrap();
        let mut eng = WindowEngine::new(spec, 1);
        let mut rec = Recorder::default();
        let mut outs = Vec::new();
        let batch = vec![pt(0.0, 3), pt(1.0, 7), pt(2.0, 6)];
        let err = eng.push_batch(batch, &mut rec, &mut outs).unwrap_err();
        assert!(matches!(
            err,
            Error::OutOfOrderTimestamp { last: 7, got: 6 }
        ));
        // The two in-order points before the failure were accepted.
        assert_eq!(eng.accepted(), 2);
    }

    #[test]
    fn push_batch_rejects_out_of_domain_coordinates_mid_batch() {
        let spec = WindowSpec::count(4, 2).unwrap();
        // No limit set: every finite value passes, no other does.
        let mut eng = WindowEngine::new(spec, 1);
        let mut rec = Recorder::default();
        let mut outs = Vec::new();
        let batch = vec![pt(f64::MAX, 0), pt(-1e300, 0), pt(f64::NAN, 0), pt(0.0, 0)];
        let err = eng.push_batch(batch, &mut rec, &mut outs).unwrap_err();
        assert!(matches!(err, Error::InvalidCoordinate(_)), "{err}");
        assert_eq!(eng.accepted(), 2);
        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            let err = eng.push(pt(bad, 0), &mut rec, &mut outs).unwrap_err();
            assert!(matches!(err, Error::InvalidCoordinate(_)), "{err}");
        }
        // A limit is inclusive and symmetric.
        let mut eng = WindowEngine::new(spec, 1).with_coord_limit(10.0);
        for ok in [10.0, -10.0] {
            eng.push(pt(ok, 0), &mut rec, &mut outs).unwrap();
        }
        for bad in [10.000001, -10.000001, f64::NAN] {
            let err = eng.push(pt(bad, 0), &mut rec, &mut outs).unwrap_err();
            assert!(matches!(err, Error::InvalidCoordinate(_)), "{err}");
        }
        assert_eq!(eng.accepted(), 2);
    }

    #[test]
    fn count_expiry_matches_engine_window() {
        // Every point must be reported alive in exactly win/slide windows
        // once the stream is in steady state.
        let spec = WindowSpec::count(6, 2).unwrap();
        let mut eng = WindowEngine::new(spec, 1);
        let mut rec = Recorder::default();
        let mut outs = Vec::new();
        for i in 0..30 {
            eng.push(pt(i as f64, 0), &mut rec, &mut outs).unwrap();
        }
        let mut appearances: std::collections::HashMap<PointId, u32> = Default::default();
        for (_, members) in &outs {
            for m in members {
                *appearances.entry(*m).or_default() += 1;
            }
        }
        // Points 0..=21 have fully completed lifecycles within the emitted
        // windows (last emitted window covers tuples up to 27).
        for id in 4..=21u32 {
            assert_eq!(appearances[&PointId(id)], 3, "point {id}");
        }
    }
}
