//! Replaying a finite stream through a window engine.

use crate::engine::{WindowConsumer, WindowEngine};
use sgs_core::{Point, Result, WindowId, WindowSpec};

/// Run a consumer over an entire finite stream, returning every completed
/// window's output. Does **not** flush the final partial window — the
/// outputs correspond exactly to the windows the CQL semantics would emit.
pub fn replay<C: WindowConsumer>(
    spec: WindowSpec,
    points: impl IntoIterator<Item = Point>,
    dim: usize,
    consumer: &mut C,
) -> Result<Vec<(WindowId, C::Output)>> {
    let mut engine = WindowEngine::new(spec, dim);
    let mut outputs = Vec::new();
    for p in points {
        engine.push(p, consumer, &mut outputs)?;
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::PointId;

    struct Counter(Vec<usize>, usize);

    impl WindowConsumer for Counter {
        type Output = usize;
        fn insert(&mut self, _id: PointId, _p: &Point, _e: WindowId) {
            self.1 += 1;
        }
        fn slide(&mut self, _w: WindowId) -> usize {
            self.0.push(self.1);
            self.1
        }
    }

    #[test]
    fn replay_emits_all_complete_windows() {
        let spec = WindowSpec::count(4, 2).unwrap();
        let pts: Vec<Point> = (0..10).map(|i| Point::new(vec![i as f64], 0)).collect();
        let mut c = Counter(vec![], 0);
        let outs = replay(spec, pts, 1, &mut c).unwrap();
        // tuples 0..9: windows complete at t=4,6,8 → 3 windows
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].0, WindowId(0));
        assert_eq!(outs[2].0, WindowId(2));
    }
}
