//! The window engine copies and buffers nothing: a batch pushed into a
//! consumer that allocates nothing allocates nothing, owned or borrowed,
//! across window boundaries. Counted per thread, so the harness's other
//! threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sgs_core::{Point, PointId, WindowId, WindowSpec};
use sgs_stream::{WindowConsumer, WindowEngine};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged. The counter is a
// const-initialized thread-local `Cell` with no destructor: touching it
// neither allocates nor re-enters the allocator, and `try_with` declines
// instead of panicking during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Counts the points inserted; allocates nothing.
struct Tally(u64);

impl WindowConsumer for Tally {
    type Output = u64;

    fn insert(&mut self, _id: PointId, _point: &Point, _expires_at: WindowId) {
        self.0 += 1;
    }

    fn slide(&mut self, _completed: WindowId) -> u64 {
        self.0
    }
}

#[test]
fn a_batch_through_the_engine_allocates_nothing() {
    // Boundaries at t = 6, 9, 12, ...: each 14-point batch spans several.
    let spec = WindowSpec::count(6, 3).unwrap();
    let batch: Vec<Point> = (0..14)
        .map(|i| Point::new(vec![i as f64, 0.5], 0))
        .collect();
    let owned = batch.clone();
    let mut engine = WindowEngine::new(spec, 2);
    let mut tally = Tally(0);
    let mut outputs = Vec::with_capacity(16);

    let count = || ALLOCATIONS.with(Cell::get);
    let at = count();
    assert_eq!(engine.push_batch(owned, &mut tally, &mut outputs), Ok(14));
    assert_eq!(count() - at, 0, "an owned batch is read in place");
    assert_eq!(engine.push_batch(&batch, &mut tally, &mut outputs), Ok(14));
    engine.push(&batch[0], &mut tally, &mut outputs).unwrap();
    assert_eq!(count() - at, 0, "a borrowed batch is not copied");

    // Windows close at t = 6, 9, ..., 27.
    assert_eq!((tally.0, outputs.len()), (29, 8));
}
