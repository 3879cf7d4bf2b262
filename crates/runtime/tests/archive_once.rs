//! A query registered in a `Runtime` archives each pattern once: into
//! the shared history. Fed the same stream, the heap a runtime query
//! retains may exceed what a bare `StreamPipeline` retains by a fixed
//! allowance for its queue, buffer and registry entry — not by a second
//! indexed copy of the archive. Counted as live bytes through a wrapping
//! global allocator (process-wide: the query runs on pool workers).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sgs_core::Point;
use sgs_datagen::{generate_gmti, GmtiConfig};
use sgs_runtime::{QueryPlan, Runtime, StreamPipeline};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request is passed to `System` unchanged, so its contract
// is `System`'s; the counter is a plain atomic, which neither allocates
// nor re-enters the allocator. (`realloc` is the trait's default: an
// `alloc`, a copy and a `dealloc`, each counted here.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// A small window sliding often: the archive, not the window, is what
/// grows.
const DETECT: &str = "DETECT DensityBasedClusters f+s FROM gmti \
                      USING theta_range = 0.6 AND theta_cnt = 6 \
                      IN Windows WITH win = 400 AND slide = 100";

/// What a query may retain beyond the bare pipeline: input queue, output
/// buffer, status cell, registry entry, 8 bytes per archived pattern.
const ALLOWANCE: usize = 128 << 10;

#[test]
fn a_runtime_query_retains_one_copy_of_its_archive() {
    let stream: Vec<Point> = generate_gmti(&GmtiConfig {
        n_records: 60_000,
        ..GmtiConfig::default()
    });
    let mut rt = Runtime::new();
    rt.register_stream("gmti", 2);
    let QueryPlan::Detect(plan) = rt.plan(DETECT).unwrap() else {
        panic!("expected a detect plan");
    };
    assert_eq!(plan.policy, sgs_archive::ArchivePolicy::All);

    let before = live_bytes();
    let mut bare = StreamPipeline::new(plan.query.clone(), plan.policy.clone(), plan.seed).unwrap();
    for chunk in stream.chunks(500) {
        drop(bare.push_batch(chunk.iter().cloned()).unwrap());
    }
    let bare_growth = live_bytes() - before;
    let archived = bare.base().len();
    assert!(
        bare_growth > 8 * ALLOWANCE,
        "{archived} patterns in {bare_growth} B: too small an archive to tell one copy from two"
    );
    drop(bare);

    let before = live_bytes();
    let id = rt.submit_detect(*plan, None).unwrap();
    for chunk in stream.chunks(500) {
        rt.push_batch(chunk).unwrap();
        drop(rt.poll(id).unwrap());
    }
    rt.quiesce().unwrap();
    drop(rt.poll(id).unwrap());
    let runtime_growth = live_bytes() - before;
    assert_eq!(rt.stats(id).unwrap().archived, archived as u64);
    assert_eq!(rt.history(2).unwrap().read().len(), archived);

    assert!(
        runtime_growth <= bare_growth + ALLOWANCE,
        "a runtime query retained {runtime_growth} B for {archived} patterns, \
         a bare pipeline {bare_growth} B"
    );
}
