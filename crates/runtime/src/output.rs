//! Output-side buffering.
//!
//! Every query's completed windows land in an `OutputBuffer` shared
//! between its executor task (producer) and [`Runtime::poll_page`] /
//! [`Runtime::poll`] (consumers). The buffer is one lossless FIFO: every
//! completed window stays until it is read, and the producer never waits
//! on the consumer. A caller that must bound it refuses input instead
//! (the server's per-owner buffer quota).
//!
//! A window's encoded size is worked out once, when it is pushed; the
//! byte gauge and every page budget sum those stored costs. A reader
//! takes one page under one lock hold, and a window leaves the buffer
//! exactly once: nothing taken is ever put back.
//!
//! [`Runtime::poll`]: crate::runtime::Runtime::poll
//! [`Runtime::poll_page`]: crate::runtime::Runtime::poll_page

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use sgs_core::WindowId;
use sgs_csgs::WindowOutput;

/// Readiness callback attached to a query's output buffer: invoked
/// (outside the buffer lock) after every push, so an external consumer —
/// the server's reactor, which turns buffered windows into pushed
/// `Windows` frames — learns "this buffer has news" without polling. The
/// callback must not block and must not call back into the runtime;
/// `Runtime::set_output_notify` lists the threads it runs on.
pub type OutputNotify = Arc<dyn Fn() + Send + Sync>;

/// The buffered completed windows of one query.
pub(crate) struct OutputBuffer {
    queue: Mutex<Buffered>,
}

/// Lock-guarded buffer state.
struct Buffered {
    /// Each completed window with its [`window_cost`], recorded once
    /// when it is pushed.
    windows: VecDeque<(WindowId, WindowOutput, usize)>,
    /// Sum of the buffered windows' costs — what per-owner output
    /// quotas meter.
    bytes: usize,
    /// Readiness hook ([`OutputNotify`]), swapped in by
    /// `Runtime::set_output_notify` when a subscriber attaches. Under the
    /// same lock as `windows`, so a push either lands before the hook is
    /// installed (and the install fires it) or sees the hook.
    notify: Option<OutputNotify>,
}

/// Encoded size of one window inside a `Windows` frame body (window id
/// and cluster count, then per cluster its cores, edges and encoded
/// summary), so a per-owner output quota and a page budget meter exactly
/// the bytes a response carries. The summary's share comes from the
/// codec the wire uses; the framing around it is restated because the
/// runtime does not depend on the wire crate, and a facade test pins
/// this formula to the frame encoder.
pub(crate) fn window_cost(clusters: &WindowOutput) -> usize {
    let mut bytes = 8 + 4;
    for c in clusters {
        bytes += 4 + 4 * c.cores.len() + 4 + 4 * c.edges.len();
        bytes += sgs_summarize::codec::encoded_len(&c.sgs);
    }
    bytes
}

impl OutputBuffer {
    pub(crate) fn new() -> Self {
        OutputBuffer {
            queue: Mutex::new(Buffered {
                windows: VecDeque::new(),
                bytes: 0,
                notify: None,
            }),
        }
    }

    /// Install (or clear) the readiness callback. The new callback is
    /// invoked once immediately if windows are already buffered, so a
    /// subscriber attaching late never misses the wake for what is
    /// already there.
    pub(crate) fn set_notify(&self, notify: Option<OutputNotify>) {
        let mut q = self.queue.lock().unwrap();
        q.notify = notify;
        let fire_now = if q.windows.is_empty() {
            None
        } else {
            q.notify.clone()
        };
        drop(q);
        if let Some(cb) = fire_now {
            cb();
        }
    }

    /// Append one completed window and run the readiness callback, if
    /// one is installed, outside the lock. Never blocks.
    pub(crate) fn push(&self, window: WindowId, out: WindowOutput) {
        let cost = window_cost(&out);
        let mut q = self.queue.lock().unwrap();
        q.windows.push_back((window, out, cost));
        q.bytes += cost;
        let notify = q.notify.clone();
        drop(q);
        if let Some(cb) = notify {
            cb();
        }
    }

    /// Take one page of the oldest buffered windows under one lock hold,
    /// by the rule [`Runtime::poll_page`] documents, summing the costs
    /// stored at push.
    ///
    /// [`Runtime::poll_page`]: crate::runtime::Runtime::poll_page
    pub(crate) fn take(
        &self,
        max: usize,
        page_bytes: usize,
        window_cap: usize,
    ) -> Result<Vec<(WindowId, WindowOutput)>, WindowId> {
        let max = if max == 0 { usize::MAX } else { max };
        let mut q = self.queue.lock().unwrap();
        let (mut n, mut bytes) = (0, 0);
        for &(window, _, cost) in q.windows.iter().take(max) {
            if cost > window_cap {
                if n == 0 {
                    return Err(window);
                }
                break;
            }
            // `bytes < page_bytes` here: the loop stops once it is not.
            if n > 0 && cost > page_bytes - bytes {
                break;
            }
            n += 1;
            bytes += cost;
            if bytes >= page_bytes {
                break;
            }
        }
        q.bytes -= bytes;
        Ok(q.windows.drain(..n).map(|(w, out, _)| (w, out)).collect())
    }

    /// Wire-encoded size of everything buffered right now — what
    /// per-owner output quotas meter ([`window_cost`] sum).
    pub(crate) fn buffered_bytes(&self) -> usize {
        self.queue.lock().unwrap().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::PointId;
    use sgs_csgs::ExtractedCluster;
    use sgs_summarize::Sgs;

    fn window(n: u64) -> (WindowId, WindowOutput) {
        (WindowId(n), Vec::new())
    }

    /// Window `n` holding one cluster of `cores` core points — its cost
    /// grows by 4 bytes per core.
    fn sized(n: u64, cores: u32) -> (WindowId, WindowOutput) {
        let cluster = ExtractedCluster {
            cores: (0..cores).map(PointId).collect(),
            edges: Vec::new(),
            sgs: Sgs {
                dim: 2,
                side: 1.0,
                level: 0,
                cells: Default::default(),
            },
        };
        (WindowId(n), vec![Arc::new(cluster)])
    }

    fn buffer_of(windows: Vec<(WindowId, WindowOutput)>) -> OutputBuffer {
        let buf = OutputBuffer::new();
        for (w, out) in windows {
            buf.push(w, out);
        }
        buf
    }

    fn ids(page: &[(WindowId, WindowOutput)]) -> Vec<u64> {
        page.iter().map(|(w, _)| w.0).collect()
    }

    /// Take everything buffered, with no bound of any kind.
    fn take_all(buf: &OutputBuffer) -> Vec<(WindowId, WindowOutput)> {
        buf.take(0, usize::MAX, usize::MAX).unwrap()
    }

    #[test]
    fn unbounded_keeps_everything_in_order() {
        let buf = buffer_of((0..100).map(window).collect());
        let got = take_all(&buf);
        assert_eq!(ids(&got), (0..100).collect::<Vec<_>>());
        assert!(take_all(&buf).is_empty());
    }

    #[test]
    fn pop_yields_oldest_first() {
        let buf = buffer_of((0..3).map(window).collect());
        for n in 0..3 {
            let one = buf.take(1, usize::MAX, usize::MAX).unwrap();
            assert_eq!(ids(&one), vec![n]);
        }
        assert!(buf.take(1, usize::MAX, usize::MAX).unwrap().is_empty());
    }

    #[test]
    fn poll_batch_is_bounded_and_leaves_the_rest() {
        let buf = buffer_of((0..5).map(window).collect());
        let two = buf.take(2, usize::MAX, usize::MAX).unwrap();
        assert_eq!(ids(&two), vec![0, 1]);
        assert_eq!(
            ids(&take_all(&buf)),
            vec![2, 3, 4],
            "the rest stays buffered"
        );
    }

    #[test]
    fn take_honours_the_page_budget() {
        let buf = buffer_of((0..6).map(|n| sized(n, 10)).collect());
        let cost = window_cost(&sized(0, 10).1);
        // Two windows fit under the budget; the third would pass it and
        // stays buffered.
        let page = buf.take(0, 3 * cost - 1, usize::MAX).unwrap();
        assert_eq!(ids(&page), vec![0, 1]);
        // A page stops once its sum reaches the budget exactly.
        let page = buf.take(0, 2 * cost, usize::MAX).unwrap();
        assert_eq!(ids(&page), vec![2, 3]);
        // `max` binds before the budget does.
        let page = buf.take(1, usize::MAX, usize::MAX).unwrap();
        assert_eq!(ids(&page), vec![4]);
        assert_eq!(ids(&take_all(&buf)), vec![5]);
    }

    #[test]
    fn a_lone_window_over_the_budget_is_taken_alone() {
        let buf = buffer_of(vec![sized(0, 100), sized(1, 1)]);
        let small = window_cost(&sized(1, 1).1);
        let page = buf.take(0, small, usize::MAX).unwrap();
        assert_eq!(ids(&page), vec![0], "first window goes alone, over budget");
        let page = buf.take(0, small, usize::MAX).unwrap();
        assert_eq!(ids(&page), vec![1]);
    }

    #[test]
    fn an_over_cap_front_window_is_reported_and_left_in_place() {
        let buf = buffer_of(vec![sized(0, 100), sized(1, 1)]);
        let cap = window_cost(&sized(1, 1).1);
        let before = buf.buffered_bytes();
        assert_eq!(buf.take(0, usize::MAX, cap), Err(WindowId(0)));
        assert_eq!(
            buf.take(0, usize::MAX, cap),
            Err(WindowId(0)),
            "still there"
        );
        assert_eq!(buf.buffered_bytes(), before, "nothing was taken");
        // Without the cap it is delivered, still first.
        assert_eq!(ids(&take_all(&buf)), vec![0, 1]);
    }

    #[test]
    fn an_over_cap_later_window_ends_the_page() {
        let buf = buffer_of(vec![sized(0, 1), sized(1, 1), sized(2, 100), sized(3, 1)]);
        let cap = window_cost(&sized(0, 1).1);
        let page = buf.take(0, usize::MAX, cap).unwrap();
        assert_eq!(ids(&page), vec![0, 1], "the page ends before window 2");
        assert_eq!(buf.take(0, usize::MAX, cap), Err(WindowId(2)));
        assert_eq!(ids(&take_all(&buf)), vec![2, 3]);
    }

    #[test]
    fn byte_accounting_tracks_every_mutation() {
        let buf = OutputBuffer::new();
        assert_eq!(buf.buffered_bytes(), 0);
        assert_eq!(
            window_cost(&Vec::new()),
            12,
            "empty window: id + cluster count"
        );
        let windows: Vec<_> = (0..5).map(|n| sized(n, n as u32)).collect();
        let costs: Vec<usize> = windows.iter().map(|(_, out)| window_cost(out)).collect();
        for (w, out) in windows {
            buf.push(w, out);
        }
        assert_eq!(buf.buffered_bytes(), costs.iter().sum::<usize>());
        // The gauge falls by exactly the taken windows' costs.
        let page = buf.take(2, usize::MAX, usize::MAX).unwrap();
        assert_eq!(ids(&page), vec![0, 1]);
        assert_eq!(buf.buffered_bytes(), costs[2..].iter().sum::<usize>());
        let page = buf.take(0, costs[2] + costs[3], usize::MAX).unwrap();
        assert_eq!(ids(&page), vec![2, 3]);
        assert_eq!(buf.buffered_bytes(), costs[4]);
        take_all(&buf);
        assert_eq!(buf.buffered_bytes(), 0);
    }

    #[test]
    fn notify_fires_on_push_and_late_attach() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let buf = OutputBuffer::new();
        let fired = Arc::new(AtomicU64::new(0));
        let counter = fired.clone();
        buf.set_notify(Some(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        })));
        assert_eq!(fired.load(Ordering::SeqCst), 0, "empty buffer: no wake");
        buf.push(window(0).0, window(0).1);
        buf.push(window(1).0, window(1).1);
        assert_eq!(fired.load(Ordering::SeqCst), 2, "one wake per push");

        // A subscriber attaching after windows buffered gets one
        // immediate wake for the backlog.
        let late = Arc::new(AtomicU64::new(0));
        let counter = late.clone();
        buf.set_notify(Some(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        })));
        assert_eq!(late.load(Ordering::SeqCst), 1, "late attach sees backlog");
        buf.set_notify(None);
        buf.push(window(2).0, window(2).1);
        assert_eq!(late.load(Ordering::SeqCst), 1, "cleared hook stays quiet");
    }

    #[test]
    fn a_push_racing_an_attach_is_never_missed() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // A helper pushes one window a swept number of spins after the
        // test thread starts attaching a hook. Wherever the push lands,
        // the window ends up buffered, so the hook must have fired: from
        // the push if the hook was in first, from the attach otherwise.
        // The two threads meet on spinning flags, not a blocking barrier,
        // so the push lands within the attach's few hundred nanoseconds.
        const OFFSETS: u32 = 128;
        const SWEEPS: u32 = 1000;
        let wait_for = |flag: &AtomicU32, value: u32| {
            let mut spins = 0u32;
            while flag.load(Ordering::Acquire) != value {
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        };
        let buf = Arc::new(OutputBuffer::new());
        let fired = Arc::new(AtomicU32::new(0));
        let (go, done) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
        let helper = {
            let (buf, go, done) = (buf.clone(), go.clone(), done.clone());
            std::thread::spawn(move || {
                for i in 1..=OFFSETS * SWEEPS {
                    wait_for(&go, i);
                    for _ in 0..i % OFFSETS {
                        std::hint::spin_loop();
                    }
                    buf.push(window(0).0, window(0).1);
                    done.store(i, Ordering::Release);
                }
            })
        };
        let hook: OutputNotify = {
            let fired = fired.clone();
            Arc::new(move || {
                fired.fetch_add(1, Ordering::SeqCst);
            })
        };
        for i in 1..=OFFSETS * SWEEPS {
            go.store(i, Ordering::Release);
            buf.set_notify(Some(hook.clone()));
            wait_for(&done, i);
            assert!(
                fired.swap(0, Ordering::SeqCst) > 0,
                "iteration {i}: a window is buffered but no wake fired"
            );
            buf.set_notify(None);
            assert_eq!(take_all(&buf).len(), 1);
        }
        helper.join().unwrap();
    }
}
