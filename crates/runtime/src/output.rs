//! Output-side buffering.
//!
//! Every query's completed windows land in an `OutputBuffer` shared
//! between its executor task (producer) and [`Runtime::poll`]
//! (consumer). The buffer is one lossless FIFO: every completed window
//! stays until it is read, and the producer never waits on the consumer.
//! A caller that must bound it refuses input instead (the server's
//! per-owner buffer quota).
//!
//! [`Runtime::poll`]: crate::runtime::Runtime::poll

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
    /// Readiness hook ([`OutputNotify`]), swapped in by
    /// `Runtime::set_output_notify` when a subscriber attaches.
    notify: Mutex<Option<OutputNotify>>,
}

/// Lock-guarded buffer state.
struct Buffered {
    windows: VecDeque<(WindowId, WindowOutput)>,
    /// Wire-encoded size of every buffered window (the
    /// [`window_cost`] sum) — what per-owner output quotas meter.
    bytes: usize,
}

/// Encoded size of one buffered window — the same formula as
/// `sgs_wire::WireWindow::encoded_len` (window id + cluster count, then
/// per cluster its cores, edges and encoded summary), so a per-owner
/// output quota meters exactly the bytes a `Windows` response would
/// carry. The summary's share comes from the codec both use; the framing
/// around it is restated because the runtime does not depend on the wire
/// crate, and a server-side test pins the two formulas together.
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
            }),
            notify: Mutex::new(None),
        }
    }

    /// Install (or clear) the readiness callback. The new callback is
    /// invoked once immediately if windows are already buffered, so a
    /// subscriber attaching late never misses the wake for what is
    /// already there.
    pub(crate) fn set_notify(&self, notify: Option<OutputNotify>) {
        let fire_now = notify.is_some() && !self.queue.lock().unwrap().windows.is_empty();
        let installed = {
            let mut slot = self.notify.lock().unwrap();
            *slot = notify;
            slot.clone()
        };
        if fire_now {
            if let Some(cb) = installed {
                cb();
            }
        }
    }

    /// Run the readiness callback, if one is installed. Never called
    /// under the queue lock.
    fn fire_notify(&self) {
        let cb = self.notify.lock().unwrap().clone();
        if let Some(cb) = cb {
            cb();
        }
    }

    /// Append one completed window. Never blocks.
    pub(crate) fn push(&self, window: WindowId, out: WindowOutput) {
        let cost = window_cost(&out);
        let mut q = self.queue.lock().unwrap();
        q.windows.push_back((window, out));
        q.bytes += cost;
        drop(q);
        self.fire_notify();
    }

    /// Take everything buffered so far (completion order preserved).
    pub(crate) fn drain(&self) -> Vec<(WindowId, WindowOutput)> {
        let mut q = self.queue.lock().unwrap();
        q.bytes = 0;
        q.windows.drain(..).collect()
    }

    /// Take the oldest buffered window — the incremental unit
    /// [`PollBatch`] is built on.
    pub(crate) fn pop(&self) -> Option<(WindowId, WindowOutput)> {
        let mut q = self.queue.lock().unwrap();
        let out = q.windows.pop_front();
        if let Some((_, clusters)) = &out {
            q.bytes -= window_cost(clusters);
        }
        out
    }

    /// Return a just-popped window to the **front** of the buffer
    /// (undoing one [`pop`](Self::pop); completion order is preserved
    /// for the next drain).
    pub(crate) fn push_front(&self, window: WindowId, out: WindowOutput) {
        let cost = window_cost(&out);
        let mut q = self.queue.lock().unwrap();
        q.windows.push_front((window, out));
        q.bytes += cost;
    }

    /// Wire-encoded size of everything buffered right now — what
    /// per-owner output quotas meter ([`window_cost`] sum).
    pub(crate) fn buffered_bytes(&self) -> usize {
        self.queue.lock().unwrap().bytes
    }
}

/// Draining iterator over a query's buffered completed windows, returned
/// by [`Runtime::poll_batch`]: yields up to a bounded number of windows,
/// oldest first, popping each from the buffer as it is yielded.
///
/// Unlike [`Runtime::poll`] (which drains everything into one `Vec`),
/// this frees buffer capacity window by window, so a consumer that stops
/// early (a network writer hitting its own backpressure, say) leaves the
/// rest buffered for the next call. Dropping the iterator keeps
/// undrained windows intact.
///
/// [`Runtime::poll`]: crate::runtime::Runtime::poll
/// [`Runtime::poll_batch`]: crate::runtime::Runtime::poll_batch
pub struct PollBatch {
    pub(crate) buffer: Arc<OutputBuffer>,
    pub(crate) remaining: usize,
}

impl PollBatch {
    /// Return an unconsumed window to the front of the buffer, undoing
    /// one `next()` — for consumers that discover *after* popping that a
    /// window does not fit their budget (e.g. a network page). Order is
    /// preserved; the window is yielded again by the next drain (or by
    /// this iterator, which steps its bound back too).
    pub fn put_back(&mut self, window: WindowId, out: WindowOutput) {
        self.buffer.push_front(window, out);
        self.remaining = self.remaining.saturating_add(1);
    }
}

impl Iterator for PollBatch {
    type Item = (WindowId, WindowOutput);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let item = self.buffer.pop()?;
        self.remaining -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(n: u64) -> (WindowId, WindowOutput) {
        (WindowId(n), Vec::new())
    }

    #[test]
    fn unbounded_keeps_everything_in_order() {
        let buf = OutputBuffer::new();
        for n in 0..100 {
            buf.push(window(n).0, window(n).1);
        }
        let got = buf.drain();
        assert_eq!(got.len(), 100);
        assert!(got.iter().enumerate().all(|(i, (w, _))| w.0 == i as u64));
        assert!(buf.drain().is_empty());
    }

    #[test]
    fn pop_yields_oldest_first() {
        let buf = OutputBuffer::new();
        for n in 0..3 {
            buf.push(window(n).0, window(n).1);
        }
        assert_eq!(buf.pop().unwrap().0, WindowId(0));
        assert_eq!(buf.pop().unwrap().0, WindowId(1));
        assert_eq!(buf.pop().unwrap().0, WindowId(2));
        assert!(buf.pop().is_none());
    }

    #[test]
    fn poll_batch_is_bounded_and_leaves_the_rest() {
        let buf = Arc::new(OutputBuffer::new());
        for n in 0..5 {
            buf.push(window(n).0, window(n).1);
        }
        let batch = PollBatch {
            buffer: buf.clone(),
            remaining: 2,
        };
        let ids: Vec<u64> = batch.map(|(w, _)| w.0).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(buf.drain().len(), 3, "undrained windows stay buffered");
    }

    #[test]
    fn byte_accounting_tracks_every_mutation() {
        let buf = OutputBuffer::new();
        assert_eq!(buf.buffered_bytes(), 0);
        let per_window = window_cost(&Vec::new());
        assert_eq!(per_window, 12, "empty window: id + cluster count");
        for n in 0..3 {
            buf.push(window(n).0, window(n).1);
        }
        assert_eq!(buf.buffered_bytes(), 3 * per_window);
        let (w, out) = buf.pop().unwrap();
        assert_eq!(buf.buffered_bytes(), 2 * per_window);
        buf.push_front(w, out);
        assert_eq!(buf.buffered_bytes(), 3 * per_window);
        buf.drain();
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
}
