//! The query executor: every continuous query is multiplexed onto the
//! shared [`sgs_exec::Pool`] as a **task-per-ready-query** (`DESIGN.md`
//! §8) — replacing the former thread-per-query fan-out.
//!
//! Each query owns a `QueryCell`: a **bounded** input queue plus the
//! query's own [`StreamPipeline`]. Bounded input is the backpressure
//! mechanism: when a query falls behind, [`Runtime::push_batch`] blocks on
//! its queue instead of buffering unboundedly, throttling ingestion to the
//! slowest running query. An *idle* query is parked — no task exists for
//! it, so hundreds of registered-but-quiet queries cost zero threads.
//! The queue's one lock guards its messages, their byte count and a
//! `scheduled` flag, and every scheduling decision is made under it: the
//! enqueue that finds the flag clear sets it and spawns the query's pool
//! task, so at most one task per query is ever live. The task drains the
//! queue in bounded quanta. A `pop` that finds the queue empty clears the
//! flag and parks the query; at the end of a quantum the task re-queues
//! itself at the back of the pool's FIFO, behind other ready queries,
//! only if messages remain.
//!
//! Per-query execution therefore remains single-threaded over the
//! ingestion order — the `scheduled` flag serializes the cell — which is
//! what keeps the fan-out deterministic: a query's outputs and archive
//! are byte-identical to a solo pipeline run over the same points, no
//! matter how tasks interleave across workers.
//!
//! A query's archiver only selects. Its task commits a batch's selection
//! to the shared history ([`SharedPatternBase`], a locked
//! [`sgs_archive::DurablePatternBase`]), the only base it fills, in one
//! write under one lock taken after extraction — Fig. 4's concurrent
//! archiver/analyst arrangement. A failed commit fails the query with its
//! error; the batch's windows are still delivered.
//!
//! Completed windows go into the query's output buffer, the one
//! delivery path: [`Runtime::poll`] and the server's push subscriptions
//! both drain it.
//!
//! A panic inside query processing (a failing readiness hook, say) is
//! caught at the task boundary: the query moves to
//! [`QueryState::Failed`] and later input is drained and dropped, while
//! the pool worker — and every other query — carries on.
//!
//! [`Runtime::push_batch`]: crate::runtime::Runtime::push_batch
//! [`Runtime::poll`]: crate::runtime::Runtime::poll

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

use sgs_archive::{PatternId, SharedPatternBase};
use sgs_core::Point;
use sgs_exec::Pool;
use sgs_summarize::packed;

use crate::metrics::metrics;
use crate::output::OutputBuffer;
use crate::pipeline::StreamPipeline;
use crate::plan::DetectPlan;
use crate::registry::{QueryState, SharedStatus};

/// Control/data messages sent to a query's input queue. The data message
/// carries its enqueue instant so the executor can attribute the full
/// ingest→window-emit latency (`sgs_runtime_ingest_to_emit_nanos`), not
/// just pipeline time.
pub(crate) enum Msg {
    /// A batch of points to process as one unit. Shared (`Arc`) so the
    /// ingest thread materializes each broadcast chunk once, not once per
    /// query; each query's window engine reads the points in place.
    Batch(Arc<[Point]>, Instant),
    /// Synchronization barrier: acked once every message queued before
    /// this one has been fully processed.
    Barrier(mpsc::Sender<()>),
    /// Stop the query: drop its pipeline, send back the handles of what it
    /// archived, and drop any input queued behind this message.
    Stop(mpsc::Sender<Vec<PatternId>>),
}

/// Messages one task activation processes before re-queueing itself
/// behind other ready queries — the fairness quantum of the multiplexer.
const TASK_QUANTUM: usize = 16;

/// Approximate heap size of `points` in an input queue — what per-owner
/// input quotas meter, and what the server's admission check charges a
/// `Feed` before queueing it. A point costs its payload: 8 bytes per
/// coordinate plus a 16-byte header for the timestamp and allocation.
pub fn queued_bytes(points: &[Point]) -> usize {
    points.iter().map(|p| 16 + 8 * p.dim()).sum()
}

/// [`queued_bytes`] of one queued message; control messages are free. A
/// shared [`Msg::Batch`] chunk is charged once per queue it sits in: the
/// quota bounds *admitted-but-unprocessed work*, not allocator bytes.
fn msg_bytes(msg: &Msg) -> usize {
    match msg {
        Msg::Batch(b, _) => queued_bytes(b),
        Msg::Barrier(_) | Msg::Stop(_) => 0,
    }
}

/// The bounded input queue of one query. Producers block while it is at
/// capacity (backpressure); the query's executor task drains it.
struct InputQueue {
    capacity: usize,
    state: Mutex<Queued>,
    not_full: Condvar,
}

/// Lock-guarded input queue state.
struct Queued {
    msgs: VecDeque<Msg>,
    /// [`msg_bytes`] sum of `msgs` — what per-owner input quotas meter.
    bytes: usize,
    /// True while a pool task owns this query (queued or running). The
    /// single-owner discipline is what keeps per-query processing
    /// single-threaded in ingestion order.
    scheduled: bool,
}

impl InputQueue {
    /// Enqueue, blocking while the queue is at capacity if `bounded`
    /// (control messages are not: see [`QueryCell::send_control`]).
    /// Returns true when the query had no task: the caller spawns one.
    fn send(&self, msg: Msg, bounded: bool) -> bool {
        let cost = msg_bytes(&msg);
        let mut q = self.state.lock().unwrap();
        while bounded && q.msgs.len() >= self.capacity {
            q = self.not_full.wait(q).unwrap();
        }
        q.msgs.push_back(msg);
        q.bytes += cost;
        let spawn = !std::mem::replace(&mut q.scheduled, true);
        drop(q);
        metrics().input_queue_depth.inc();
        spawn
    }

    /// Take the oldest message. An empty queue parks the query: the task
    /// gives up `scheduled`, and the next enqueue spawns a fresh one.
    fn pop(&self) -> Option<Msg> {
        let mut q = self.state.lock().unwrap();
        let was_full = q.msgs.len() >= self.capacity;
        let Some(msg) = q.msgs.pop_front() else {
            q.scheduled = false;
            return None;
        };
        q.bytes -= msg_bytes(&msg);
        drop(q);
        // Producers only wait while the queue is at capacity, so
        // notifying is needed exactly on the full → not-full edge.
        if was_full {
            self.not_full.notify_all();
        }
        metrics().input_queue_depth.dec();
        Some(msg)
    }

    /// End a task's quantum: the query stays scheduled, and the caller
    /// spawns its next task, only if messages remain; otherwise it parks.
    fn end_quantum(&self) -> bool {
        let mut q = self.state.lock().unwrap();
        q.scheduled = !q.msgs.is_empty();
        q.scheduled
    }
}

/// Execution state a query task needs exclusive access to. `pipeline`
/// becomes `None` once [`Msg::Stop`] has been processed; messages drained
/// after that are dropped.
struct ExecState {
    pipeline: Option<StreamPipeline>,
    /// Handles, in the shared history, of the patterns this query
    /// archived — in archive order, so strictly increasing.
    archived: Vec<PatternId>,
}

/// One registered query's executor-side record: input queue, pipeline
/// and output buffer.
pub(crate) struct QueryCell {
    shared: SharedStatus,
    history: SharedPatternBase,
    /// Where completed windows wait until they are read.
    outputs: Arc<OutputBuffer>,
    input: InputQueue,
    exec: Mutex<ExecState>,
    pool: Pool,
}

impl QueryCell {
    /// Build the cell for one DETECT plan, its pipeline scheduled on
    /// `pool`.
    pub(crate) fn new(
        plan: &DetectPlan,
        shared: SharedStatus,
        history: SharedPatternBase,
        capacity: usize,
        outputs: Arc<OutputBuffer>,
        pool: Pool,
    ) -> sgs_core::Result<Arc<QueryCell>> {
        let pipeline = StreamPipeline::new(plan.query.clone(), plan.policy.clone(), plan.seed)?;
        Ok(Arc::new(QueryCell {
            shared,
            history,
            outputs,
            input: InputQueue {
                capacity: capacity.max(1),
                state: Mutex::new(Queued {
                    msgs: VecDeque::new(),
                    bytes: 0,
                    scheduled: false,
                }),
                not_full: Condvar::new(),
            },
            exec: Mutex::new(ExecState {
                pipeline: Some(pipeline),
                archived: Vec::new(),
            }),
            pool,
        }))
    }

    /// Enqueue a message (blocking on a full queue) and make sure a task
    /// is scheduled to process it.
    pub(crate) fn send(self: &Arc<Self>, msg: Msg) {
        if self.input.send(msg, true) {
            self.spawn();
        }
    }

    /// Enqueue a control message past the capacity bound (never blocks)
    /// and make sure a task is scheduled. Used for [`Msg::Stop`]: a
    /// cancel must be deliverable even while the queue sits at capacity,
    /// since the caller may hold locks the draining side needs.
    pub(crate) fn send_control(self: &Arc<Self>, msg: Msg) {
        if self.input.send(msg, false) {
            self.spawn();
        }
    }

    /// [`msg_bytes`] sum of this query's queued-but-unprocessed input —
    /// the per-query term of a per-owner input quota.
    pub(crate) fn queued_bytes(&self) -> usize {
        self.input.state.lock().unwrap().bytes
    }

    /// Spawn the executor task; the caller has just set `scheduled`.
    fn spawn(self: &Arc<Self>) {
        let cell = self.clone();
        self.pool.spawn(move || run(cell));
    }

    /// Process one batch: run the pipeline, commit what it selects to
    /// the shared history, buffer outputs, update the stats cell. A panic
    /// (e.g. in a readiness hook) fails the query instead of poisoning
    /// the worker.
    fn process(&self, points: &[Point], enqueued: Instant) {
        if self.shared.read().state == QueryState::Failed {
            return; // Drop points that were in flight when the query failed.
        }
        let mut exec = self.exec.lock().unwrap();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            process_batch(self, &mut exec, points, enqueued)
        }));
        if caught.is_err() {
            let mut status = self.shared.write();
            if status.state != QueryState::Cancelled {
                status.state = QueryState::Failed;
                status.stats.error =
                    Some("query execution panicked (see the worker's stderr)".into());
            }
        }
    }
}

/// The executor task body: drain up to [`TASK_QUANTUM`] messages, then
/// either re-queue behind other ready queries or park the query.
fn run(cell: Arc<QueryCell>) {
    for _ in 0..TASK_QUANTUM {
        let Some(msg) = cell.input.pop() else {
            return; // Parked.
        };
        match msg {
            Msg::Batch(b, enqueued) => cell.process(&b, enqueued),
            Msg::Barrier(ack) => {
                // Sender may have given up waiting; a dead ack is fine.
                let _ = ack.send(());
            }
            Msg::Stop(give) => {
                let mut exec = cell.exec.lock().unwrap();
                if exec.pipeline.take().is_some() {
                    let _ = give.send(std::mem::take(&mut exec.archived));
                }
                // Keep draining: queued input behind the stop is dropped,
                // and any blocked producers get unstuck.
            }
        }
    }
    if cell.input.end_quantum() {
        cell.spawn(); // Yield: stay scheduled, but let other ready queries run.
    }
}

/// The batch-processing body, under the cell's `exec` lock.
fn process_batch(cell: &QueryCell, exec: &mut ExecState, points: &[Point], enqueued: Instant) {
    let (Some(pipeline), archived) = (&mut exec.pipeline, &mut exec.archived) else {
        return; // Stopped: drain-and-drop whatever was queued behind.
    };
    let start = Instant::now();
    let (outputs, selected, fed) = pipeline.push_batch_selecting(points);
    // One commit under one write lock, taken once extraction is over.
    let bytes: usize = selected
        .iter()
        .map(|(sgs, _)| packed::archived_bytes(sgs))
        .sum();
    let committed = if selected.is_empty() {
        Ok(Vec::new())
    } else {
        cell.history.write().try_insert_all(selected)
    };
    let busy = start.elapsed().as_nanos() as u64;

    // Every completed window is delivered, also those of a batch that
    // failed partway or whose archive commit failed.
    let n_windows = outputs.len() as u64;
    let n_clusters: u64 = outputs.iter().map(|(_, o)| o.len() as u64).sum();
    for (window, out) in outputs {
        cell.outputs.push(window, out);
    }

    // Process-wide runtime metrics, one update per batch. The
    // ingest→emit histogram is attributed only to batches that actually
    // completed a window — it measures end-to-end result latency (queue
    // wait + pipeline), not per-batch overhead.
    if sgs_obs::enabled() {
        let m = metrics();
        m.points.add(points.len() as u64);
        m.batch_nanos.record(busy);
        m.windows_emitted.add(n_windows);
        if n_windows > 0 {
            m.ingest_to_emit_nanos.record_since(enqueued);
        }
    }

    // One stats write per batch, on success and failure alike, so the
    // counters stay consistent with the pattern base even when the batch
    // failed partway (points already accepted and windows already
    // archived count).
    let (new_bytes, error) = match committed {
        Ok(ids) => {
            archived.extend(ids);
            (bytes, fed.err().map(|e| e.to_string()))
        }
        Err(e) => (0, Some(crate::RuntimeError::Archive(e).to_string())),
    };
    let mut status = cell.shared.write();
    status.stats.points = pipeline.accepted();
    status.stats.windows += n_windows;
    status.stats.clusters += n_clusters;
    status.stats.archived = archived.len() as u64;
    status.stats.archive_bytes += new_bytes;
    status.stats.busy_nanos += busy;
    if let Some(msg) = error {
        status.state = QueryState::Failed;
        status.stats.error = Some(msg);
    }
}
