//! Construction-time metric handles of the runtime layer
//! (`DESIGN.md` §11). One process-wide set: queries are dynamic, so the
//! counters aggregate across every query on the runtime — per-query
//! detail stays in [`QueryStats`](crate::registry::QueryStats).

use std::sync::{Arc, OnceLock};

use sgs_obs::{registry, Counter, Gauge, Histogram};

pub(crate) struct RuntimeMetrics {
    /// Messages currently queued across all queries' bounded input
    /// queues.
    pub input_queue_depth: Arc<Gauge>,
    /// Points handed to query pipelines.
    pub points: Arc<Counter>,
    /// Windows emitted by all queries (pushed into their output buffers).
    pub windows_emitted: Arc<Counter>,
    /// Per-batch pipeline processing latency (extraction +
    /// summarization + archival), nanoseconds.
    pub batch_nanos: Arc<Histogram>,
    /// Ingest→window-emit latency: enqueue of a message to completion of
    /// the batch that emitted at least one window, nanoseconds.
    pub ingest_to_emit_nanos: Arc<Histogram>,
    /// Queries moved to `Paused` / back to `Running`.
    pub pauses: Arc<Counter>,
    pub resumes: Arc<Counter>,
}

pub(crate) fn metrics() -> &'static RuntimeMetrics {
    static METRICS: OnceLock<RuntimeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = registry();
        RuntimeMetrics {
            input_queue_depth: r.gauge("sgs_runtime_input_queue_depth"),
            points: r.counter("sgs_runtime_points_total"),
            windows_emitted: r.counter("sgs_runtime_windows_emitted_total"),
            batch_nanos: r.histogram("sgs_runtime_batch_nanos"),
            ingest_to_emit_nanos: r.histogram("sgs_runtime_ingest_to_emit_nanos"),
            pauses: r.counter("sgs_runtime_pauses_total"),
            resumes: r.counter("sgs_runtime_resumes_total"),
        }
    })
}
