//! # sgs-runtime
//!
//! The concurrent multi-query streaming execution engine — the "system"
//! layer of the paper's premise (§1, Figs. 2–4): analysts continuously
//! submit DETECT and matching statements against one live stream, windows
//! are extracted and archived while they watch, and matching queries run
//! against the accumulating history. `sgs-query` parses the statements;
//! this crate executes them:
//!
//! * [`plan`] — the **planner**: lowers [`sgs_query::DetectQuery`] /
//!   [`sgs_query::MatchQueryAst`] into executable plans, resolving stream
//!   dimensionality through a [`StreamCatalog`] (the AST → plan binding
//!   the front-end previously lacked).
//! * [`registry`] — per-query identity ([`QueryId`]), lifecycle
//!   ([`QueryState`]: running / paused / cancelled / failed), and
//!   statistics ([`QueryStats`]: points, windows, clusters, archive
//!   bytes, processing latency).
//! * [`executor`] — the **query executor**: every continuous query is
//!   multiplexed onto the shared [`sgs_exec::Pool`] as a task-per-ready-
//!   query behind a *bounded* input queue (backpressure; idle queries
//!   cost zero threads), its archiver writing into the shared
//!   `parking_lot`-locked history base. See `DESIGN.md` §8.
//! * [`output`] — the **output buffer** every query's results land in:
//!   one lossless FIFO per query, holding each completed window until it
//!   is read; the executor never waits on a reader, and a reader takes a
//!   page of windows that leave the buffer once, never put back.
//! * [`pipeline`] — the single-query [`StreamPipeline`] (window engine →
//!   C-SGS → archiver), the execution unit each query task drives; on its
//!   own it fills a pattern base it owns, in a runtime the shared history.
//! * [`runtime`] — the one **runtime surface**: [`Runtime::submit`]
//!   accepts query-language text, [`Runtime::submit_detect`] registers a
//!   plan under an optional [`OwnerId`] tag, points enter through one
//!   ingestion path ([`StreamFeeder::push_batch`], behind
//!   [`Runtime::push_batch`] / [`Runtime::push_stream`] and
//!   [`Runtime::feeder`] snapshots), and results arrive through one
//!   output buffer per query, read a page at a time by
//!   [`Runtime::poll_page`] (byte-budgeted, for the network server) or
//!   all at once by [`Runtime::poll`].
//!
//! ## Determinism guarantee
//!
//! Every query runs its own [`StreamPipeline`] serialized over the
//! ingestion order (one live executor task per query, ever), so for any
//! set of concurrently registered queries the per-query outputs and
//! archived summaries (those its [`QueryReport`] names in the shared
//! history) are **byte-identical** to a solo pipeline run of the same
//! plan over the same points — scheduling changes wall-clock
//! interleaving, never results. The facade tests
//! `tests/runtime_determinism.rs` and `tests/scheduler_stress.rs` pin
//! this down (the latter with 32 concurrent queries on a two-worker
//! pool). See `DESIGN.md` §5 and §8 for the architecture rationale.

pub mod executor;
pub(crate) mod metrics;
pub mod output;
pub mod pipeline;
pub mod plan;
pub mod registry;
pub mod runtime;

pub use executor::queued_bytes;
pub use output::OutputNotify;
pub use pipeline::StreamPipeline;
pub use plan::{DetectPlan, MatchPlan, PlanError, Planner, QueryPlan, StreamCatalog};
pub use registry::{OwnerId, QueryDescriptor, QueryId, QueryState, QueryStats};
pub use runtime::{
    DurableArchive, PendingCancel, QueryReport, Runtime, RuntimeConfig, RuntimeError, StreamFeeder,
    Submission,
};
