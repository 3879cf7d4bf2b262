//! The runtime surface: [`Runtime`] binds the query-language front-end to
//! running pipelines — submit statements as text, fan one ingested stream
//! out to every registered query, control lifecycles, and read stats.
//! Tenancy is a tag, not a second surface: a registration may carry an
//! [`OwnerId`], and the owner-aware operations select by it.

use std::path::PathBuf;
use std::sync::{mpsc, Arc};

use sgs_archive::{
    shared_durable_base, shared_pattern_base, ArchivePolicy, DurableConfig, MatchOutcome,
    PatternId, PersistError, SharedPatternBase,
};
use sgs_core::{Point, PoolThreads, ShardCount, WindowId};
use sgs_csgs::WindowOutput;
use sgs_exec::Pool;
use sgs_summarize::Sgs;

use crate::executor::{Msg, QueryCell};
use crate::output::{OutputBuffer, OutputNotify};
use crate::plan::{DetectPlan, MatchPlan, PlanError, Planner, QueryPlan, StreamCatalog};
use crate::registry::{
    new_shared_status, OwnerId, QueryDescriptor, QueryId, QueryState, QueryStats, SharedStatus,
};

/// Points per broadcast chunk: bounds the size of one channel message so
/// the bounded input channels keep exerting backpressure under
/// [`Runtime::push_batch`].
const BATCH_CHUNK: usize = 256;

/// Where (and how) the runtime's shared history bases persist. With one
/// of these in [`RuntimeConfig::durable_archive`], every per-dimension
/// history becomes a [`sgs_archive::DurablePatternBase`] rooted under
/// `dir` (`dir/dim2`, `dir/dim4`, …), recovering whatever a previous
/// process made durable at first use (`DESIGN.md` §10).
#[derive(Clone, Debug)]
pub struct DurableArchive {
    /// Root directory; each dimensionality gets a `dim{N}` subdirectory.
    pub dir: PathBuf,
    /// Checkpoint settings shared by every history base.
    pub config: DurableConfig,
}

impl DurableArchive {
    /// Durable archiving under `dir` with default settings.
    pub fn at(dir: impl Into<PathBuf>) -> DurableArchive {
        DurableArchive {
            dir: dir.into(),
            config: DurableConfig::default(),
        }
    }
}

/// Construction-time settings of a [`Runtime`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Capacity (in messages) of each query's bounded input channel.
    /// Smaller values bound memory and latency tighter; larger values
    /// tolerate burstier per-query processing cost.
    pub channel_capacity: usize,
    /// Archive policy handed to DETECT statements submitted as text.
    pub default_policy: ArchivePolicy,
    /// Archiver RNG seed handed to DETECT statements submitted as text.
    /// Every query gets this same seed, so a text-submitted query is
    /// reproduced solo by `StreamPipeline::new(plan.query, plan.policy,
    /// base_seed)`.
    pub base_seed: u64,
    /// Read by nothing. Kept solely because the frozen benchmark's
    /// `e2ebench/src/workloads.rs` sets it; see [`ShardCount`].
    pub default_shards: ShardCount,
    /// Size of the scheduler pool every query task runs on (`DESIGN.md`
    /// §8). Each query is one sequential pass, so this bounds how many
    /// queries make progress at once. [`PoolThreads::Auto`] (the
    /// default) uses the process-wide shared pool, one worker per CPU;
    /// [`PoolThreads::Fixed`] gives this runtime a dedicated pool of
    /// exactly that many workers. Scheduling never affects results, only
    /// wall-clock.
    pub pool_threads: PoolThreads,
    /// When set, shared history bases are durable: WAL-backed and
    /// checkpointed under this directory (`DESIGN.md` §10). `None` (the default) keeps them in memory
    /// only.
    pub durable_archive: Option<DurableArchive>,
    /// Turn on metric recording (`DESIGN.md` §11) for the whole process.
    /// Off by default: instrumented hot paths then cost a single relaxed
    /// atomic load. Enabling is process-global and one-way (the `sgs-obs`
    /// flag is monotonic), so one metrics-on runtime lights up every
    /// instrumented layer.
    pub metrics: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            channel_capacity: 1024,
            default_policy: ArchivePolicy::All,
            base_seed: 0,
            default_shards: ShardCount::Auto,
            pool_threads: PoolThreads::Auto,
            durable_archive: None,
            metrics: false,
        }
    }
}

/// What [`Runtime::submit`] produced.
#[derive(Debug)]
pub enum Submission {
    /// A DETECT statement became a registered continuous query.
    Continuous(QueryId),
    /// A matching statement executed immediately against the history.
    Matches(MatchOutcome),
}

/// Final accounting of a cancelled query.
#[derive(Debug)]
pub struct QueryReport {
    /// The query's handle.
    pub id: QueryId,
    /// The statement text it ran.
    pub text: String,
    /// Final statistics.
    pub stats: QueryStats,
    /// Handles, strictly increasing, of what this query archived: each
    /// resolves in the shared history MATCH reads ([`Runtime::history`])
    /// to the summary a solo [`StreamPipeline`](crate::StreamPipeline) run
    /// of the same plan archives.
    pub archived: Vec<PatternId>,
}

/// Runtime operation failures.
#[derive(Debug)]
pub enum RuntimeError {
    /// The statement could not be planned.
    Plan(PlanError),
    /// Pipeline construction rejected the plan.
    Query(sgs_core::Error),
    /// No query registered under this id.
    UnknownQuery(QueryId),
    /// A matching statement's `GIVEN` name has no bound cluster.
    UnknownBinding(String),
    /// The requested lifecycle transition is not legal from the current
    /// state (e.g. resuming a cancelled query).
    InvalidTransition {
        /// The query.
        id: QueryId,
        /// Its current state.
        from: QueryState,
    },
    /// The query's pipeline has already been stopped by a previous
    /// [`Runtime::cancel`](crate::runtime::Runtime::cancel).
    Disconnected(QueryId),
    /// The durable archive failed to open, recover, write or checkpoint.
    Archive(PersistError),
}

impl core::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RuntimeError::Plan(e) => write!(f, "{e}"),
            RuntimeError::Query(e) => write!(f, "query rejected: {e}"),
            RuntimeError::UnknownQuery(id) => write!(f, "no query registered as {id}"),
            RuntimeError::UnknownBinding(name) => {
                write!(
                    f,
                    "no cluster bound to {name:?}; bind one with bind_cluster"
                )
            }
            RuntimeError::InvalidTransition { id, from } => {
                write!(
                    f,
                    "illegal lifecycle transition for {id} (currently {from:?})"
                )
            }
            RuntimeError::Disconnected(id) => {
                write!(f, "query {id} was already cancelled (its pipeline is gone)")
            }
            RuntimeError::Archive(e) => write!(f, "durable archive failure: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Plan(e) => Some(e),
            RuntimeError::Query(e) => Some(e),
            RuntimeError::Archive(e) => Some(e),
            _ => None,
        }
    }
}

/// One registered query's runtime-side record.
struct QueryEntry {
    id: QueryId,
    text: String,
    /// The `FROM` stream this query reads (for stream-routed ingestion).
    stream: String,
    /// The owner tag this query was registered with
    /// ([`Runtime::submit_detect`]).
    owner: Option<OwnerId>,
    shared: SharedStatus,
    /// The executor-side cell: input queue + pipeline + scheduling flag.
    cell: Arc<QueryCell>,
    /// Where the query's completed windows wait to be polled; the same
    /// buffer its executor cell pushes into.
    outputs: Arc<OutputBuffer>,
    /// Set once [`Runtime::cancel`] has queued the stop.
    stopped: bool,
}

/// The multi-query streaming execution engine.
///
/// A `Runtime` serves the paper's system premise (§1, Figs. 2–3): many
/// analyst queries concurrently monitoring one stream while its history
/// accumulates for matching. DETECT statements become registered
/// continuous queries, multiplexed over the shared scheduler pool behind
/// bounded input queues (a task per *ready* query — idle queries cost
/// zero threads; see `DESIGN.md` §8); matching statements execute
/// immediately against the shared history base that every query's
/// archiver feeds.
///
/// ```
/// use sgs_core::Point;
/// use sgs_runtime::{Runtime, Submission};
///
/// let mut rt = Runtime::new();
/// rt.register_stream("demo", 2);
/// let Submission::Continuous(id) = rt
///     .submit(
///         "DETECT DensityBasedClusters f+s FROM demo \
///          USING theta_range = 0.5 AND theta_cnt = 2 \
///          IN Windows WITH win = 40 AND slide = 10",
///     )
///     .unwrap()
/// else {
///     unreachable!()
/// };
/// let points: Vec<Point> = (0..200)
///     .map(|i| Point::new(vec![(i % 5) as f64 * 0.2, ((i / 5) % 4) as f64 * 0.2], i))
///     .collect();
/// rt.push_batch(&points).unwrap();
/// rt.quiesce().unwrap();
/// assert!(!rt.poll(id).unwrap().is_empty());
/// let report = rt.cancel(id).unwrap();
/// assert!(report.stats.windows > 0 && !report.archived.is_empty());
/// assert!(rt.history(2).unwrap().read().get(report.archived[0]).is_some());
/// ```
pub struct Runtime {
    planner: Planner,
    /// The scheduler pool all query tasks run on.
    pool: Pool,
    entries: Vec<QueryEntry>,
    /// Shared history bases, one per pattern dimensionality (a MATCH
    /// compares summaries of one dimensionality, so differently-
    /// dimensioned streams archive into separate bases).
    histories: Vec<(usize, SharedPatternBase)>,
    bindings: Vec<(String, Sgs)>,
    next_id: u64,
    next_owner: u64,
    config: RuntimeConfig,
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime {
    /// Runtime with default configuration and an empty stream catalog.
    pub fn new() -> Self {
        Self::with_config(RuntimeConfig::default())
    }

    /// Runtime with explicit configuration.
    pub fn with_config(config: RuntimeConfig) -> Self {
        if config.metrics {
            sgs_obs::enable();
        }
        let mut planner = Planner::new(StreamCatalog::new());
        planner.default_policy = config.default_policy.clone();
        planner.default_seed = config.base_seed;
        let pool = match config.pool_threads {
            PoolThreads::Auto => sgs_exec::global().clone(),
            fixed @ PoolThreads::Fixed(_) => Pool::new(fixed.resolve()),
        };
        Runtime {
            planner,
            pool,
            entries: Vec::new(),
            histories: Vec::new(),
            bindings: Vec::new(),
            next_id: 0,
            next_owner: 0,
            config,
        }
    }

    /// Mint a fresh owner tag. Registrations made with it
    /// ([`submit_detect`](Self::submit_detect)) are what the owner-aware
    /// operations select by: [`queries_for`](Self::queries_for),
    /// [`feeder`](Self::feeder), [`evict_cancelled`](Self::evict_cancelled)
    /// and the per-owner byte gauges. Each network session of
    /// `streamsum-server` holds one, which is what keeps concurrent
    /// analysts' feeds and listings apart on a shared runtime. Id-taking methods are *not* owner-checked: a
    /// tenant-facing embedder keeps ids private per tenant, as the
    /// server's per-connection id table does.
    pub fn new_owner(&mut self) -> OwnerId {
        let owner = OwnerId(self.next_owner);
        self.next_owner += 1;
        owner
    }

    /// The scheduler pool this runtime multiplexes its queries over.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Register (or re-register) a source stream and its dimensionality so
    /// DETECT statements can reference it.
    ///
    /// # Panics
    ///
    /// If `dim == 0` (see [`StreamCatalog::register`]): dimensionality is
    /// part of the programmatic source definition, not user query input.
    pub fn register_stream(&mut self, name: &str, dim: usize) {
        self.planner.catalog_mut().register(name, dim);
    }

    /// The planner (catalog inspection, default archive settings).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Plan a statement without executing it.
    pub fn plan(&self, text: &str) -> Result<QueryPlan, RuntimeError> {
        self.planner.plan(text).map_err(RuntimeError::Plan)
    }

    /// Submit one statement of either template.
    ///
    /// * DETECT → registers an unowned continuous query and returns its
    ///   [`QueryId`]; drain its windows with [`poll`](Self::poll).
    /// * GIVEN/SELECT → resolves the `GIVEN` name against the cluster
    ///   bindings and executes against the shared history immediately.
    pub fn submit(&mut self, text: &str) -> Result<Submission, RuntimeError> {
        match self.plan(text)? {
            QueryPlan::Detect(plan) => self.submit_detect(*plan, None).map(Submission::Continuous),
            QueryPlan::Match(plan) => self.run_match(&plan).map(Submission::Matches),
        }
    }

    /// Register a planned DETECT query, tagged with `owner` (`None` =
    /// unowned, the single-user case); every completed window is buffered
    /// for [`poll`](Self::poll).
    pub fn submit_detect(
        &mut self,
        plan: DetectPlan,
        owner: Option<OwnerId>,
    ) -> Result<QueryId, RuntimeError> {
        let id = QueryId(self.next_id);
        let shared = new_shared_status();
        let history = self.history_for_dim(plan.query.dim)?;
        let outputs = Arc::new(OutputBuffer::new());
        let cell = QueryCell::new(
            &plan,
            shared.clone(),
            history,
            self.config.channel_capacity,
            outputs.clone(),
            self.pool.clone(),
        )
        .map_err(RuntimeError::Query)?;
        self.next_id += 1;
        self.entries.push(QueryEntry {
            id,
            text: plan.ast.to_string(),
            stream: plan.ast.stream.clone(),
            owner,
            shared,
            cell,
            outputs,
            stopped: false,
        });
        Ok(id)
    }

    /// Execute a planned matching query against the shared history of the
    /// bound cluster's dimensionality (empty outcome if no query of that
    /// dimensionality has ever been registered).
    pub fn run_match(&self, plan: &MatchPlan) -> Result<MatchOutcome, RuntimeError> {
        let sgs = self
            .binding(&plan.ast.given)
            .ok_or_else(|| RuntimeError::UnknownBinding(plan.ast.given.clone()))?;
        Ok(match self.history(sgs.dim) {
            Some(h) => h.read().match_query(sgs, &plan.config),
            None => MatchOutcome::default(),
        })
    }

    /// Bind a cluster summary to a name, making it addressable as the
    /// `GIVEN` clause of matching statements.
    pub fn bind_cluster(&mut self, name: &str, sgs: Sgs) {
        if let Some(entry) = self.bindings.iter_mut().find(|(n, _)| n == name) {
            entry.1 = sgs;
        } else {
            self.bindings.push((name.to_string(), sgs));
        }
    }

    /// Look up a bound cluster.
    fn binding(&self, name: &str) -> Option<&Sgs> {
        self.bindings
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Fan a batch of points out to every running query, regardless of
    /// which `FROM` stream it reads — a convenience for single-stream
    /// setups. When queries over *different* streams coexist, use
    /// [`push_stream`](Self::push_stream) so each query only sees its own
    /// source.
    ///
    /// The batch travels in bounded chunks, each materialized once and
    /// shared (`Arc`) across the queries, and the call blocks while a
    /// query's bounded input queue is full (backpressure), so ingestion
    /// is throttled to the slowest running query even within one call.
    /// Paused and failed queries are skipped — for them the points are a
    /// gap in the stream, not buffered work. A query that fails later
    /// (a point it cannot accept, a panicking readiness hook) is moved
    /// to [`QueryState::Failed`] by its own executor task and skipped
    /// from then on; ingestion continues for the healthy queries.
    ///
    /// The `push` family currently never errors (failures surface
    /// per-query through [`QueryState`] / [`QueryStats::error`]); the
    /// `Result` is kept for forward compatibility with fallible
    /// ingestion paths (e.g. network sources).
    pub fn push_batch(&self, points: &[Point]) -> Result<(), RuntimeError> {
        self.feeder(None, None).push_batch(points);
        Ok(())
    }

    /// Fan a batch of points from the named source stream out to exactly
    /// the running queries whose `FROM` clause reads that stream (name
    /// match is case-insensitive, like the catalog). Queries over other
    /// streams are untouched — this is the ingestion entry point for
    /// runtimes serving differently-dimensioned streams at once. Blocking
    /// and skipping are as for [`push_batch`](Self::push_batch).
    pub fn push_stream(&self, stream: &str, points: &[Point]) -> Result<(), RuntimeError> {
        self.feeder(None, Some(stream)).push_batch(points);
        Ok(())
    }

    /// A lock-free ingestion/barrier handle over a **snapshot** of the
    /// queries matching `owner` and/or `stream` (`None` = no filter) at
    /// the moment of the call. The handle holds only `Arc`s, so a caller
    /// that guards the `Runtime` itself behind a lock (the network
    /// server shares one behind an `RwLock`) can take the snapshot under
    /// the lock, release it, and then block in
    /// [`StreamFeeder::push_batch`] / [`StreamFeeder::quiesce`] without
    /// wedging every other runtime operation behind a backpressure
    /// stall. Queries registered after the snapshot are not fed by it;
    /// take a fresh feeder per batch.
    pub fn feeder(&self, owner: Option<OwnerId>, stream: Option<&str>) -> StreamFeeder {
        StreamFeeder {
            targets: self
                .entries
                .iter()
                .filter(|entry| !entry.stopped)
                .filter(|entry| owner.is_none() || entry.owner == owner)
                .filter(|entry| stream.is_none_or(|name| entry.stream.eq_ignore_ascii_case(name)))
                .map(|entry| (entry.shared.clone(), entry.cell.clone()))
                .collect(),
        }
    }

    /// Block until every live query has processed all input queued so far
    /// (a barrier through each query's input queue). After `quiesce`,
    /// stats and [`poll`](Self::poll) reflect every point pushed before
    /// the call.
    pub fn quiesce(&self) -> Result<(), RuntimeError> {
        self.feeder(None, None).quiesce();
        Ok(())
    }

    /// Drain the buffered completed windows of a query (non-blocking):
    /// [`poll_page`](Self::poll_page) with no bound of any kind.
    /// Takes `&self` — like the `push` family — so a drainer thread can
    /// run concurrently with ingestion.
    pub fn poll(&self, id: QueryId) -> Result<Vec<(WindowId, WindowOutput)>, RuntimeError> {
        Ok(self
            .poll_page(id, 0, usize::MAX, usize::MAX)?
            .expect("no window exceeds an unbounded cap"))
    }

    /// Take one page of a query's buffered completed windows, oldest
    /// first, under one lock hold — the unit the network server turns
    /// into one `Windows` frame. The page holds at most `max` windows
    /// (`0` means no bound) and stops once their summed encoded size
    /// reaches `page_bytes`; a window that would push it past the budget
    /// stays buffered, unless it is the first, which is taken alone. A
    /// window encoding to more than `window_cap` bytes is never taken:
    /// at the front of the buffer it leaves the page empty and its id is
    /// the inner `Err`, further back it ends the page. What is not taken
    /// stays buffered for the next call; nothing taken is put back.
    /// Like [`poll`](Self::poll), takes `&self` so drainers run
    /// concurrently with ingestion.
    pub fn poll_page(
        &self,
        id: QueryId,
        max: usize,
        page_bytes: usize,
        window_cap: usize,
    ) -> Result<Result<Vec<(WindowId, WindowOutput)>, WindowId>, RuntimeError> {
        Ok(self.entry(id)?.outputs.take(max, page_bytes, window_cap))
    }

    /// Install (or, with `None`, clear) the readiness hook of a query's
    /// output buffer: `notify` fires after every buffered window push —
    /// and immediately, once, if windows are already buffered when it is
    /// installed. This is the server-push seam: the reactor registers a
    /// waker here so a completed window turns into an unsolicited
    /// `Windows` frame without any polling thread.
    ///
    /// The hook always runs outside the buffer lock, but on one of two
    /// threads:
    /// * the executor worker that completed the window, after each push
    ///   (a panic there fails the query like any other processing panic);
    /// * the thread calling this method, for the immediate fire when
    ///   windows are already buffered.
    ///
    /// It must therefore not block or call back into the runtime.
    ///
    /// Installing the hook and a push are ordered by the buffer's one
    /// lock: a window pushed before the install is seen by the install's
    /// immediate fire, and one pushed after it fires the new hook, so a
    /// subscriber is never left with a buffered window and no wake.
    pub fn set_output_notify(
        &self,
        id: QueryId,
        notify: Option<OutputNotify>,
    ) -> Result<(), RuntimeError> {
        self.entry(id)?.outputs.set_notify(notify);
        Ok(())
    }

    /// Pause a running query: subsequent points are skipped for it until
    /// [`resume`](Self::resume). Points already queued are still
    /// processed.
    pub fn pause(&mut self, id: QueryId) -> Result<(), RuntimeError> {
        self.transition(id, QueryState::Running, QueryState::Paused)
    }

    /// Resume a paused query.
    pub fn resume(&mut self, id: QueryId) -> Result<(), RuntimeError> {
        self.transition(id, QueryState::Paused, QueryState::Running)
    }

    fn transition(
        &mut self,
        id: QueryId,
        from: QueryState,
        to: QueryState,
    ) -> Result<(), RuntimeError> {
        let entry = self.entry(id)?;
        let mut status = entry.shared.write();
        if status.state != from {
            return Err(RuntimeError::InvalidTransition {
                id,
                from: status.state,
            });
        }
        status.state = to;
        match to {
            QueryState::Paused => crate::metrics::metrics().pauses.inc(),
            QueryState::Running => crate::metrics::metrics().resumes.inc(),
            _ => {}
        }
        Ok(())
    }

    /// Cancel a query: stop it after the input queued so far is
    /// processed, and return its final [`QueryReport`] (stats + the
    /// handles of what it archived into the shared history, which stays).
    ///
    /// Failed and paused queries can be cancelled too; the report names
    /// whatever they archived before stopping. The query's output buffer
    /// stays pollable afterwards.
    pub fn cancel(&mut self, id: QueryId) -> Result<QueryReport, RuntimeError> {
        self.cancel_begin(id)?.wait()
    }

    /// The non-blocking half of [`cancel`](Self::cancel): mark the query
    /// stopped and queue the stop — then hand back a [`PendingCancel`]
    /// whose [`wait`](PendingCancel::wait) blocks (without touching the
    /// `Runtime`) until the backlog is drained and the final report is
    /// ready. For callers that guard the
    /// runtime behind a lock (the network server), this is what keeps a
    /// long cancel drain from stalling every other runtime operation:
    /// begin under the lock, wait outside it.
    pub fn cancel_begin(&mut self, id: QueryId) -> Result<PendingCancel, RuntimeError> {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.id == id)
            .ok_or(RuntimeError::UnknownQuery(id))?;
        if entry.stopped {
            return Err(RuntimeError::Disconnected(id));
        }
        entry.stopped = true;
        let (tx, rx) = mpsc::channel();
        // Past the capacity bound: the stop must be deliverable even
        // while the input queue is full (this method is documented as
        // non-blocking and may run under an embedder's lock).
        entry.cell.send_control(Msg::Stop(tx));
        Ok(PendingCancel {
            id,
            text: entry.text.clone(),
            shared: entry.shared.clone(),
            rx,
        })
    }

    /// Cancel every live query and return their final reports.
    pub fn shutdown(mut self) -> Vec<QueryReport> {
        let ids: Vec<QueryId> = self
            .entries
            .iter()
            .filter(|e| !e.stopped)
            .map(|e| e.id)
            .collect();
        ids.into_iter()
            .filter_map(|id| self.cancel(id).ok())
            .collect()
    }

    /// Snapshot of every registered query (including cancelled ones).
    pub fn queries(&self) -> Vec<QueryDescriptor> {
        self.descriptors(None)
    }

    /// Snapshot of the queries registered under one owner tag — the
    /// view a server session lists, so concurrent analysts never see (or
    /// enumerate) each other's queries.
    pub fn queries_for(&self, owner: OwnerId) -> Vec<QueryDescriptor> {
        self.descriptors(Some(owner))
    }

    fn descriptors(&self, owner: Option<OwnerId>) -> Vec<QueryDescriptor> {
        self.entries
            .iter()
            .filter(|e| owner.is_none() || e.owner == owner)
            .map(|e| {
                let status = e.shared.read();
                QueryDescriptor {
                    id: e.id,
                    text: e.text.clone(),
                    state: status.state,
                    stats: status.stats.clone(),
                }
            })
            .collect()
    }

    /// Current lifecycle state of a query.
    pub fn state(&self, id: QueryId) -> Result<QueryState, RuntimeError> {
        Ok(self.entry(id)?.shared.read().state)
    }

    /// Current statistics of a query.
    pub fn stats(&self, id: QueryId) -> Result<QueryStats, RuntimeError> {
        Ok(self.entry(id)?.shared.read().stats.clone())
    }

    /// The shared history for `dim`-dimensional patterns: the archived
    /// summaries of every query over a `dim`-dimensional stream, behind
    /// one `parking_lot` lock — the `FROM History` of matching
    /// statements. `None` until a query of that dimensionality is
    /// registered.
    ///
    /// **Lock hazard:** query executor tasks take the *write* side of
    /// this lock to archive each batch's completed windows. Drop any
    /// `read()` guard before calling [`push_batch`](Self::push_batch),
    /// [`push_stream`](Self::push_stream), or [`quiesce`](Self::quiesce) —
    /// holding it across those calls can deadlock (a task blocks on the
    /// lock, the runtime blocks on the task).
    pub fn history(&self, dim: usize) -> Option<&SharedPatternBase> {
        self.histories
            .iter()
            .find(|(d, _)| *d == dim)
            .map(|(_, h)| h)
    }

    /// All shared history bases with their pattern dimensionality (the
    /// lock hazard of [`history`](Self::history) applies).
    pub fn histories(&self) -> impl Iterator<Item = (usize, &SharedPatternBase)> {
        self.histories.iter().map(|(d, h)| (*d, h))
    }

    /// The history base for `dim`, created (or, when a durable archive
    /// directory is configured, opened and recovered) on first use.
    fn history_for_dim(&mut self, dim: usize) -> Result<SharedPatternBase, RuntimeError> {
        if let Some((_, h)) = self.histories.iter().find(|(d, _)| *d == dim) {
            return Ok(h.clone());
        }
        let h = match &self.config.durable_archive {
            Some(durable) => {
                let dir = durable.dir.join(format!("dim{dim}"));
                shared_durable_base(dir, durable.config.clone()).map_err(RuntimeError::Archive)?
            }
            None => shared_pattern_base(),
        };
        self.histories.push((dim, h.clone()));
        Ok(h)
    }

    /// Remove the registry entries of an owner's **cancelled** queries,
    /// returning how many were evicted. Frees their undrained output
    /// buffers and stops them appearing in any view; their archived
    /// history stays. This is the network server's teardown step — a
    /// long-lived multi-user server would otherwise grow one dead entry
    /// (plus buffered windows) per abandoned query forever. Live
    /// (non-cancelled) queries are untouched.
    pub fn evict_cancelled(&mut self, owner: OwnerId) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|e| e.owner != Some(owner) || !e.stopped);
        before - self.entries.len()
    }

    /// Bytes of admitted-but-unprocessed input across every live query
    /// registered by `owner` (the per-query
    /// input-queue sums) — the level a per-owner input quota compares
    /// against. Lock-free per query; the snapshot is advisory (the
    /// executor drains concurrently).
    pub fn input_queue_bytes_for(&self, owner: OwnerId) -> usize {
        self.entries
            .iter()
            .filter(|e| e.owner == Some(owner) && !e.stopped)
            .map(|e| e.cell.queued_bytes())
            .sum()
    }

    /// Wire-encoded bytes of completed-but-unpolled windows across every
    /// live query registered by `owner` — the level a per-owner output
    /// quota compares against. Polling releases it.
    pub fn output_bytes_for(&self, owner: OwnerId) -> usize {
        self.entries
            .iter()
            .filter(|e| e.owner == Some(owner) && !e.stopped)
            .map(|e| e.outputs.buffered_bytes())
            .sum()
    }

    /// The canonical statement text of a query (the rendering of its
    /// submitted AST) — a per-id lookup, unlike the descriptor
    /// snapshots of [`queries`](Self::queries).
    pub fn text_of(&self, id: QueryId) -> Result<&str, RuntimeError> {
        Ok(&self.entry(id)?.text)
    }

    fn entry(&self, id: QueryId) -> Result<&QueryEntry, RuntimeError> {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .ok_or(RuntimeError::UnknownQuery(id))
    }
}

/// An in-flight cancellation from [`Runtime::cancel_begin`]: the stop is
/// queued and the query is already marked stopped; [`wait`] blocks for
/// the drain and produces the final [`QueryReport`] without touching the
/// `Runtime`.
///
/// [`wait`]: PendingCancel::wait
pub struct PendingCancel {
    id: QueryId,
    text: String,
    shared: SharedStatus,
    rx: mpsc::Receiver<Vec<PatternId>>,
}

impl PendingCancel {
    /// The query being cancelled.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Block until the executor task has processed everything queued
    /// before the stop and dropped the pipeline, then assemble the final
    /// report (moving the query to [`QueryState::Cancelled`]).
    pub fn wait(self) -> Result<QueryReport, RuntimeError> {
        let archived = self
            .rx
            .recv()
            .map_err(|_| RuntimeError::Disconnected(self.id))?;
        let mut status = self.shared.write();
        status.state = QueryState::Cancelled;
        let stats = status.stats.clone();
        drop(status);
        Ok(QueryReport {
            id: self.id,
            text: self.text,
            stats,
            archived,
        })
    }
}

/// A lock-free ingestion and barrier handle over a snapshot of queries,
/// from [`Runtime::feeder`]. Holds only `Arc`ed per-query cells: its
/// methods never touch the `Runtime`, so they can block on backpressure
/// while other threads freely use (or lock) the runtime.
pub struct StreamFeeder {
    /// Status + input cell per snapshot query.
    targets: Vec<(SharedStatus, Arc<QueryCell>)>,
}

impl StreamFeeder {
    /// Fan a batch out to every snapshot query currently `Running`, in
    /// bounded chunks — the one ingestion path, behind
    /// [`Runtime::push_batch`] and [`Runtime::push_stream`] too (see the
    /// former for the blocking and skipping contract).
    pub fn push_batch(&self, points: &[Point]) {
        for chunk in points.chunks(BATCH_CHUNK) {
            let chunk: Arc<[Point]> = chunk.into();
            let enqueued = std::time::Instant::now();
            for (shared, cell) in &self.targets {
                if shared.read().state != QueryState::Running {
                    continue;
                }
                cell.send(Msg::Batch(chunk.clone(), enqueued));
            }
        }
    }

    /// Block until every snapshot query has processed all input queued
    /// so far (the per-query barrier of [`Runtime::quiesce`], scoped to
    /// this feeder's targets).
    pub fn quiesce(&self) {
        let mut acks = Vec::new();
        for (_, cell) in &self.targets {
            let (tx, rx) = mpsc::channel();
            cell.send(Msg::Barrier(tx));
            acks.push(rx);
        }
        for rx in acks {
            // The ack cannot be dropped unprocessed: executor tasks
            // drain their queue even for failed or stopped queries.
            let _ = rx.recv();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_datagen::{generate_gmti, GmtiConfig};

    const DETECT: &str = "DETECT DensityBasedClusters f+s FROM gmti \
                          USING theta_range = 0.6 AND theta_cnt = 6 \
                          IN Windows WITH win = 1000 AND slide = 250";

    fn gmti(n: usize) -> Vec<Point> {
        generate_gmti(&GmtiConfig {
            n_records: n,
            ..GmtiConfig::default()
        })
    }

    fn runtime() -> Runtime {
        let mut rt = Runtime::new();
        rt.register_stream("gmti", 2);
        rt
    }

    /// The patterns a report names, resolved in the 2-d shared history —
    /// the base MATCH reads.
    fn resolve(rt: &Runtime, report: &QueryReport) -> Vec<sgs_archive::ArchivedPattern> {
        let history = rt.history(2).unwrap().read();
        report
            .archived
            .iter()
            .map(|id| history.get(*id).expect("a reported id resolves").clone())
            .collect()
    }

    /// Register [`DETECT`] tagged with `owner`.
    fn submit_as(rt: &mut Runtime, owner: OwnerId) -> QueryId {
        let QueryPlan::Detect(plan) = rt.plan(DETECT).unwrap() else {
            panic!("expected detect");
        };
        rt.submit_detect(*plan, Some(owner)).unwrap()
    }

    #[test]
    fn submit_push_poll_roundtrip() {
        let mut rt = runtime();
        let Submission::Continuous(id) = rt.submit(DETECT).unwrap() else {
            panic!("expected a continuous registration");
        };
        rt.push_batch(&gmti(4000)).unwrap();
        rt.quiesce().unwrap();
        let outs = rt.poll(id).unwrap();
        assert!(!outs.is_empty());
        let stats = rt.stats(id).unwrap();
        assert_eq!(stats.points, 4000);
        assert_eq!(stats.windows, outs.len() as u64);
        assert!(stats.archived > 0);
        assert!(stats.archive_bytes > 0);
        assert!(stats.busy_nanos > 0);
        // The shared history is the single query's archive, exactly.
        assert_eq!(rt.history(2).unwrap().read().len() as u64, stats.archived);
    }

    /// What the output stage carries over, the shared history stores once:
    /// the patterns one lasting cluster became in four windows hold one
    /// cells allocation.
    #[test]
    fn a_carried_cluster_is_one_cells_allocation_in_the_history() {
        let mut rt = runtime();
        let Submission::Continuous(id) = rt
            .submit(
                "DETECT DensityBasedClusters f+s FROM gmti \
                 USING theta_range = 0.5 AND theta_cnt = 2 \
                 IN Windows WITH win = 40 AND slide = 10",
            )
            .unwrap()
        else {
            panic!("expected a continuous registration");
        };
        rt.push_batch(&crate::pipeline::tests::lasting_cluster_stream())
            .unwrap();
        rt.quiesce().unwrap();
        let report = rt.cancel(id).unwrap();
        assert_eq!(report.archived.len(), 4);
        let history = rt.history(2).unwrap().read();
        let cells = |at: usize| &history.get(report.archived[at]).unwrap().sgs.cells;
        for at in 1..4 {
            assert!(sgs_summarize::Cells::ptr_eq(cells(0), cells(at)));
        }
    }

    #[test]
    fn pause_skips_points_and_resume_continues() {
        let mut rt = runtime();
        let Submission::Continuous(id) = rt.submit(DETECT).unwrap() else {
            panic!()
        };
        let stream = gmti(6000);
        rt.push_batch(&stream[..2000]).unwrap();
        rt.quiesce().unwrap();
        let before = rt.stats(id).unwrap().points;
        assert_eq!(before, 2000);

        rt.pause(id).unwrap();
        assert_eq!(rt.state(id).unwrap(), QueryState::Paused);
        rt.push_batch(&stream[2000..4000]).unwrap();
        rt.quiesce().unwrap();
        assert_eq!(
            rt.stats(id).unwrap().points,
            2000,
            "paused query skips input"
        );

        rt.resume(id).unwrap();
        rt.push_batch(&stream[4000..]).unwrap();
        rt.quiesce().unwrap();
        assert_eq!(rt.stats(id).unwrap().points, 4000);

        // Illegal transitions are rejected.
        assert!(matches!(
            rt.resume(id),
            Err(RuntimeError::InvalidTransition { .. })
        ));
    }

    #[test]
    fn cancel_yields_final_report_and_stops_ingestion() {
        let mut rt = runtime();
        let Submission::Continuous(id) = rt.submit(DETECT).unwrap() else {
            panic!()
        };
        rt.push_batch(&gmti(3000)).unwrap();
        let report = rt.cancel(id).unwrap();
        assert_eq!(report.id, id);
        assert_eq!(report.stats.points, 3000);
        assert_eq!(report.archived.len() as u64, report.stats.archived);
        assert_eq!(resolve(&rt, &report).len(), report.archived.len());
        assert_eq!(rt.state(id).unwrap(), QueryState::Cancelled);
        // Cancelled queries are skipped by ingestion and re-cancel fails.
        rt.push_batch(&[Point::new(vec![0.0, 0.0], 0)]).unwrap();
        assert!(matches!(rt.cancel(id), Err(RuntimeError::Disconnected(_))));
        // The descriptor listing still shows it.
        let descs = rt.queries();
        assert_eq!(descs.len(), 1);
        assert_eq!(descs[0].state, QueryState::Cancelled);
    }

    #[test]
    fn failed_query_records_error_and_drops_input() {
        let mut rt = runtime();
        let Submission::Continuous(id) = rt.submit(DETECT).unwrap() else {
            panic!()
        };
        // Enough good points to complete (and archive) windows, then a
        // 3-d point into the 2-d query: the worker fails mid-stream.
        let mut mixed = gmti(2500);
        mixed.push(Point::new(vec![0.0, 0.0, 0.0], 0));
        rt.push_batch(&mixed).unwrap();
        rt.quiesce().unwrap();
        assert_eq!(rt.state(id).unwrap(), QueryState::Failed);
        let stats = rt.stats(id).unwrap();
        assert!(stats.error.as_deref().unwrap_or("").contains("dimension"));
        // Points accepted before the failure are counted.
        assert_eq!(stats.points, 2500);
        // Windows completed before the failure were still delivered.
        let delivered = rt.poll(id).unwrap();
        assert!(!delivered.is_empty());
        assert_eq!(delivered.len() as u64, stats.windows);
        // Later input is dropped without reviving the query.
        rt.push_batch(&gmti(500)).unwrap();
        rt.quiesce().unwrap();
        assert_eq!(rt.stats(id).unwrap().points, 2500);
        // Still cancellable for a final report, whose stats stay
        // consistent with the history despite the mid-batch failure.
        let report = rt.cancel(id).unwrap();
        assert!(
            !report.archived.is_empty(),
            "windows before the failure archived"
        );
        assert_eq!(report.archived.len() as u64, report.stats.archived);
        assert_eq!(
            report.stats.archive_bytes,
            resolve(&rt, &report)
                .iter()
                .map(|p| sgs_summarize::packed::archived_bytes(&p.sgs))
                .sum::<usize>()
        );
    }

    #[test]
    fn push_stream_routes_by_from_stream() {
        use sgs_datagen::{generate_stt, SttConfig};
        let mut rt = runtime();
        rt.register_stream("stt", 4);
        let Submission::Continuous(on_gmti) = rt.submit(DETECT).unwrap() else {
            panic!()
        };
        let Submission::Continuous(on_stt) = rt
            .submit(
                "DETECT DensityBasedClusters f+s FROM stt \
                 USING theta_range = 0.1 AND theta_cnt = 8 \
                 IN Windows WITH win = 1000 AND slide = 250",
            )
            .unwrap()
        else {
            panic!()
        };

        // Feed each stream separately; routing keeps the 4-d points away
        // from the 2-d query (a broadcast would fail it on dimension).
        rt.push_stream("gmti", &gmti(2000)).unwrap();
        rt.push_stream(
            "STT",
            &generate_stt(&SttConfig {
                n_records: 1500,
                ..SttConfig::default()
            }),
        )
        .unwrap();
        rt.quiesce().unwrap();

        assert_eq!(rt.state(on_gmti).unwrap(), QueryState::Running);
        assert_eq!(rt.state(on_stt).unwrap(), QueryState::Running);
        assert_eq!(rt.stats(on_gmti).unwrap().points, 2000);
        assert_eq!(rt.stats(on_stt).unwrap().points, 1500);
        // Each dimensionality archives into its own shared history base.
        assert_eq!(
            rt.history(2).unwrap().read().len() as u64,
            rt.stats(on_gmti).unwrap().archived
        );
        assert_eq!(
            rt.history(4).unwrap().read().len() as u64,
            rt.stats(on_stt).unwrap().archived
        );
        assert_eq!(rt.histories().count(), 2);
    }

    #[test]
    fn panicking_query_is_marked_failed_and_ingestion_continues() {
        let mut rt = runtime();
        let Submission::Continuous(healthy) = rt.submit(DETECT).unwrap() else {
            panic!()
        };
        let Submission::Continuous(doomed) = rt.submit(DETECT).unwrap() else {
            panic!()
        };
        // A readiness hook that panics on the first buffered window. It
        // fires inside the batch, on the executor worker, so the task
        // catches the panic at the cell boundary: the query fails, the
        // pool worker survives.
        rt.set_output_notify(doomed, Some(Arc::new(|| panic!("subscriber hook bug"))))
            .unwrap();

        // Feed on a separate thread: a panic escaping the cell would leave
        // the doomed query's barrier unacknowledged, and the wait below
        // turns that hang into a failure.
        let (done, finished) = mpsc::channel();
        let feeding = std::thread::spawn(move || {
            let stream = gmti(1000);
            // Keep feeding until the failure is observed (the panic fires
            // on the first completed window).
            let mut rounds = 0;
            for _ in 0..100 {
                rounds += 1;
                rt.push_batch(&stream).unwrap();
                rt.quiesce().unwrap();
                if rt.state(doomed).unwrap() == QueryState::Failed {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let _ = done.send(());
            (rt, rounds)
        });
        let waited = finished.recv_timeout(std::time::Duration::from_secs(120));
        assert!(
            !matches!(waited, Err(mpsc::RecvTimeoutError::Timeout)),
            "ingestion wedged behind the panicking query"
        );
        let (mut rt, rounds) = feeding.join().unwrap();
        assert_eq!(rt.state(doomed).unwrap(), QueryState::Failed);
        assert!(rt.stats(doomed).unwrap().error.is_some());
        // The healthy query received every complete round exactly once —
        // the failed peer neither blocked nor double-delivered.
        let healthy_stats = rt.stats(healthy).unwrap();
        assert_eq!(healthy_stats.points, rounds * 1000);
        // A failed query still cancels cleanly: its pipeline survives
        // behind the caught panic.
        let report = rt.cancel(doomed).unwrap();
        assert_eq!(
            report.stats.error.as_deref(),
            rt.stats(doomed).unwrap().error.as_deref()
        );
    }

    #[test]
    fn unpolled_output_keeps_every_window() {
        let mut rt = Runtime::new();
        rt.register_stream("gmti", 2);
        let Submission::Continuous(id) = rt.submit(DETECT).unwrap() else {
            panic!()
        };
        rt.push_batch(&gmti(6000)).unwrap();
        rt.quiesce().unwrap();
        let stats = rt.stats(id).unwrap();
        assert!(stats.windows > 3, "workload must complete several windows");
        // Nothing was read while they completed, yet every one is
        // buffered, in completion order.
        let ids: Vec<u64> = rt.poll(id).unwrap().iter().map(|(w, _)| w.0).collect();
        assert_eq!(ids, (0..stats.windows).collect::<Vec<_>>());
    }

    #[test]
    fn dedicated_pool_runs_queries_and_reports_size() {
        let mut rt = Runtime::with_config(RuntimeConfig {
            pool_threads: sgs_core::PoolThreads::Fixed(2),
            ..RuntimeConfig::default()
        });
        assert_eq!(rt.pool().threads(), 2);
        rt.register_stream("gmti", 2);
        let Submission::Continuous(id) = rt.submit(DETECT).unwrap() else {
            panic!()
        };
        rt.push_batch(&gmti(3000)).unwrap();
        rt.quiesce().unwrap();
        assert_eq!(rt.stats(id).unwrap().points, 3000);
        assert!(!rt.poll(id).unwrap().is_empty());
    }

    #[test]
    fn match_statement_runs_against_shared_history() {
        let mut rt = runtime();
        let Submission::Continuous(id) = rt.submit(DETECT).unwrap() else {
            panic!()
        };
        rt.push_batch(&gmti(5000)).unwrap();
        rt.quiesce().unwrap();
        let outs = rt.poll(id).unwrap();
        let cluster = outs
            .iter()
            .rev()
            .flat_map(|(_, cs)| cs.iter())
            .max_by_key(|c| c.population())
            .expect("some cluster extracted")
            .sgs
            .clone();
        rt.bind_cluster("Cnow", cluster);

        let match_src = "GIVEN DensityBasedClusters Cnow \
                         SELECT DensityBasedClusters Cpast FROM History \
                         WHERE Distance(Cnow, Cpast) <= 0.25";
        let Submission::Matches(outcome) = rt.submit(match_src).unwrap() else {
            panic!("expected immediate match execution");
        };
        assert!(
            !outcome.matches.is_empty(),
            "the archived twin of the bound cluster must match"
        );

        // Unbound names are reported.
        let unbound = match_src.replace("Cnow", "Cghost");
        assert!(matches!(
            rt.submit(&unbound),
            Err(RuntimeError::UnknownBinding(_))
        ));
    }

    #[test]
    fn poll_page_drains_incrementally_and_preserves_the_rest() {
        let mut rt = runtime();
        let Submission::Continuous(id) = rt.submit(DETECT).unwrap() else {
            panic!()
        };
        rt.push_batch(&gmti(4000)).unwrap();
        rt.quiesce().unwrap();
        let total = rt.stats(id).unwrap().windows as usize;
        assert!(total > 2, "need several windows to split the drain");
        let first = rt
            .poll_page(id, 2, usize::MAX, usize::MAX)
            .unwrap()
            .unwrap();
        assert_eq!(first.len(), 2);
        let rest = rt.poll(id).unwrap();
        assert_eq!(rest.len(), total - 2);
        // Oldest-first across both drains, with no duplicates or gaps.
        let ids: Vec<u64> = first.iter().chain(rest.iter()).map(|(w, _)| w.0).collect();
        assert_eq!(ids, (0..total as u64).collect::<Vec<_>>());
        assert!(rt.poll(id).unwrap().is_empty());
    }

    #[test]
    fn owner_scoped_views_isolate_sessions() {
        let mut rt = runtime();
        let alice = rt.new_owner();
        let bob = rt.new_owner();
        assert_ne!(alice, bob);
        let qa = submit_as(&mut rt, alice);
        let qb = submit_as(&mut rt, bob);
        // Unowned query for contrast.
        let Submission::Continuous(qu) = rt.submit(DETECT).unwrap() else {
            panic!()
        };

        let ids = |view: Vec<QueryDescriptor>| view.iter().map(|d| d.id).collect::<Vec<_>>();
        assert_eq!(ids(rt.queries_for(alice)), [qa]);
        assert_eq!(ids(rt.queries_for(bob)), [qb]);
        assert_eq!(ids(rt.queries()), [qa, qb, qu], "the full view sees all");

        // Owner-scoped ingestion feeds exactly the owner's queries.
        rt.feeder(Some(alice), Some("gmti")).push_batch(&gmti(1000));
        rt.quiesce().unwrap();
        assert_eq!(rt.stats(qa).unwrap().points, 1000);
        assert_eq!(rt.stats(qb).unwrap().points, 0);
        assert_eq!(rt.stats(qu).unwrap().points, 0);
    }

    #[test]
    fn evict_cancelled_frees_an_owners_dead_entries_only() {
        let mut rt = runtime();
        let session = rt.new_owner();
        let other = rt.new_owner();
        let dead = submit_as(&mut rt, session);
        let live = submit_as(&mut rt, session);
        let foreign = submit_as(&mut rt, other);
        rt.feeder(Some(session), Some("gmti"))
            .push_batch(&gmti(1500));
        rt.quiesce().unwrap();
        rt.cancel(dead).unwrap();
        assert_eq!(rt.evict_cancelled(session), 1);
        // The cancelled entry is gone from every view; the live ones
        // (including another owner's) are untouched.
        assert!(matches!(rt.stats(dead), Err(RuntimeError::UnknownQuery(_))));
        assert_eq!(rt.queries().len(), 2);
        assert_eq!(rt.stats(live).unwrap().points, 1500);
        assert_eq!(rt.state(foreign).unwrap(), QueryState::Running);
        assert_eq!(rt.evict_cancelled(session), 0, "idempotent");
    }

    #[test]
    fn owner_gauges_track_queued_input_and_unpolled_output() {
        let mut rt = Runtime::with_config(RuntimeConfig {
            pool_threads: sgs_core::PoolThreads::Fixed(1),
            ..RuntimeConfig::default()
        });
        rt.register_stream("gmti", 2);
        let owner = rt.new_owner();
        let other = rt.new_owner();
        // A window short enough to complete within the 1 000 points fed.
        let QueryPlan::Detect(plan) = rt.plan(&DETECT.replace("win = 1000", "win = 500")).unwrap()
        else {
            panic!("expected detect");
        };
        let id = rt.submit_detect(*plan, Some(owner)).unwrap();
        submit_as(&mut rt, other);
        // Hold the pool's only worker, so what is fed stays queued.
        let (held, holding) = mpsc::channel();
        let (release, gate) = mpsc::channel::<()>();
        rt.pool().spawn(move || {
            held.send(()).unwrap();
            let _ = gate.recv();
        });
        holding.recv().unwrap();
        rt.feeder(Some(owner), Some("gmti")).push_batch(&gmti(1000));
        // 1 000 points at 16 + 8·dim = 32 bytes each, all still queued.
        assert_eq!(rt.input_queue_bytes_for(owner), 32_000);
        assert_eq!(rt.input_queue_bytes_for(other), 0, "fed by owner only");

        release.send(()).unwrap();
        rt.quiesce().unwrap();
        assert_eq!(rt.input_queue_bytes_for(owner), 0, "processed input");
        assert!(rt.output_bytes_for(owner) > 0, "completed windows wait");
        rt.poll(id).unwrap();
        assert_eq!(rt.output_bytes_for(owner), 0, "polling releases it");
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let mut rt = runtime();
        let ghost = QueryId(99);
        assert!(matches!(rt.poll(ghost), Err(RuntimeError::UnknownQuery(_))));
        assert!(matches!(
            rt.pause(ghost),
            Err(RuntimeError::UnknownQuery(_))
        ));
        assert!(matches!(
            rt.stats(ghost),
            Err(RuntimeError::UnknownQuery(_))
        ));
    }

    #[test]
    fn shutdown_reports_every_live_query() {
        let mut rt = runtime();
        for _ in 0..3 {
            rt.submit(DETECT).unwrap();
        }
        rt.push_batch(&gmti(2000)).unwrap();
        let reports = rt.shutdown();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.stats.points, 2000);
        }
    }

    /// An archive failure's error chain reaches the I/O error under it.
    #[test]
    fn archive_error_chain_reaches_the_io_error() {
        use std::error::Error as _;
        let io = std::io::Error::new(std::io::ErrorKind::StorageFull, "disk full");
        let err = RuntimeError::Archive(PersistError::Io(io));
        let mut chain: Vec<&dyn std::error::Error> = vec![&err];
        let mut next = err.source();
        while let Some(source) = next {
            chain.push(source);
            next = source.source();
        }
        assert_eq!(chain.len(), 3, "RuntimeError -> PersistError -> io::Error");
        let cause = chain[2].downcast_ref::<std::io::Error>().unwrap();
        assert_eq!(cause.kind(), std::io::ErrorKind::StorageFull);
        assert!(chain[1].is::<PersistError>());
        assert!(PersistError::Corrupt("x".into()).source().is_none());
    }
}
