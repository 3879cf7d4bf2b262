//! # sgs-server
//!
//! The TCP network front-end of the streamsum engine (`DESIGN.md` §9,
//! §14): an embeddable [`Server`] that listens on a socket and
//! multiplexes any number of client connections onto **one shared
//! [`Runtime`]** — the step that turns the in-process multi-query engine
//! into a service remote analysts share, per the paper's setting of
//! analysts issuing DETECT/MATCH statements against live streams (§1,
//! Figs. 2–3). The `streamsum-server` binary is a thin CLI around it.
//!
//! ## Session model
//!
//! Connections are driven by a single **reactor thread** (`DESIGN.md`
//! §14): non-blocking sockets registered with the vendored epoll shim,
//! each advanced through an explicit per-connection state machine
//! (reading → executing → writing / pushing). Idle sessions park for
//! free — no thread, no timer, just an epoll registration. Request
//! execution hops onto a bounded `sgs-exec` dispatch pool, so the
//! reactor never blocks; with one request in flight per session, that
//! pool's FIFO is round-robin over sessions. A session:
//!
//! * authenticates at `Hello`: a server configured with auth tokens
//!   refuses a missing or unknown token with
//!   [`sgs_wire::ErrorCode::Unauthorized`] and closes — the token
//!   decides who, the per-owner quotas decide how much;
//! * owns its query namespace: ids on the wire are session-local
//!   (`Q0, Q1, ...` per connection), mapped to runtime [`QueryId`]s
//!   through the session's table and tagged with a runtime
//!   [`OwnerId`] — another session cannot name, list, poll, or cancel
//!   them;
//! * feeds only its own queries: `Feed` frames route through an
//!   owner-filtered [`Runtime::feeder`] snapshot, so two sessions
//!   replaying the same stream each see exactly their own data
//!   (byte-identical to a solo run), while both archives still merge
//!   into the **shared history** that matching statements query — the
//!   paper's many-analysts / one-history arrangement;
//! * consumes results by poll **or** push: `Subscribe` turns a query's
//!   output buffer into unsolicited `Windows` frames, sent only when
//!   the socket is write-ready (an unread socket exerts plain TCP flow
//!   control; the windows wait in the runtime's bounded output buffer
//!   meanwhile);
//! * is throttled end to end: a full bounded per-query `InputQueue`
//!   blocks the session's `Feed` dispatch, which withholds its ack,
//!   which stops the client.
//!
//! On disconnect (clean `Goodbye` or a dropped socket) the session's
//! live queries are cancelled, so abandoned clients do not leak pipeline
//! state — their archived history remains, by design.

pub mod metrics;
mod reactor;

use std::collections::{BTreeSet, HashMap, HashSet};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use sgs_core::{Point, WindowId};
use sgs_runtime::{
    OwnerId, QueryDescriptor, QueryId, QueryState, QueryStats, Runtime, RuntimeConfig, RuntimeError,
};
use sgs_wire::{
    ErrorCode, Frame, WireMetric, WireMetricValue, WireQuery, WireQueryState, WireStats, WireWindow,
};

pub use metrics::spawn_metrics_listener;
use metrics::ServerMetrics;

/// Construction-time settings of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Configuration of the shared [`Runtime`] all sessions multiplex
    /// onto. Every completed window waits in its query's output buffer
    /// until it is polled or pushed;
    /// [`owner_max_buffer_bytes`](Self::owner_max_buffer_bytes) bounds
    /// those buffers without losing a window, by refusing further feeds.
    pub runtime: RuntimeConfig,
    /// Source streams to register (name, dimensionality). Defaults to
    /// the two generator streams: `gmti` (2-d) and `stt` (4-d).
    pub streams: Vec<(String, usize)>,
    /// Close a session that produces no complete request frame within
    /// this window (counted from the previous complete frame).
    /// Sessions holding an active subscription are exempt — a
    /// subscriber is legitimately silent. `None` (the default) keeps
    /// sessions open indefinitely.
    pub idle_timeout: Option<Duration>,
    /// Per-owner admission control: maximum live (non-cancelled)
    /// queries one session may hold. A `Submit` of a DETECT statement
    /// past the limit is refused with
    /// [`ErrorCode::QuotaExceeded`]; cancelling a query frees a slot.
    /// `None` (the default) is unlimited.
    pub owner_max_queries: Option<usize>,
    /// Per-owner admission control: maximum bytes of
    /// admitted-but-unprocessed input across one session's query input
    /// queues. A `Feed` that would exceed it is refused whole with
    /// [`ErrorCode::QuotaExceeded`]; processing drains the level.
    /// `None` (the default) is unlimited (backpressure alone governs).
    pub owner_max_queue_bytes: Option<usize>,
    /// Per-owner admission control: once one session's
    /// completed-but-unpolled windows exceed this many (wire-encoded)
    /// bytes, further `Feed`s are refused with
    /// [`ErrorCode::QuotaExceeded`] until the session polls (or its
    /// subscription drains them). `None` (the default) is unlimited.
    pub owner_max_buffer_bytes: Option<usize>,
    /// Accepted `Hello` secrets. Empty (the default) means open access.
    /// Non-empty means a `Hello` carrying no token, or a token equal to
    /// no entry, is refused with [`ErrorCode::Unauthorized`] and the
    /// connection is closed.
    pub auth_tokens: Vec<String>,
    /// Workers on the server's dispatch pool — the threads request
    /// execution hops onto so the reactor never blocks. Blocking
    /// requests (a backpressured `Feed`, a `Cancel` draining a deep
    /// backlog, `Quiesce`) occupy a worker for their duration, so this
    /// bounds how many sessions can block concurrently. Clamped to ≥ 1;
    /// default 4.
    pub dispatch_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            runtime: RuntimeConfig::default(),
            streams: vec![("gmti".into(), 2), ("stt".into(), 4)],
            idle_timeout: None,
            owner_max_queries: None,
            owner_max_queue_bytes: None,
            owner_max_buffer_bytes: None,
            auth_tokens: Vec::new(),
            dispatch_threads: 4,
        }
    }
}

/// Byte budget of one `Windows` response page (8 MiB — an 8× margin
/// under [`sgs_wire::MAX_FRAME_LEN`]): a `Poll` reply or a pushed
/// subscription frame stops collecting once the accumulated window
/// payload crosses it, leaving the rest buffered for the next page.
const POLL_PAGE_BYTES: usize = 8 << 20;

/// Largest window a `Windows` frame may carry: the protocol's frame cap
/// less 1 KiB of headroom for the frame's own fields. A window beyond it
/// is refused rather than shipped as an undecodable frame.
const WINDOW_CAP: usize = sgs_wire::MAX_FRAME_LEN - 1024;

/// The session-limit subset of [`ServerConfig`], shared with the
/// reactor and every dispatch task.
#[derive(Clone, Copy, Debug, Default)]
struct Limits {
    idle_timeout: Option<Duration>,
    owner_max_queries: Option<usize>,
    owner_max_queue_bytes: Option<usize>,
    owner_max_buffer_bytes: Option<usize>,
}

/// One live session's entry in the drain registry: a socket clone to
/// force-close stragglers with.
struct Seat {
    socket: TcpStream,
}

/// What a dispatch asks the reactor to do to the session state it owns
/// (dispatch tasks see a snapshot; the reactor holds the canon).
enum Effect {
    /// Nothing beyond sending the reply.
    None,
    /// A DETECT registration succeeded: append the id to the session's
    /// query table (its local id is the reply's `Registered.query`).
    NewQuery(QueryId),
    /// Switch the local query to push delivery: install the
    /// output-buffer notify hook and exempt the session from the idle
    /// timeout.
    Subscribe(u64),
    /// Revert the local query to poll delivery: clear the hook.
    Unsubscribe(u64),
}

/// A finished dispatch, queued for the reactor by the dispatch task.
struct Completion {
    /// The connection the request came from.
    token: u64,
    /// The response frame to enqueue (dropped if the session is already
    /// closing).
    reply: Frame,
    /// Session-state change to apply before the reply is sent.
    effect: Effect,
    /// The request was `Goodbye`: send the reply, then close cleanly.
    goodbye: bool,
}

/// The reactor's cross-thread mailbox: dispatch completions and
/// output-buffer readiness, each paired with a waker byte so the
/// reactor's readiness wait returns promptly.
struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    /// (connection token, session-local query id) pairs whose output
    /// buffer has news — fed by the notify hooks subscriptions install.
    pushes: Mutex<BTreeSet<(u64, u64)>>,
    /// Write end of the reactor's self-pipe, created with the server so
    /// a wake before [`Server::run`] waits in the pipe for the reactor.
    waker: UnixStream,
}

impl Mailbox {
    /// Nudge the reactor out of its readiness wait. Best-effort: a full
    /// pipe means wakes are already pending, and a closed one means the
    /// reactor has exited (nothing to wake).
    fn wake(&self) {
        use std::io::Write;
        let _ = (&self.waker).write(&[1u8]);
    }
}

/// State shared by the reactor thread, the dispatch pool, and control
/// handles.
struct Shared {
    rt: RwLock<Runtime>,
    shutting_down: AtomicBool,
    /// Set by [`ServerHandle::drain`]: the reactor sends `GoAway` to
    /// every session and closes instead of serving further requests.
    draining: AtomicBool,
    /// Set once [`ServerHandle::drain`] has finished its final
    /// checkpoint; [`Server::run`] waits for it before returning so the
    /// hosting process cannot exit mid-checkpoint.
    drain_done: AtomicBool,
    /// The `drain_millis` value `GoAway` frames advertise.
    drain_millis: AtomicU64,
    /// Live sessions by connection token — present from a successful
    /// `Hello` until the session's teardown (cancel + evict) has fully
    /// finished, so an empty registry means the runtime holds no
    /// session state.
    seats: Mutex<HashMap<u64, Seat>>,
    /// Notified, with `seats` held, whenever a seat is removed and once
    /// `drain_done` is set — what [`Shared::wait_until`] sleeps on.
    seats_changed: Condvar,
    next_token: AtomicU64,
    limits: Limits,
    auth: Vec<String>,
    /// The dispatch pool request execution hops onto
    /// (deliberately separate from the runtime's scheduler pool: a
    /// blocking `Feed` must not occupy a worker the queries it is
    /// waiting on need).
    dispatch: sgs_exec::Pool,
    mailbox: Mailbox,
    metrics: ServerMetrics,
}

impl Shared {
    /// Block until `done(seats)` holds or `deadline` (if any) passes —
    /// the control path's one wait, woken through `seats_changed`.
    /// Conditions over state other than the seat map (`drain_done`) are
    /// safe as long as their writer notifies while holding `seats`.
    fn wait_until(&self, deadline: Option<Instant>, done: impl Fn(&HashMap<u64, Seat>) -> bool) {
        let mut seats = self.seats.lock().unwrap();
        while !done(&seats) {
            seats = match deadline {
                None => self.seats_changed.wait(seats).unwrap(),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return;
                    }
                    self.seats_changed.wait_timeout(seats, left).unwrap().0
                }
            };
        }
    }

    /// Drop a finished session's seat and wake the control path.
    fn vacate(&self, token: u64) {
        let mut seats = self.seats.lock().unwrap();
        seats.remove(&token);
        self.seats_changed.notify_all();
    }
}

/// The listening server. Construct with [`Server::bind`], then either
/// [`run`](Server::run) on the current thread or hand it to a spawned
/// one (tests drive an in-process server exactly that way).
pub struct Server {
    listener: TcpListener,
    /// Read end of the reactor's self-pipe ([`Mailbox::waker`]).
    waker: UnixStream,
    shared: Arc<Shared>,
}

/// Clonable controller for a running [`Server`] (shutdown from another
/// thread).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Stop accepting connections and make [`Server::run`] return once
    /// the sessions alive at this moment have ended. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.mailbox.wake();
    }

    /// Gracefully drain the server (`DESIGN.md` §12): stop accepting,
    /// announce `GoAway` to every session, wait up to `timeout` for
    /// sessions to finish voluntarily, shut the stragglers' sockets, and
    /// finally checkpoint every durable history base so a restarted
    /// server recovers the archive from a clean store file. Returns the
    /// number of sessions that had to be force-closed (0 = fully
    /// graceful), or the first checkpoint that failed — every base is
    /// still tried.
    /// [`Server::run`] returns once the drain completes.
    pub fn drain(&self, timeout: Duration) -> Result<usize, RuntimeError> {
        let shared = &self.shared;
        shared.metrics.drains.inc();
        shared.drain_millis.store(
            u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX),
            Ordering::SeqCst,
        );
        shared.draining.store(true, Ordering::SeqCst);
        self.shutdown();

        // Phase 1: the reactor notices the flag at its next wakeup,
        // sends GoAway everywhere, and tears sessions down. Wait out
        // the grace window — all of it, with no deadline, when `timeout`
        // reaches past what the clock can represent.
        shared.wait_until(Instant::now().checked_add(timeout), HashMap::is_empty);

        // Phase 2: force-close whoever is left. Shutting the socket
        // surfaces as a hangup in the reactor, which tears the session
        // down once any request it is executing completes.
        let forced = {
            let seats = shared.seats.lock().unwrap();
            for seat in seats.values() {
                let _ = seat.socket.shutdown(Shutdown::Both);
            }
            seats.len()
        };
        // Forced sessions unwind through normal teardown; give that a
        // bounded grace so the checkpoint below sees their cancels.
        shared.wait_until(
            Some(Instant::now() + Duration::from_secs(5)),
            HashMap::is_empty,
        );

        // Phase 3: make the archive durable *now*. Teardown only
        // cancels pipelines; the WAL would recover without this, but a
        // checkpointed store file makes restart recovery instant and
        // exercises the same path as the periodic checkpointer.
        let rt = shared.rt.read();
        let checkpoints: Vec<_> = rt
            .histories()
            .map(|(_dim, h)| h.write().checkpoint())
            .collect();
        drop(rt);
        shared.drain_done.store(true, Ordering::SeqCst);
        let _seats = shared.seats.lock().unwrap();
        shared.seats_changed.notify_all();
        match checkpoints.into_iter().find_map(Result::err) {
            Some(e) => Err(RuntimeError::Archive(e)),
            None => Ok(forced),
        }
    }
}

impl Server {
    /// Bind the listening socket and build the shared runtime. Use port
    /// 0 to let the OS pick (read it back with
    /// [`local_addr`](Self::local_addr)).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        let mut rt = Runtime::with_config(config.runtime);
        for (name, dim) in &config.streams {
            rt.register_stream(name, *dim);
        }
        Ok(Server {
            listener,
            waker: waker_rx,
            shared: Arc::new(Shared {
                rt: RwLock::new(rt),
                shutting_down: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                drain_done: AtomicBool::new(false),
                drain_millis: AtomicU64::new(0),
                seats: Mutex::new(HashMap::new()),
                seats_changed: Condvar::new(),
                next_token: AtomicU64::new(0),
                limits: Limits {
                    idle_timeout: config.idle_timeout,
                    owner_max_queries: config.owner_max_queries,
                    owner_max_queue_bytes: config.owner_max_queue_bytes,
                    owner_max_buffer_bytes: config.owner_max_buffer_bytes,
                },
                auth: config.auth_tokens,
                dispatch: sgs_exec::Pool::new(config.dispatch_threads.max(1)),
                mailbox: Mailbox {
                    completions: Mutex::new(Vec::new()),
                    pushes: Mutex::new(BTreeSet::new()),
                    waker: waker_tx,
                },
                metrics: ServerMetrics::new(),
            }),
        })
    }

    /// The bound address (the real port when bound to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A controller usable from other threads.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            shared: self.shared.clone(),
        })
    }

    /// Serve connections on the reactor until [`ServerHandle::shutdown`].
    /// The calling thread *is* the reactor; the call returns after the
    /// accept loop stops, every session has ended, and session teardown
    /// has finished.
    pub fn run(self) -> io::Result<()> {
        let shared = self.shared;
        reactor::run(self.listener, self.waker, &shared)?;
        // Session teardown (cancel + evict) runs on the dispatch pool;
        // wait for the seats to empty so "run returned" keeps meaning
        // "no session state remains in the runtime". And a drain wakes
        // the reactor long before its final checkpoint: honor the
        // documented contract — `run` returns once the drain
        // *completes* — so a `main` that exits right after us cannot
        // kill the checkpoint midway.
        shared.wait_until(None, |seats| {
            seats.is_empty()
                && (!shared.draining.load(Ordering::SeqCst)
                    || shared.drain_done.load(Ordering::SeqCst))
        });
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Dispatch (runs on the dispatch pool)
// ---------------------------------------------------------------------------

/// The snapshot of session state a dispatch task works against. The
/// reactor owns the canonical copy and applies the returned [`Effect`]
/// itself; at most one dispatch is in flight per connection, so the
/// snapshot cannot go stale.
struct SessionView {
    owner: OwnerId,
    queries: Vec<QueryId>,
    subscribed: HashSet<u64>,
}

impl SessionView {
    fn resolve(&self, local: u64) -> Result<QueryId, Frame> {
        self.queries
            .get(local as usize)
            .copied()
            .ok_or_else(|| error_frame(ErrorCode::UnknownQuery, format!("no query Q{local}")))
    }
}

/// Execute one request frame against the shared runtime. Pure with
/// respect to session state: changes come back as an [`Effect`] for the
/// reactor to apply.
fn dispatch(shared: &Shared, view: &SessionView, frame: Frame) -> (Frame, Effect) {
    shared.metrics.count_frame(frame.kind());
    let reply = match frame {
        Frame::Hello { .. } => error_frame(ErrorCode::Protocol, "duplicate Hello".into()),
        Frame::Submit { text } => {
            // Plan first under the read lock; only a DETECT registration
            // needs the exclusive write lock. Matching statements run
            // entirely under the read side, so one analyst's (possibly
            // long) history scan never stalls other sessions.
            let planned = shared.rt.read().plan(&text);
            match planned {
                Ok(sgs_runtime::QueryPlan::Detect(plan)) => {
                    let mut rt = shared.rt.write();
                    // Admission control, checked and enforced under the
                    // same write-lock hold as the registration so two
                    // racing submits cannot both squeeze under the cap.
                    if let Some(max) = shared.limits.owner_max_queries {
                        let live = rt
                            .queries_for(view.owner)
                            .iter()
                            .filter(|d| d.state != QueryState::Cancelled)
                            .count();
                        if live >= max {
                            shared.metrics.quota_rejections.inc();
                            return (
                                error_frame(
                                    ErrorCode::QuotaExceeded,
                                    format!(
                                        "session holds {live} live queries (limit {max}); \
                                         cancel one to free a slot"
                                    ),
                                ),
                                Effect::None,
                            );
                        }
                    }
                    match rt.submit_detect(*plan, Some(view.owner)) {
                        Ok(id) => {
                            return (
                                Frame::Registered {
                                    query: view.queries.len() as u64,
                                },
                                Effect::NewQuery(id),
                            );
                        }
                        Err(e) => runtime_error_frame(&e),
                    }
                }
                Ok(sgs_runtime::QueryPlan::Match(plan)) => {
                    match shared.rt.read().run_match(&plan) {
                        Ok(outcome) => Frame::Matches {
                            candidates: outcome.candidates as u64,
                            refined: outcome.refined as u64,
                            matches: outcome
                                .matches
                                .iter()
                                .map(|m| sgs_wire::WireMatch {
                                    pattern: m.id.0,
                                    distance: m.distance,
                                })
                                .collect(),
                        },
                        Err(e) => runtime_error_frame(&e),
                    }
                }
                Err(e) => runtime_error_frame(&e),
            }
        }
        Frame::Feed { stream, points } => feed(shared, view, &stream, &points),
        Frame::Poll { query, max } => {
            let local = query;
            if view.subscribed.contains(&local) {
                return (
                    error_frame(
                        ErrorCode::InvalidTransition,
                        format!(
                            "query Q{local} is subscribed (push delivery); \
                             Unsubscribe before polling"
                        ),
                    ),
                    Effect::None,
                );
            }
            match view.resolve(local) {
                Ok(id) => {
                    let rt = shared.rt.read();
                    match take_page(&rt, id, max as usize) {
                        Ok(Ok(windows)) => Frame::Windows {
                            query: local,
                            windows,
                        },
                        Ok(Err(oversized)) => error_frame(
                            ErrorCode::Internal,
                            format!(
                                "window {} encodes beyond the frame cap — \
                                 cancel the query to discard it",
                                oversized.0
                            ),
                        ),
                        Err(e) => runtime_error_frame(&e),
                    }
                }
                Err(e) => e,
            }
        }
        Frame::Subscribe { query } => match view.resolve(query) {
            // Idempotent: re-subscribing re-arms the notify hook, which
            // simply re-fires for any backlog.
            Ok(_) => return (Frame::OkAck, Effect::Subscribe(query)),
            Err(e) => e,
        },
        Frame::Unsubscribe { query } => match view.resolve(query) {
            Ok(_) if view.subscribed.contains(&query) => {
                return (Frame::OkAck, Effect::Unsubscribe(query));
            }
            // Unsubscribing a non-subscribed query is a no-op ack.
            Ok(_) => Frame::OkAck,
            Err(e) => e,
        },
        Frame::StatsReq { query } => match view.resolve(query) {
            Ok(id) => {
                let rt = shared.rt.read();
                match (rt.state(id), rt.stats(id), rt.text_of(id)) {
                    (Ok(state), Ok(stats), Ok(text)) => Frame::StatsReply(WireQuery {
                        query,
                        state: wire_state(state),
                        text: text.to_string(),
                        stats: wire_stats(&stats),
                    }),
                    (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => runtime_error_frame(&e),
                }
            }
            Err(e) => e,
        },
        Frame::ListQueries => {
            let rt = shared.rt.read();
            let descriptors = rt.queries_for(view.owner);
            Frame::Queries(
                view.queries
                    .iter()
                    .enumerate()
                    .filter_map(|(local, id)| {
                        descriptors
                            .iter()
                            .find(|d| d.id == *id)
                            .map(|d| describe(local as u64, d))
                    })
                    .collect(),
            )
        }
        Frame::Pause { query } => lifecycle(shared, view, query, |rt, id| rt.pause(id)),
        Frame::Resume { query } => lifecycle(shared, view, query, |rt, id| rt.resume(id)),
        Frame::Cancel { query } => match view.resolve(query) {
            // Queue the stop under the write lock, but wait for the
            // backlog drain with the lock released — a cancel of a
            // deeply-queued query must not stall other sessions. The
            // begun cancel is bound first so the guard (a temporary in
            // the expression) is dropped before `wait()` blocks.
            Ok(id) => {
                let begun = shared.rt.write().cancel_begin(id);
                match begun.and_then(|pending| pending.wait()) {
                    Ok(report) => Frame::Report {
                        query,
                        stats: wire_stats(&report.stats),
                    },
                    Err(e) => runtime_error_frame(&e),
                }
            }
            Err(e) => e,
        },
        Frame::Bind { name, sgs } => {
            // The wire decoder checks structure only; enforce the full
            // Sgs invariants before the summary enters the shared
            // binding namespace every session's matching reads.
            if let Err(e) = sgs.validate() {
                return (
                    error_frame(ErrorCode::Plan, format!("invalid cluster summary: {e}")),
                    Effect::None,
                );
            }
            shared.rt.write().bind_cluster(&name, sgs);
            Frame::OkAck
        }
        Frame::Quiesce => {
            // Barrier over this session's queries only (its feeds target
            // nothing else). Snapshot under the lock, wait without it —
            // the barrier can take as long as the queued work.
            let feeder = shared.rt.read().feeder(Some(view.owner), None);
            feeder.quiesce();
            Frame::OkAck
        }
        Frame::Goodbye => Frame::OkAck,
        Frame::MetricsReq => Frame::MetricsReply(
            sgs_obs::registry()
                .snapshot()
                .into_iter()
                .map(|m| WireMetric {
                    name: m.name,
                    value: match m.value {
                        sgs_obs::MetricValue::Counter(v) => WireMetricValue::Counter(v),
                        sgs_obs::MetricValue::Gauge(v) => WireMetricValue::Gauge(v),
                        sgs_obs::MetricValue::Histogram(h) => WireMetricValue::Histogram {
                            count: h.count,
                            sum: h.sum,
                            max: h.max,
                            p50: h.p50,
                            p95: h.p95,
                            p99: h.p99,
                        },
                    },
                })
                .collect(),
        ),
        // Response kinds are not requests.
        other => error_frame(
            ErrorCode::Protocol,
            format!("frame kind {:#04x} is not a request", other.kind()),
        ),
    };
    (reply, Effect::None)
}

/// Take one page of a query's buffered windows as wire windows: at
/// most `max` (`0` = no bound), under [`POLL_PAGE_BYTES`] and with no
/// window beyond [`WINDOW_CAP`] (`Runtime::poll_page` has the rule; an
/// inner `Err` is the id of the over-cap window at the front). Shared
/// between the `Poll` reply and the subscription push path, so pushed
/// `Windows` frames are byte-identical to what polling the same buffer
/// would have returned.
fn take_page(
    rt: &Runtime,
    id: QueryId,
    max: usize,
) -> Result<Result<Vec<WireWindow>, WindowId>, RuntimeError> {
    let page = rt.poll_page(id, max, POLL_PAGE_BYTES, WINDOW_CAP)?;
    Ok(page.map(|windows| {
        windows
            .into_iter()
            .map(|(window, clusters)| WireWindow { window, clusters })
            .collect()
    }))
}

/// `Feed` dispatch: validate against the catalog, then route through the
/// bounded input queues of this session's queries (blocking = the
/// backpressure path; the ack is withheld until the batch is queued).
///
/// The runtime lock is held only for validation and the
/// [`Runtime::feeder`] snapshot, **not** across the potentially long
/// backpressure block — otherwise one stalled session would wedge every
/// write operation (submits, teardowns, even new sessions' handshakes)
/// server-wide.
fn feed(shared: &Shared, view: &SessionView, stream: &str, points: &[Point]) -> Frame {
    let feeder = {
        let rt = shared.rt.read();
        let Some(dim) = rt.planner().catalog().dim_of(stream) else {
            return error_frame(
                ErrorCode::UnknownStream,
                format!("stream {stream:?} is not in the catalog"),
            );
        };
        if let Some(bad) = points.iter().find(|p| p.dim() != dim) {
            return error_frame(
                ErrorCode::Dimension,
                format!(
                    "stream {stream:?} is {dim}-dimensional, got a {}-dimensional point",
                    bad.dim()
                ),
            );
        }
        // Admission control (DESIGN.md §12): refuse the batch *whole*
        // before anything is enqueued, so a rejected Feed has no
        // partial effect. Input-side: the points about to be queued
        // (charged at the runtime's per-point queue cost) must fit
        // under the owner's queued-input cap. Output-side: a session
        // sitting on too many unpolled windows must poll before it may
        // feed more, so the bound is lossless without any task waiting.
        if let Some(max) = shared.limits.owner_max_queue_bytes {
            let incoming = sgs_runtime::queued_bytes(points);
            let queued = rt.input_queue_bytes_for(view.owner);
            if queued.saturating_add(incoming) > max {
                shared.metrics.quota_rejections.inc();
                return error_frame(
                    ErrorCode::QuotaExceeded,
                    format!(
                        "feeding {incoming} bytes atop {queued} queued would pass the \
                         owner's input-queue limit of {max} bytes; let processing drain \
                         and retry"
                    ),
                );
            }
        }
        if let Some(max) = shared.limits.owner_max_buffer_bytes {
            let buffered = rt.output_bytes_for(view.owner);
            if buffered > max {
                shared.metrics.quota_rejections.inc();
                return error_frame(
                    ErrorCode::QuotaExceeded,
                    format!(
                        "{buffered} bytes of completed windows are waiting unpolled \
                         (limit {max}); poll to release the quota"
                    ),
                );
            }
        }
        rt.feeder(Some(view.owner), Some(stream))
    };
    {
        let _block = sgs_obs::SpanGuard::new(&shared.metrics.feed_block_nanos);
        feeder.push_batch(points);
    }
    Frame::OkAck
}

fn lifecycle(
    shared: &Shared,
    view: &SessionView,
    local: u64,
    op: impl FnOnce(&mut Runtime, QueryId) -> Result<(), RuntimeError>,
) -> Frame {
    match view.resolve(local) {
        Ok(id) => match op(&mut shared.rt.write(), id) {
            Ok(()) => Frame::OkAck,
            Err(e) => runtime_error_frame(&e),
        },
        Err(e) => e,
    }
}

// ---------------------------------------------------------------------------
// Runtime → wire mappings
// ---------------------------------------------------------------------------

/// The frame a draining server sends in place of any further response.
fn goaway_frame(shared: &Shared) -> Frame {
    Frame::GoAway {
        reason: "server draining".into(),
        drain_millis: shared.drain_millis.load(Ordering::SeqCst),
    }
}

/// The typed farewell of an idle-timeout close.
fn idle_timeout_frame(shared: &Shared) -> Frame {
    let window = shared.limits.idle_timeout.unwrap_or_default();
    error_frame(
        ErrorCode::Protocol,
        format!("idle timeout: no complete request within {window:?}"),
    )
}

fn wire_state(state: QueryState) -> WireQueryState {
    match state {
        QueryState::Running => WireQueryState::Running,
        QueryState::Paused => WireQueryState::Paused,
        QueryState::Cancelled => WireQueryState::Cancelled,
        QueryState::Failed => WireQueryState::Failed,
    }
}

fn wire_stats(stats: &QueryStats) -> WireStats {
    WireStats {
        points: stats.points,
        windows: stats.windows,
        clusters: stats.clusters,
        archived: stats.archived,
        archive_bytes: stats.archive_bytes as u64,
        busy_nanos: stats.busy_nanos,
        error: stats.error.clone(),
    }
}

fn describe(local: u64, descriptor: &QueryDescriptor) -> WireQuery {
    WireQuery {
        query: local,
        state: wire_state(descriptor.state),
        text: descriptor.text.clone(),
        stats: wire_stats(&descriptor.stats),
    }
}

fn error_frame(code: ErrorCode, message: String) -> Frame {
    Frame::Error { code, message }
}

fn runtime_error_frame(e: &RuntimeError) -> Frame {
    let code = match e {
        RuntimeError::Plan(_) | RuntimeError::Query(_) => ErrorCode::Plan,
        RuntimeError::UnknownQuery(_) => ErrorCode::UnknownQuery,
        RuntimeError::UnknownBinding(_) => ErrorCode::UnknownBinding,
        RuntimeError::InvalidTransition { .. } | RuntimeError::Disconnected(_) => {
            ErrorCode::InvalidTransition
        }
        RuntimeError::Archive(_) => ErrorCode::Internal,
    };
    error_frame(code, e.to_string())
}
