//! # sgs-client
//!
//! Blocking client library for the `streamsum-server` wire protocol
//! ([`sgs-wire`], `DESIGN.md` §9 and §14): one [`Session`] per TCP
//! connection, one server session per `Session`. The remote analyst's
//! loop is the same as the in-process [`Runtime`] session API —
//! register DETECT statements, feed points, poll windows, match against
//! the shared history — except every step crosses the network:
//!
//! ```no_run
//! use sgs_client::Session;
//! use sgs_core::Point;
//!
//! let mut session = Session::connect("127.0.0.1:7878")?;
//! let q = session.detect(
//!     "DETECT DensityBasedClusters f+s FROM gmti \
//!      USING theta_range = 0.6 AND theta_cnt = 8 \
//!      IN Windows WITH win = 2000 AND slide = 500",
//! )?;
//! let points: Vec<Point> = (0..4000)
//!     .map(|i| Point::new(vec![(i % 50) as f64 * 0.1, (i % 40) as f64 * 0.1], i))
//!     .collect();
//! session.feed("gmti", &points)?;
//! session.quiesce()?;
//! for (window, clusters) in session.query(q).poll(0)? {
//!     println!("window {}: {} clusters", window.0, clusters.len());
//! }
//! # Ok::<(), sgs_client::ClientError>(())
//! ```
//!
//! ## Push delivery
//!
//! Instead of polling, a query can be switched to **server push**
//! ([`Session::subscribe`]): the server sends completed windows as
//! unsolicited `Windows` frames as soon as they exist, and the
//! [`SubscribeHandle`] iterates them. An idle subscriber costs the
//! server no thread and the client no traffic:
//!
//! ```no_run
//! # let mut session = sgs_client::Session::connect("127.0.0.1:7878")?;
//! # let q = session.detect("DETECT ...")?;
//! let mut sub = session.subscribe(q)?;
//! for pushed in sub.by_ref().take(8) {
//!     let (window, clusters) = pushed?;
//!     println!("pushed window {}: {} clusters", window.0, clusters.len());
//! }
//! let leftovers = sub.unsubscribe()?; // back to poll mode
//! # drop(leftovers);
//! # Ok::<(), sgs_client::ClientError>(())
//! ```
//!
//! Pushed frames may race a request the client has just written (the
//! server cannot know it is in transit), so every reply read *demuxes*:
//! a `Windows` frame for a subscribed query is stashed for its
//! [`SubscribeHandle`] and the read continues; anything else is the
//! reply. The server never pushes between receiving a request and
//! answering it, so the stash is the only reordering that can occur.
//!
//! ## Backpressure
//!
//! A feed larger than [`sgs_wire::FEED_CHUNK`] is sent as multiple
//! `Feed` frames, and the server acks each only after routing it
//! through the bounded per-query input queues — so a slow server
//! throttles [`Session::feed`] itself, exactly like
//! `Runtime::push_batch` blocking in-process.
//!
//! [`sgs-wire`]: ../sgs_wire/index.html
//! [`Runtime`]: ../sgs_runtime/runtime/struct.Runtime.html

use std::collections::{HashSet, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use sgs_core::{Point, WindowId};
use sgs_csgs::WindowOutput;
use sgs_summarize::Sgs;
use sgs_wire::{
    read_frame, write_frame, ErrorCode, Frame, RecvError, WireMatch, WireMetric, WireQuery,
    WireStats, WireWindow, FEED_CHUNK, WIRE_VERSION,
};

mod metrics;
use metrics::metrics;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write) other than a deadline or
    /// a lost connection (those get their own variants below).
    Io(io::Error),
    /// The server's bytes were not valid protocol.
    Wire(sgs_wire::WireError),
    /// The server closed the connection cleanly (EOF between frames).
    Closed,
    /// The request's deadline expired before the reply arrived
    /// ([`ClientConfig::request_timeout`]). The connection is shut down
    /// — a late reply must not desync the next request — so further
    /// calls fail with [`ClientError::ConnectionLost`]; open a new
    /// [`Session`] to continue.
    Timeout,
    /// The connection dropped mid-exchange (reset, broken pipe, EOF
    /// inside a frame). The request's fate on the server is unknown.
    ConnectionLost,
    /// The server is draining (shutdown in progress) and sent
    /// [`Frame::GoAway`]; it will accept no further requests.
    GoAway {
        /// The server's stated reason.
        reason: String,
        /// Upper bound on the server's remaining drain window, in
        /// milliseconds — reconnect elsewhere after this long.
        drain_millis: u64,
    },
    /// The server reported a failure for this request.
    Server {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a frame this request cannot accept —
    /// e.g. a `HelloAck` carrying an incompatible protocol version, or
    /// a response kind that does not match the request.
    Unexpected(&'static str),
    /// A request argument cannot be represented on the wire (e.g. point
    /// dimensionality beyond the format's `u16`); nothing was sent.
    Invalid(&'static str),
}

impl ClientError {
    /// Is this a transport-level failure a reconnect might cure (as
    /// opposed to a server-reported or caller-side error)?
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Closed
                | ClientError::Timeout
                | ClientError::ConnectionLost
                | ClientError::GoAway { .. }
        )
    }

    /// Did the server refuse the session's credential
    /// ([`ClientConfig::auth_token`])? Retrying without a different
    /// token cannot succeed.
    pub fn is_unauthorized(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Unauthorized,
                ..
            }
        )
    }
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Timeout => write!(f, "request deadline expired"),
            ClientError::ConnectionLost => write!(f, "connection lost"),
            ClientError::GoAway {
                reason,
                drain_millis,
            } => write!(f, "server going away in {drain_millis}ms: {reason}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected server response: {what}"),
            ClientError::Invalid(what) => write!(f, "request not encodable: {what}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

/// Classify a raw transport error into the typed variants: socket
/// deadlines surface as [`ClientError::Timeout`], peer-gone conditions
/// as [`ClientError::ConnectionLost`], anything else stays `Io`.
fn classify_io(e: io::Error) -> ClientError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            metrics().timeouts.inc();
            ClientError::Timeout
        }
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::NotConnected
        | io::ErrorKind::UnexpectedEof => {
            metrics().connections_lost.inc();
            ClientError::ConnectionLost
        }
        _ => ClientError::Io(e),
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        classify_io(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Closed => ClientError::Closed,
            RecvError::Io(e) => classify_io(e),
            RecvError::Wire(e) => ClientError::Wire(e),
        }
    }
}

/// Deadline and identity knobs for a [`Session`]. There is no retry:
/// a caller that wants to reconnect opens a new `Session`.
#[derive(Clone, Debug, Default)]
pub struct ClientConfig {
    /// Socket read/write deadline for every request/response exchange.
    /// `None` (the default) waits indefinitely — feed backpressure can
    /// legitimately block for as long as the server needs.
    pub request_timeout: Option<Duration>,
    /// Deadline for TCP connect **and** the Hello handshake, so a dead
    /// or wedged address fails fast with [`ClientError::Timeout`]
    /// instead of hanging. [`ClientConfig::new`] sets 10 s;
    /// `Default::default()` leaves it unset (wait indefinitely).
    pub connect_timeout: Option<Duration>,
    /// Shared-secret credential sent with `Hello`. Required when the
    /// server was started with `--auth-token`; a missing or unknown
    /// secret fails the handshake with a typed `Unauthorized` error
    /// (see [`ClientError::is_unauthorized`]).
    pub auth_token: Option<String>,
}

impl ClientConfig {
    /// The recommended starting point: a 10 s connect deadline, no
    /// request deadline, no credential.
    pub fn new() -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(10)),
            ..ClientConfig::default()
        }
    }

    /// Attach the shared-secret credential sent with `Hello`.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> ClientConfig {
        self.auth_token = Some(token.into());
        self
    }
}

/// What [`Session::submit`] produced — the wire mirror of
/// `sgs_runtime::Submission`.
#[derive(Debug)]
pub enum Submitted {
    /// A DETECT statement became a continuous query with this
    /// session-local id.
    Continuous(u64),
    /// A matching statement executed immediately.
    Matches {
        /// Candidates surviving the locational filter.
        candidates: u64,
        /// Candidates fully refined.
        refined: u64,
        /// The matches.
        matches: Vec<WireMatch>,
    },
}

/// One blocking session with a streamsum server.
///
/// Not thread-safe by design (the protocol is serial per connection);
/// open one `Session` per thread instead — the server's reactor
/// multiplexes any number of sessions onto one shared runtime.
///
/// Per-query operations hang off [`Session::query`] sub-handles;
/// [`Session::subscribe`] switches a query to server-push delivery.
pub struct Session {
    stream: TcpStream,
    config: ClientConfig,
    /// Queries currently in push delivery — the demux key: a `Windows`
    /// frame for one of these is never a reply.
    subscribed: HashSet<u64>,
    /// Pushed windows not yet handed to the caller, each with its
    /// query, in arrival order. Every pushed window enters here once and
    /// leaves once, oldest first, to a [`SubscribeHandle`] or to
    /// `unsubscribe`.
    stash: VecDeque<(u64, WireWindow)>,
}

impl core::fmt::Debug for Session {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Session")
            .field("subscribed", &self.subscribed)
            .field("stashed_windows", &self.stash.len())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Connect and shake hands with the default [`ClientConfig::new`]
    /// settings. Fails if the server speaks a different
    /// [`WIRE_VERSION`] or requires a credential.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Session, ClientError> {
        Session::connect_with(addr, ClientConfig::new())
    }

    /// Connect and shake hands with explicit resilience and identity
    /// settings.
    ///
    /// The whole handshake runs under
    /// [`ClientConfig::connect_timeout`], so an address that accepts
    /// but never answers (or answers and immediately closes) yields a
    /// typed [`ClientError::Timeout`] / [`ClientError::Closed`] fast,
    /// never an indefinite hang.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Session, ClientError> {
        let mut last: Option<ClientError> = None;
        for peer in addr.to_socket_addrs().map_err(ClientError::Io)? {
            match Session::connect_one(peer, config.clone()) {
                Ok(session) => return Ok(session),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or(ClientError::Invalid("address resolved to nothing")))
    }

    fn connect_one(peer: SocketAddr, config: ClientConfig) -> Result<Session, ClientError> {
        let stream = match config.connect_timeout {
            Some(d) => TcpStream::connect_timeout(&peer, d).map_err(classify_io)?,
            None => TcpStream::connect(peer).map_err(classify_io)?,
        };
        stream.set_nodelay(true)?;
        // The handshake runs under the connect deadline; per-request
        // deadlines take over once the session is up.
        stream.set_read_timeout(config.connect_timeout)?;
        stream.set_write_timeout(config.connect_timeout)?;
        let mut session = Session {
            stream,
            config,
            subscribed: HashSet::new(),
            stash: VecDeque::new(),
        };
        let ack = session.call(Frame::Hello {
            client: concat!("sgs-client/", env!("CARGO_PKG_VERSION")).into(),
            token: session.config.auth_token.clone(),
        })?;
        match ack {
            Frame::HelloAck { protocol, .. } if protocol == WIRE_VERSION => {
                session
                    .stream
                    .set_read_timeout(session.config.request_timeout)?;
                session
                    .stream
                    .set_write_timeout(session.config.request_timeout)?;
                Ok(session)
            }
            Frame::HelloAck { .. } => Err(ClientError::Unexpected("protocol version mismatch")),
            _ => Err(ClientError::Unexpected("handshake reply was not HelloAck")),
        }
    }

    /// Read one frame. A pushed `Windows` frame for a subscribed query
    /// goes to the stash (`Ok(None)`); an `Error` frame becomes
    /// [`ClientError::Server`] and a `GoAway` (the server is draining)
    /// [`ClientError::GoAway`]; anything else is returned.
    fn recv(&mut self) -> Result<Option<Frame>, ClientError> {
        let frame = match read_frame(&mut self.stream) {
            Ok(frame) => frame,
            Err(e) => return Err(self.poisoned(e.into())),
        };
        match frame {
            Frame::Windows { query, windows } if self.subscribed.contains(&query) => {
                metrics().pushed_windows.add(windows.len() as u64);
                self.stash.extend(windows.into_iter().map(|w| (query, w)));
                Ok(None)
            }
            Frame::Error { code, message } => Err(ClientError::Server { code, message }),
            Frame::GoAway {
                reason,
                drain_millis,
            } => {
                metrics().goaways.inc();
                Err(ClientError::GoAway {
                    reason,
                    drain_millis,
                })
            }
            frame => Ok(Some(frame)),
        }
    }

    /// Shut the socket down on a deadline or transport failure: the
    /// stream position is unknown, and a reply arriving after its
    /// request was abandoned would otherwise be mistaken for the *next*
    /// request's reply (protocol desync).
    fn poisoned(&mut self, e: ClientError) -> ClientError {
        if matches!(
            e,
            ClientError::Timeout | ClientError::ConnectionLost | ClientError::Io(_)
        ) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        e
    }

    /// One request/response exchange: pushed windows that race the
    /// reply (a push the server wrote before it saw the request in
    /// transit) are stashed, and the read continues.
    fn call(&mut self, request: Frame) -> Result<Frame, ClientError> {
        if let Err(e) = write_frame(&mut self.stream, &request) {
            return Err(self.poisoned(e.into()));
        }
        loop {
            if let Some(reply) = self.recv()? {
                return Ok(reply);
            }
        }
    }

    /// Submit one statement of either template (DETECT or GIVEN/SELECT).
    pub fn submit(&mut self, text: &str) -> Result<Submitted, ClientError> {
        match self.call(Frame::Submit { text: text.into() })? {
            Frame::Registered { query } => Ok(Submitted::Continuous(query)),
            Frame::Matches {
                candidates,
                refined,
                matches,
            } => Ok(Submitted::Matches {
                candidates,
                refined,
                matches,
            }),
            _ => Err(ClientError::Unexpected("submit reply")),
        }
    }

    /// Submit a DETECT statement, returning the new query's
    /// session-local id (use it with [`Session::query`] /
    /// [`Session::subscribe`]).
    pub fn detect(&mut self, text: &str) -> Result<u64, ClientError> {
        match self.submit(text)? {
            Submitted::Continuous(q) => Ok(q),
            Submitted::Matches { .. } => {
                Err(ClientError::Unexpected("DETECT answered with matches"))
            }
        }
    }

    /// Feed points into a named stream, chunked to at most
    /// [`FEED_CHUNK`] points per frame — fewer for high-dimensional
    /// streams, so a chunk's *encoded bytes* always stay far below the
    /// protocol's frame cap. Blocks for each chunk's ack — which the
    /// server sends only after the chunk cleared the bounded per-query
    /// input queues, so server-side backpressure throttles this call.
    pub fn feed(&mut self, stream: &str, points: &[Point]) -> Result<(), ClientError> {
        let Some(first) = points.first() else {
            return Ok(());
        };
        let dim = first.dim();
        if dim > u16::MAX as usize {
            // The wire point encoding carries dimensionality as a u16;
            // encoding would silently truncate.
            return Err(ClientError::Invalid(
                "point dimensionality exceeds the wire format's u16",
            ));
        }
        // Encoded point size is fixed (ts u64 + dim u16 + dim × f64);
        // bound each frame to a quarter of the cap.
        let point_bytes = 8 + 2 + 8 * dim;
        let max_points = (sgs_wire::MAX_FRAME_LEN / 4 / point_bytes).max(1);
        for chunk in points.chunks(FEED_CHUNK.clamp(1, max_points)) {
            match self.call(Frame::Feed {
                stream: stream.into(),
                points: chunk.to_vec(),
            })? {
                Frame::OkAck => {}
                _ => return Err(ClientError::Unexpected("feed reply")),
            }
        }
        Ok(())
    }

    /// Sub-handle for one of this session's queries: lifecycle
    /// ([`QueryHandle::pause`] / [`resume`](QueryHandle::resume) /
    /// [`cancel`](QueryHandle::cancel)), statistics, and polling. The
    /// handle borrows the session; it is a view, not a resource.
    pub fn query(&mut self, id: u64) -> QueryHandle<'_> {
        QueryHandle { session: self, id }
    }

    /// Switch a query to server-push delivery: buffered and future
    /// windows arrive as unsolicited `Windows` frames, iterated by the
    /// returned [`SubscribeHandle`]. Idempotent — re-subscribing an
    /// already-pushed query just returns a fresh handle (any windows
    /// stashed since the last handle are retained).
    ///
    /// While subscribed, a `Poll` for the same query is refused by the
    /// server (`InvalidTransition`); unsubscribe first.
    pub fn subscribe(&mut self, id: u64) -> Result<SubscribeHandle<'_>, ClientError> {
        self.subscribe_inner(id)?;
        Ok(SubscribeHandle {
            session: self,
            query: id,
        })
    }

    fn subscribe_inner(&mut self, id: u64) -> Result<(), ClientError> {
        match self.call(Frame::Subscribe { query: id })? {
            Frame::OkAck => {
                self.subscribed.insert(id);
                metrics().subscribes.inc();
                Ok(())
            }
            _ => Err(ClientError::Unexpected("subscribe reply")),
        }
    }

    /// Revert a query to poll delivery, returning windows the server
    /// had already pushed (they were irreversibly drained from its
    /// output buffer; dropping them here would lose results).
    fn unsubscribe_inner(&mut self, id: u64) -> Result<Vec<(WindowId, WindowOutput)>, ClientError> {
        match self.call(Frame::Unsubscribe { query: id })? {
            Frame::OkAck => {
                self.subscribed.remove(&id);
                Ok(self.take_stashed(id))
            }
            _ => Err(ClientError::Unexpected("unsubscribe reply")),
        }
    }

    /// Take the oldest stashed window for `query`, if any.
    fn take_one(&mut self, query: u64) -> Option<(WindowId, WindowOutput)> {
        let pos = self.stash.iter().position(|(q, _)| *q == query)?;
        let (_, w) = self.stash.remove(pos)?;
        Some((w.window, w.clusters))
    }

    /// Take every stashed window for `query`, oldest first.
    fn take_stashed(&mut self, query: u64) -> Vec<(WindowId, WindowOutput)> {
        std::iter::from_fn(|| self.take_one(query)).collect()
    }

    /// Block for the next pushed frame and stash it. Anything but a push
    /// for a subscribed query is an error here.
    fn await_push(&mut self) -> Result<(), ClientError> {
        match self.recv()? {
            None => Ok(()),
            Some(Frame::Windows { .. }) => Err(ClientError::Unexpected(
                "pushed windows for an unsubscribed query",
            )),
            Some(_) => Err(ClientError::Unexpected(
                "unsolicited frame while awaiting pushed windows",
            )),
        }
    }

    fn stats_inner(&mut self, query: u64) -> Result<WireQuery, ClientError> {
        match self.call(Frame::StatsReq { query })? {
            Frame::StatsReply(q) => Ok(q),
            _ => Err(ClientError::Unexpected("stats reply")),
        }
    }

    /// Drain up to `max` buffered completed windows of one query
    /// (`max == 0` means all buffered), oldest first.
    ///
    /// The server pages large drains (one response frame stays far
    /// below the protocol's frame-size cap), so this loops requesting
    /// pages until it has `max` windows or a page comes back empty.
    fn poll_inner(
        &mut self,
        query: u64,
        max: u32,
    ) -> Result<Vec<(WindowId, WindowOutput)>, ClientError> {
        let mut out: Vec<(WindowId, WindowOutput)> = Vec::new();
        loop {
            let want = if max == 0 { 0 } else { max - out.len() as u32 };
            // A failure on a *later* page does not discard the windows
            // already received — the server has irreversibly drained
            // them, so dropping them here would lose results. The error
            // resurfaces on the next call's first page.
            let page = match self.poll_page(query, want) {
                Ok(page) => page,
                Err(e) if out.is_empty() => return Err(e),
                Err(_) => break,
            };
            if page.is_empty() {
                break;
            }
            out.extend(page);
            if max != 0 && out.len() >= max as usize {
                break;
            }
        }
        Ok(out)
    }

    /// One `Poll` round trip (at most one server page of windows).
    fn poll_page(
        &mut self,
        query: u64,
        max: u32,
    ) -> Result<Vec<(WindowId, WindowOutput)>, ClientError> {
        match self.call(Frame::Poll { query, max })? {
            Frame::Windows { query: q, windows } if q == query => Ok(windows
                .into_iter()
                .map(|w| (w.window, w.clusters))
                .collect()),
            _ => Err(ClientError::Unexpected("poll reply")),
        }
    }

    /// Snapshot the server's process-wide metric registry (all sessions
    /// and layers — unlike [`QueryHandle::stats`], which is one query).
    /// Sorted by metric name. Empty until the server enables metrics.
    pub fn metrics(&mut self) -> Result<Vec<WireMetric>, ClientError> {
        match self.call(Frame::MetricsReq)? {
            Frame::MetricsReply(metrics) => Ok(metrics),
            _ => Err(ClientError::Unexpected("metrics reply")),
        }
    }

    /// List this session's queries (never another session's — the server
    /// scopes the registry view to this connection).
    pub fn queries(&mut self) -> Result<Vec<WireQuery>, ClientError> {
        match self.call(Frame::ListQueries)? {
            Frame::Queries(qs) => Ok(qs),
            _ => Err(ClientError::Unexpected("list reply")),
        }
    }

    /// Bind a cluster summary to a name for use in GIVEN clauses. The
    /// binding namespace is server-wide (shared with other sessions).
    pub fn bind(&mut self, name: &str, sgs: &Sgs) -> Result<(), ClientError> {
        self.expect_ok(
            Frame::Bind {
                name: name.into(),
                sgs: sgs.clone(),
            },
            "bind reply",
        )
    }

    /// Barrier: returns once every point this session fed so far has
    /// been fully processed (stats and polls then reflect all of it).
    pub fn quiesce(&mut self) -> Result<(), ClientError> {
        self.expect_ok(Frame::Quiesce, "quiesce reply")
    }

    /// Close the session cleanly.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        self.expect_ok(Frame::Goodbye, "goodbye reply")
    }

    fn expect_ok(&mut self, request: Frame, what: &'static str) -> Result<(), ClientError> {
        match self.call(request)? {
            Frame::OkAck => Ok(()),
            _ => Err(ClientError::Unexpected(what)),
        }
    }
}

/// Per-query view of a [`Session`] ([`Session::query`]): lifecycle,
/// statistics, polling, and the hand-off into push delivery.
pub struct QueryHandle<'s> {
    session: &'s mut Session,
    id: u64,
}

impl<'s> QueryHandle<'s> {
    /// The session-local query id this handle addresses.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Pause the query (points route past it; no new windows).
    pub fn pause(&mut self) -> Result<(), ClientError> {
        let id = self.id;
        self.session
            .expect_ok(Frame::Pause { query: id }, "pause reply")
    }

    /// Resume a paused query.
    pub fn resume(&mut self) -> Result<(), ClientError> {
        let id = self.id;
        self.session
            .expect_ok(Frame::Resume { query: id }, "resume reply")
    }

    /// Cancel the query, returning its final statistics.
    pub fn cancel(self) -> Result<WireStats, ClientError> {
        match self.session.call(Frame::Cancel { query: self.id })? {
            Frame::Report { query, stats } if query == self.id => Ok(stats),
            _ => Err(ClientError::Unexpected("cancel reply")),
        }
    }

    /// Fetch the query's state and statistics.
    pub fn stats(&mut self) -> Result<WireQuery, ClientError> {
        let id = self.id;
        self.session.stats_inner(id)
    }

    /// Drain up to `max` buffered completed windows (`0` = all),
    /// oldest first. Refused while the query is subscribed.
    pub fn poll(&mut self, max: u32) -> Result<Vec<(WindowId, WindowOutput)>, ClientError> {
        let id = self.id;
        self.session.poll_inner(id, max)
    }

    /// Switch this query to push delivery ([`Session::subscribe`]).
    pub fn subscribe(self) -> Result<SubscribeHandle<'s>, ClientError> {
        let QueryHandle { session, id } = self;
        session.subscribe_inner(id)?;
        Ok(SubscribeHandle { session, query: id })
    }
}

/// A query in server-push delivery ([`Session::subscribe`]): iterate
/// pushed windows as they arrive, oldest first.
///
/// The handle borrows the session exclusively — the wire below it
/// carries unsolicited frames, so request/response traffic must pause
/// while the subscription is being consumed. It keeps no buffer of its
/// own: every method reads the session's stash of pushed windows, oldest
/// first, and a window leaves the stash only when it is handed out.
/// Dropping the handle keeps the subscription live (windows keep
/// arriving and are stashed by the next exchange's demux;
/// re-[`subscribe`](Session::subscribe) to resume iterating where this
/// handle stopped); [`SubscribeHandle::unsubscribe`] ends it.
pub struct SubscribeHandle<'s> {
    session: &'s mut Session,
    query: u64,
}

impl SubscribeHandle<'_> {
    /// The subscribed query's session-local id.
    pub fn query(&self) -> u64 {
        self.query
    }

    /// Every stashed window of this subscription, or — if none is
    /// stashed — block until the next pushed batch arrives and return
    /// it.
    ///
    /// Under a [`ClientConfig::request_timeout`] a silent subscription
    /// fails with [`ClientError::Timeout`] and the connection is shut
    /// down (a deadline mid-frame cannot be resynced) — prefer
    /// [`wait_windows`](Self::wait_windows) for bounded waits.
    pub fn next_windows(&mut self) -> Result<Vec<(WindowId, WindowOutput)>, ClientError> {
        loop {
            let windows = self.session.take_stashed(self.query);
            if !windows.is_empty() {
                return Ok(windows);
            }
            self.session.await_push()?;
        }
    }

    /// Wait up to `timeout` for pushed windows, returning `Ok(None)` on
    /// a quiet subscription — without poisoning the connection. The
    /// probe peeks the socket, so a deadline that fires while no frame
    /// has started consumes nothing and the session stays in sync. A
    /// zero `timeout` probes without blocking.
    pub fn wait_windows(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<Vec<(WindowId, WindowOutput)>>, ClientError> {
        if self.session.stash.iter().any(|(q, _)| *q == self.query) {
            return self.next_windows().map(Some);
        }
        // std refuses a zero read timeout; a zero wait peeks a
        // non-blocking socket instead.
        let stream = &self.session.stream;
        if timeout.is_zero() {
            stream.set_nonblocking(true)?;
        } else {
            stream.set_read_timeout(Some(timeout))?;
        }
        let mut probe = [0u8; 1];
        let peeked = stream.peek(&mut probe);
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(self.session.config.request_timeout)?;
        match peeked {
            Ok(0) => Err(ClientError::Closed),
            Ok(_) => self.next_windows().map(Some),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(classify_io(e)),
        }
    }

    /// End push delivery and return to poll mode. Windows the server
    /// pushed before processing the unsubscribe (including any stashed
    /// but not yet yielded) are returned — they were irreversibly
    /// drained from the server's output buffer; undelivered windows stay
    /// buffered server-side for [`QueryHandle::poll`].
    pub fn unsubscribe(self) -> Result<Vec<(WindowId, WindowOutput)>, ClientError> {
        self.session.unsubscribe_inner(self.query)
    }
}

impl Iterator for SubscribeHandle<'_> {
    type Item = Result<(WindowId, WindowOutput), ClientError>;

    /// The next pushed window, blocking until one arrives. A transport
    /// or server error is yielded as `Some(Err(..))`; iteration after
    /// an error re-attempts the read (which fails again on a dead
    /// connection), so callers should stop on the first `Err`.
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(window) = self.session.take_one(self.query) {
                return Some(Ok(window));
            }
            if let Err(e) = self.session.await_push() {
                return Some(Err(e));
            }
        }
    }
}
