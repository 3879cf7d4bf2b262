//! The frame vocabulary: every message either peer can send.

use sgs_core::{Point, WindowId};
use sgs_csgs::WindowOutput;
use sgs_summarize::Sgs;

/// Execution statistics of one query as carried on the wire — the
/// protocol's stable mirror of `sgs_runtime::QueryStats` (the runtime
/// struct can evolve; this one only changes with [`crate::WIRE_VERSION`]).
///
/// Body grammar: 6 × `u64` in field order, then `error` as an
/// option-flagged string (`u8` 0 = absent; 1 = present, followed by the
/// string).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Points processed.
    pub points: u64,
    /// Windows emitted.
    pub windows: u64,
    /// Clusters extracted across all windows.
    pub clusters: u64,
    /// Summaries archived into the pattern base.
    pub archived: u64,
    /// Packed bytes of the archived summaries.
    pub archive_bytes: u64,
    /// Worker-side processing time, nanoseconds.
    pub busy_nanos: u64,
    /// The error that failed the query, if any.
    pub error: Option<String>,
}

/// Lifecycle state of a query as carried on the wire (`u8` code in
/// declaration order; any other code is a decode error).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireQueryState {
    /// Receiving points and emitting windows.
    Running,
    /// Alive but skipping ingested points.
    Paused,
    /// Stopped; final stats remain readable.
    Cancelled,
    /// Hit an unrecoverable error (see [`WireStats::error`]).
    Failed,
}

impl WireQueryState {
    pub(crate) fn code(self) -> u8 {
        match self {
            WireQueryState::Running => 0,
            WireQueryState::Paused => 1,
            WireQueryState::Cancelled => 2,
            WireQueryState::Failed => 3,
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => WireQueryState::Running,
            1 => WireQueryState::Paused,
            2 => WireQueryState::Cancelled,
            3 => WireQueryState::Failed,
            _ => return None,
        })
    }
}

/// One registered query as the server describes it: the id is
/// **session-local** (each connection numbers its own queries from 0 —
/// sessions own their query ids and never see another session's).
///
/// Body grammar: `query:u64 state:u8 text:string stats:WireStats`.
#[derive(Clone, Debug, PartialEq)]
pub struct WireQuery {
    /// Session-local query id.
    pub query: u64,
    /// Lifecycle state at snapshot time.
    pub state: WireQueryState,
    /// Canonical statement text.
    pub text: String,
    /// Statistics at snapshot time.
    pub stats: WireStats,
}

/// One match of a GIVEN/SELECT statement.
///
/// Body grammar: `pattern:u64 distance:f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct WireMatch {
    /// Pattern id in the server's shared history base.
    pub pattern: u64,
    /// Distance from the query cluster.
    pub distance: f64,
}

/// One completed window of a query: the window id plus every extracted
/// cluster (cores, edges, and the full SGS with its complete connection
/// lists, so a polled window round-trips byte-identically).
///
/// Body grammar: `window:u64 clusters:seq(cluster)` where
/// `cluster := cores:seq(u32) edges:seq(u32) sgs` and `sgs` is the one
/// summary encoding of `sgs_summarize::codec` (`dim:u16 level:u8 side:f64
/// cells:seq(coord:i32×dim population:u32 status:u8 connections:seq(u32))`),
/// which the durable archive stores too.
#[derive(Clone, Debug, PartialEq)]
pub struct WireWindow {
    /// The window id.
    pub window: WindowId,
    /// Extracted clusters, in extraction order.
    pub clusters: WindowOutput,
}

/// The value of one metric in a [`Frame::MetricsReply`] — the wire
/// mirror of `sgs_obs::MetricValue`.
///
/// Body grammar: `tag:u8` then tag-specific fields: `0` counter
/// (`value:u64`), `1` gauge (`value:i64`), `2` histogram
/// (`count sum max p50 p95 p99`, each `u64`). Any other tag is a decode
/// error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireMetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// An instantaneous signed level.
    Gauge(i64),
    /// A latency histogram snapshot (nanoseconds).
    Histogram {
        /// Observations recorded.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// Largest recorded value.
        max: u64,
        /// Estimated median.
        p50: u64,
        /// Estimated 95th percentile.
        p95: u64,
        /// Estimated 99th percentile.
        p99: u64,
    },
}

/// One named metric in a [`Frame::MetricsReply`].
///
/// Body grammar: `name:string value:WireMetricValue`. Names follow the
/// `sgs_<layer>_<name>` scheme with Prometheus-style inline labels
/// (`DESIGN.md` §11).
#[derive(Clone, Debug, PartialEq)]
pub struct WireMetric {
    /// Full display name, labels inline.
    pub name: String,
    /// The reading at snapshot time.
    pub value: WireMetricValue,
}

/// Machine-readable class of a server-reported failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer broke the protocol (bad handshake, a response frame sent
    /// as a request, ...). The server closes the connection after this.
    Protocol,
    /// The statement could not be planned (parse/semantic error).
    Plan,
    /// No query with that session-local id.
    UnknownQuery,
    /// The named stream is not in the catalog.
    UnknownStream,
    /// The GIVEN name has no bound cluster.
    UnknownBinding,
    /// Illegal lifecycle transition (e.g. resuming a running query).
    InvalidTransition,
    /// Dimensionality mismatch between fed points and the stream.
    Dimension,
    /// Anything else; the message says what.
    Internal,
    /// The request would push the session's owner past a configured
    /// resource limit (live queries, queued input bytes, or buffered
    /// output bytes). The session stays usable: cancel queries or poll
    /// windows to release the quota, then retry.
    QuotaExceeded,
    /// The `Hello` carried no token (or a wrong one) on a server that
    /// requires authentication. The server closes the connection after
    /// this, like [`ErrorCode::Protocol`].
    Unauthorized,
}

impl ErrorCode {
    pub(crate) fn code(self) -> u16 {
        match self {
            ErrorCode::Protocol => 1,
            ErrorCode::Plan => 2,
            ErrorCode::UnknownQuery => 3,
            ErrorCode::UnknownStream => 4,
            ErrorCode::UnknownBinding => 5,
            ErrorCode::InvalidTransition => 6,
            ErrorCode::Dimension => 7,
            ErrorCode::Internal => 8,
            ErrorCode::QuotaExceeded => 9,
            ErrorCode::Unauthorized => 10,
        }
    }

    pub(crate) fn from_code(code: u16) -> Option<Self> {
        Some(match code {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Plan,
            3 => ErrorCode::UnknownQuery,
            4 => ErrorCode::UnknownStream,
            5 => ErrorCode::UnknownBinding,
            6 => ErrorCode::InvalidTransition,
            7 => ErrorCode::Dimension,
            8 => ErrorCode::Internal,
            9 => ErrorCode::QuotaExceeded,
            10 => ErrorCode::Unauthorized,
            _ => return None,
        })
    }
}

/// Every message of the protocol. Kinds `0x01..=0x0F` are requests
/// (client → server), `0x81..` and `0xFF` are responses; the kind byte
/// is noted on each variant. A request's point encoding is
/// `ts:u64 dim:u16 coords:f64×dim` per point.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    // ---- requests -------------------------------------------------------
    /// `0x01` — opens a session; must be the first frame on a connection.
    ///
    /// Body grammar: `client:string token:opt_str`. A server configured
    /// with `--auth-token` rejects a missing or unknown token with
    /// [`ErrorCode::Unauthorized`] and closes the connection. An
    /// admitted `Hello` gets its own owner, the identity per-owner
    /// quotas attach to.
    Hello {
        /// Client software name, for the server log.
        client: String,
        /// Shared-secret credential, when the server requires one.
        token: Option<String>,
    },
    /// `0x02` — submit one statement of either template (DETECT registers
    /// a continuous query → [`Frame::Registered`]; GIVEN/SELECT executes
    /// immediately → [`Frame::Matches`]).
    Submit {
        /// The statement text.
        text: String,
    },
    /// `0x03` — ingest a batch of points into a named stream. The server
    /// routes them to **this session's** queries reading that stream,
    /// through each query's bounded input queue — a full queue blocks
    /// the session's reader, which stops draining the socket, which is
    /// how backpressure reaches the client as TCP flow control.
    Feed {
        /// Catalog name of the source stream.
        stream: String,
        /// The batch (clients chunk to ≤ [`crate::FEED_CHUNK`] points).
        points: Vec<Point>,
    },
    /// `0x04` — drain up to `max` buffered completed windows of one of
    /// this session's queries → [`Frame::Windows`].
    Poll {
        /// Session-local query id.
        query: u64,
        /// Maximum windows to return (0 means "all buffered").
        max: u32,
    },
    /// `0x05` — fetch one query's state + statistics → [`Frame::StatsReply`].
    StatsReq {
        /// Session-local query id.
        query: u64,
    },
    /// `0x06` — list this session's queries → [`Frame::Queries`].
    ListQueries,
    /// `0x07` — pause a running query → [`Frame::OkAck`].
    Pause {
        /// Session-local query id.
        query: u64,
    },
    /// `0x08` — resume a paused query → [`Frame::OkAck`].
    Resume {
        /// Session-local query id.
        query: u64,
    },
    /// `0x09` — cancel a query after its queued input is processed →
    /// [`Frame::Report`].
    Cancel {
        /// Session-local query id.
        query: u64,
    },
    /// `0x0A` — bind a cluster summary to a name, making it addressable
    /// as the GIVEN clause of matching statements → [`Frame::OkAck`].
    /// The binding namespace is shared across sessions (analysts share
    /// the history they match against).
    Bind {
        /// Binding name.
        name: String,
        /// The cluster summary.
        sgs: Sgs,
    },
    /// `0x0B` — barrier: ack once every point fed so far has been fully
    /// processed → [`Frame::OkAck`].
    Quiesce,
    /// `0x0C` — close the session cleanly → [`Frame::OkAck`], then EOF.
    Goodbye,
    /// `0x0D` — snapshot the server's process-wide metric registry →
    /// [`Frame::MetricsReply`]. Empty body. Metrics are process-global
    /// (all sessions, queries, and layers), unlike the session-scoped
    /// query statistics.
    MetricsReq,
    /// `0x0E` — switch one of this session's queries from poll to push
    /// delivery → [`Frame::OkAck`], then the server sends that query's
    /// completed windows as **unsolicited** [`Frame::Windows`] frames,
    /// gated by the connection's write readiness. While subscribed, a
    /// [`Frame::Poll`] for the same query is rejected with
    /// [`ErrorCode::InvalidTransition`] — push and poll are exclusive
    /// consumption modes.
    Subscribe {
        /// Session-local query id.
        query: u64,
    },
    /// `0x0F` — revert a subscribed query to poll delivery →
    /// [`Frame::OkAck`]. Windows buffered after the ack are readable via
    /// [`Frame::Poll`] again; pushed frames already in flight may still
    /// arrive before the ack.
    Unsubscribe {
        /// Session-local query id.
        query: u64,
    },

    // ---- responses ------------------------------------------------------
    /// `0x81` — handshake acknowledgement.
    HelloAck {
        /// Server software name.
        server: String,
        /// The server's [`crate::WIRE_VERSION`].
        protocol: u8,
    },
    /// `0x82` — a DETECT statement became a continuous query.
    Registered {
        /// Session-local query id.
        query: u64,
    },
    /// `0x83` — result of an immediately-executed matching statement.
    Matches {
        /// Candidates surviving the locational filter.
        candidates: u64,
        /// Candidates refined with full distance computation.
        refined: u64,
        /// The matches.
        matches: Vec<WireMatch>,
    },
    /// `0x84` — windows of one query, oldest first: the response to a
    /// [`Frame::Poll`], or — for a subscribed query — an **unsolicited
    /// push** (the same grammar either way, so pushed windows are
    /// byte-identical to polled ones).
    Windows {
        /// Session-local query id.
        query: u64,
        /// The drained windows.
        windows: Vec<WireWindow>,
    },
    /// `0x85` — one query's state and statistics.
    StatsReply(WireQuery),
    /// `0x86` — the session's query listing.
    Queries(Vec<WireQuery>),
    /// `0x87` — success acknowledgement for requests with no payload to
    /// return.
    OkAck,
    /// `0x89` — a snapshot of the server's metric registry, sorted by
    /// name.
    MetricsReply(Vec<WireMetric>),
    /// `0x88` — final accounting of a cancelled query.
    Report {
        /// Session-local query id.
        query: u64,
        /// Final statistics ([`WireStats::archived`] counts its pattern
        /// base).
        stats: WireStats,
    },
    /// `0x8A` — the server is draining (SIGTERM / administrative
    /// shutdown) and will close this connection; no further requests
    /// will be served. May arrive **in place of any expected response**
    /// or unsolicited to an idle session — the only frame the strict
    /// request/response discipline allows out of band. Clients should
    /// reconnect elsewhere after `drain_millis`.
    GoAway {
        /// Why the server is going away, for the client log.
        reason: String,
        /// Upper bound on the server's remaining drain window, ms.
        drain_millis: u64,
    },
    /// `0xFF` — the request failed; the session stays usable unless the
    /// code is [`ErrorCode::Protocol`].
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Frame {
    /// The kind byte identifying this frame on the wire.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::Submit { .. } => 0x02,
            Frame::Feed { .. } => 0x03,
            Frame::Poll { .. } => 0x04,
            Frame::StatsReq { .. } => 0x05,
            Frame::ListQueries => 0x06,
            Frame::Pause { .. } => 0x07,
            Frame::Resume { .. } => 0x08,
            Frame::Cancel { .. } => 0x09,
            Frame::Bind { .. } => 0x0A,
            Frame::Quiesce => 0x0B,
            Frame::Goodbye => 0x0C,
            Frame::MetricsReq => 0x0D,
            Frame::Subscribe { .. } => 0x0E,
            Frame::Unsubscribe { .. } => 0x0F,
            Frame::HelloAck { .. } => 0x81,
            Frame::Registered { .. } => 0x82,
            Frame::Matches { .. } => 0x83,
            Frame::Windows { .. } => 0x84,
            Frame::StatsReply(_) => 0x85,
            Frame::Queries(_) => 0x86,
            Frame::OkAck => 0x87,
            Frame::Report { .. } => 0x88,
            Frame::MetricsReply(_) => 0x89,
            Frame::GoAway { .. } => 0x8A,
            Frame::Error { .. } => 0xFF,
        }
    }
}
