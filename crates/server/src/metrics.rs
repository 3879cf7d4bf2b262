//! Server-layer instrumentation (`DESIGN.md` §11): session and frame
//! accounting, reactor activity, transport byte counts, and the optional
//! HTTP scrape endpoint serving the Prometheus text exposition.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use sgs_obs::{labeled, registry, Counter, Gauge, Histogram};

/// Request-kind byte → stable label value for
/// `sgs_server_frames_total{kind=...}`.
fn kind_name(kind: u8) -> &'static str {
    match kind {
        0x01 => "hello",
        0x02 => "submit",
        0x03 => "feed",
        0x04 => "poll",
        0x05 => "stats",
        0x06 => "list",
        0x07 => "pause",
        0x08 => "resume",
        0x09 => "cancel",
        0x0A => "bind",
        0x0B => "quiesce",
        0x0C => "goodbye",
        0x0D => "metrics",
        0x0E => "subscribe",
        0x0F => "unsubscribe",
        _ => "other",
    }
}

/// Typed handles into the process registry, resolved once at server
/// construction so per-frame accounting is a relaxed atomic, not a map
/// lookup.
pub(crate) struct ServerMetrics {
    /// Sessions currently connected.
    pub sessions: Arc<Gauge>,
    /// Sessions accepted since start.
    pub sessions_total: Arc<Counter>,
    /// Request frames dispatched, by kind (index = kind byte; `[0]` is
    /// the `other` fallback for unknown kinds).
    frames: Vec<Arc<Counter>>,
    /// Transport bytes read off client sockets.
    pub bytes_in: Arc<Counter>,
    /// Transport bytes written to client sockets.
    pub bytes_out: Arc<Counter>,
    /// Time one `Feed` dispatch spends blocked pushing into the bounded
    /// input queues — the server-side view of backpressure.
    pub feed_block_nanos: Arc<Histogram>,
    /// Sessions closed because no complete request arrived within the
    /// configured idle deadline.
    pub idle_timeouts: Arc<Counter>,
    /// Requests refused with `QuotaExceeded` (per-owner admission
    /// control).
    pub quota_rejections: Arc<Counter>,
    /// `GoAway` frames sent to sessions during a drain.
    pub goaways: Arc<Counter>,
    /// Graceful drains initiated ([`ServerHandle::drain`]).
    ///
    /// [`ServerHandle::drain`]: crate::ServerHandle::drain
    pub drains: Arc<Counter>,
    /// Peers that vanished while one of their requests was executing
    /// (detected by the reactor's hangup readiness; the session is torn
    /// down when the request completes).
    pub disconnect_reaps: Arc<Counter>,
    /// Malformed frames received (sessions ended with a typed Protocol
    /// error rather than a hang or a panic).
    pub wire_errors: Arc<Counter>,
    /// Times the reactor's readiness wait returned (socket readiness, a
    /// waker byte from a dispatch completion or an output-buffer notify,
    /// or a timeout tick).
    pub reactor_wakeups: Arc<Counter>,
    /// Windows delivered as unsolicited pushed `Windows` frames to
    /// subscribed sessions.
    pub pushed_windows: Arc<Counter>,
    /// `Hello` frames refused for a missing or unknown auth token.
    pub auth_failures: Arc<Counter>,
    /// Query subscriptions currently active across all sessions.
    pub subscriptions: Arc<Gauge>,
}

impl ServerMetrics {
    pub(crate) fn new() -> ServerMetrics {
        let r = registry();
        let frames = (0u8..=0x0F)
            .map(|k| {
                r.counter(&labeled(
                    "sgs_server_frames_total",
                    &[("kind", kind_name(if k == 0 { 0xFF } else { k }))],
                ))
            })
            .collect();
        ServerMetrics {
            sessions: r.gauge("sgs_server_sessions"),
            sessions_total: r.counter("sgs_server_sessions_total"),
            frames,
            bytes_in: r.counter("sgs_server_bytes_in_total"),
            bytes_out: r.counter("sgs_server_bytes_out_total"),
            feed_block_nanos: r.histogram("sgs_server_feed_block_nanos"),
            idle_timeouts: r.counter("sgs_server_idle_timeouts_total"),
            quota_rejections: r.counter("sgs_server_quota_rejections_total"),
            goaways: r.counter("sgs_server_goaways_total"),
            drains: r.counter("sgs_server_drains_total"),
            disconnect_reaps: r.counter("sgs_server_disconnect_reaps_total"),
            wire_errors: r.counter("sgs_server_wire_errors_total"),
            reactor_wakeups: r.counter("sgs_server_reactor_wakeups_total"),
            pushed_windows: r.counter("sgs_server_pushed_windows_total"),
            auth_failures: r.counter("sgs_server_auth_failures_total"),
            subscriptions: r.gauge("sgs_server_subscriptions"),
        }
    }

    /// Count one dispatched request frame by its kind byte.
    pub(crate) fn count_frame(&self, kind: u8) {
        let idx = if (kind as usize) < self.frames.len() {
            kind as usize
        } else {
            0
        };
        self.frames[idx].inc();
    }
}

// ---------------------------------------------------------------------------
// HTTP scrape endpoint
// ---------------------------------------------------------------------------

/// Bind `addr` and serve the process metric registry as Prometheus text
/// exposition (format 0.0.4) from a background thread, one connection at
/// a time — a scrape endpoint sees one poller every few seconds, not a
/// thundering herd. A connection that stalls is dropped after a short
/// read or write timeout, so it cannot hold the scrapes behind it.
/// Returns the bound address (use port 0 to let the OS pick). The thread
/// runs for the life of the process.
///
/// The server is deliberately minimal (no routing, no keep-alive): any
/// `GET` line gets `200 OK` with the exposition; anything else gets
/// `405`. That is all `curl` and a Prometheus scraper need.
pub fn spawn_metrics_listener(addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new()
        .name("sgs-metrics-http".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let _ = serve_scrape(stream);
            }
        })?;
    Ok(bound)
}

/// How long one scrape connection may stall on a read or a write. The
/// listener serves one connection at a time, so a client that connects
/// and sends nothing would otherwise hold every later scrape.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Most request bytes (request line and headers) read from one
/// connection; a line with no newline ends there instead of growing.
const MAX_REQUEST_BYTES: u64 = 8 * 1024;

fn serve_scrape(mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    let mut reader = BufReader::new((&stream).take(MAX_REQUEST_BYTES));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers so the client's write side is not reset before
    // it reads our response.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    drop(reader);
    if request_line.starts_with("GET ") {
        let body = registry().render_prometheus();
        write!(
            stream,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )?;
        stream.write_all(body.as_bytes())?;
    } else {
        let body = "method not allowed\n";
        write!(
            stream,
            "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: text/plain\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )?;
    }
    stream.flush()
}
