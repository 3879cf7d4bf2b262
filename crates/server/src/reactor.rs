//! The readiness-driven reactor (`DESIGN.md` §14): one thread, many
//! non-blocking sessions.
//!
//! Every connection is an explicit state machine advanced by epoll
//! readiness — reading frame bytes, executing a request on the dispatch
//! pool, writing the reply, or pushing subscribed windows. An idle
//! session costs one registration and a few hundred bytes of buffers;
//! no thread, no timer. The reactor thread itself never blocks on
//! anything but `epoll_wait`:
//!
//! * request execution hops onto the server's bounded `sgs-exec`
//!   dispatch pool and comes back through the [`Mailbox`] plus a
//!   self-pipe waker byte;
//! * while a request executes, the connection's read interest is
//!   dropped (at most one in-flight request per session — the same
//!   serial semantics the thread-per-session server had) but hangup
//!   readiness stays on, so a vanished peer is noticed mid-request and
//!   torn down once the request completes;
//! * subscription pushes are gated by write readiness: a page of
//!   windows is encoded only when the write buffer is empty, so a slow
//!   reader holds its own windows in the runtime's bounded output
//!   buffer instead of ballooning the server's;
//! * session teardown (cancel + evict) also runs on the dispatch pool —
//!   a cancel waits for the query's backlog to drain, which must not
//!   stall every other session's readiness.
//!
//! [`Mailbox`]: crate::Mailbox

use std::collections::HashMap;
use std::collections::{BTreeSet, HashSet};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use epoll::{ControlOptions, Event, Events};
use sgs_runtime::{OwnerId, QueryId, QueryState};
use sgs_wire::{decode, write_frame, ErrorCode, Frame};

use crate::{
    dispatch, error_frame, goaway_frame, idle_timeout_frame, take_page, Completion, Effect, Seat,
    SessionView, Shared,
};

/// epoll cookie of the listening socket.
const LISTENER: u64 = u64::MAX;
/// epoll cookie of the waker pipe's read end.
const WAKER: u64 = u64::MAX - 1;

/// Upper bound of one readiness wait (milliseconds), so the reactor
/// re-checks control flags at least this often even when nothing is
/// ready.
const HEARTBEAT_MS: u64 = 500;

/// Pages pushed per subscription per scheduling turn before the
/// subscription re-queues itself through the mailbox, so one firehose
/// subscriber cannot monopolize the reactor.
const PUSH_PAGES_PER_TURN: usize = 8;

/// Where a connection's state machine is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Waiting for the opening `Hello` (handled on the reactor itself —
    /// authentication is a string compare, not worth a pool hop).
    Hello,
    /// Between requests: read interest on, frames parsed as they
    /// complete.
    Ready,
    /// A request is executing on the dispatch pool; read interest is
    /// off (hangup interest stays) until its completion arrives.
    Executing,
}

/// One connection owned by the reactor. All session state lives here —
/// dispatch tasks get a snapshot and send changes back as [`Effect`]s.
struct Conn {
    sock: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    phase: Phase,
    /// Minted at a successful `Hello`; `None` before the handshake.
    owner: Option<OwnerId>,
    /// Session-local id (the index) → runtime query id.
    queries: Vec<QueryId>,
    /// Local ids currently in push delivery.
    subscribed: HashSet<u64>,
    /// Local ids whose output buffer has undelivered windows.
    pending_push: BTreeSet<u64>,
    /// When the last complete request frame arrived (idle accounting).
    last_frame: Instant,
    /// Flush what is queued, then tear down; no further input is read.
    closing: bool,
    /// The peer vanished while a request was executing: tear down when
    /// the completion arrives.
    gone: bool,
    /// Interest set currently registered with epoll.
    interest: Events,
}

impl Conn {
    fn write_idle(&self) -> bool {
        self.write_pos >= self.write_buf.len()
    }

    /// When this session's idle window closes. `None` for the exempt —
    /// subscribers are legitimately silent, executing requests are
    /// already making progress, and closing connections are on their
    /// way out regardless — and when `idle` reaches past what the clock
    /// can represent (no deadline).
    fn idle_deadline(&self, idle: Duration) -> Option<Instant> {
        let exempt = self.closing
            || self.gone
            || self.phase == Phase::Executing
            || !self.subscribed.is_empty();
        if exempt {
            return None;
        }
        self.last_frame.checked_add(idle)
    }
}

/// Run the reactor until shutdown. The calling thread is the reactor;
/// `waker_rx` is the read end of the [`Mailbox`]'s self-pipe.
pub(crate) fn run(
    listener: TcpListener,
    waker_rx: UnixStream,
    shared: &Arc<Shared>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;

    let epfd = epoll::create(true)?;
    let setup = epoll::ctl(
        epfd,
        ControlOptions::EPOLL_CTL_ADD,
        listener.as_raw_fd(),
        Event::new(Events::EPOLLIN, LISTENER),
    )
    .and_then(|()| {
        epoll::ctl(
            epfd,
            ControlOptions::EPOLL_CTL_ADD,
            waker_rx.as_raw_fd(),
            Event::new(Events::EPOLLIN, WAKER),
        )
    });
    let result = match setup {
        Ok(()) => {
            let mut reactor = Reactor {
                epfd,
                shared,
                conns: HashMap::new(),
                goaway_sent: false,
            };
            reactor.event_loop(&listener, &waker_rx)
        }
        Err(e) => Err(e),
    };
    let _ = epoll::close(epfd);
    result
}

struct Reactor<'a> {
    epfd: epoll::RawFd,
    shared: &'a Arc<Shared>,
    conns: HashMap<u64, Conn>,
    /// The drain announcement has been made (it happens once).
    goaway_sent: bool,
}

impl Reactor<'_> {
    fn event_loop(&mut self, listener: &TcpListener, waker: &UnixStream) -> io::Result<()> {
        let mut events = [Event::default(); 64];
        loop {
            let n = epoll::wait(self.epfd, self.wait_timeout(), &mut events)?;
            self.shared.metrics.reactor_wakeups.inc();
            // Copy the records out first: the Event struct is packed
            // (kernel ABI) and `self` methods need the buffer released.
            let ready: Vec<(u64, Events)> = events[..n]
                .iter()
                .map(|e| (e.data, Events::from_bits_truncate(e.events)))
                .collect();
            for (token, bits) in ready {
                match token {
                    LISTENER => self.accept_ready(listener)?,
                    WAKER => drain_waker(waker),
                    token => self.conn_ready(token, bits),
                }
            }
            self.apply_completions();
            self.apply_pushes();
            if self.shared.draining.load(Ordering::SeqCst) && !self.goaway_sent {
                self.goaway_all();
            }
            self.check_idle();
            if self.shared.shutting_down.load(Ordering::SeqCst) && self.conns.is_empty() {
                return Ok(());
            }
        }
    }

    /// Milliseconds until the nearest idle deadline, capped by the
    /// heartbeat.
    fn wait_timeout(&self) -> i32 {
        let mut ms = HEARTBEAT_MS;
        if let Some(idle) = self.shared.limits.idle_timeout {
            let now = Instant::now();
            for deadline in self.conns.values().filter_map(|c| c.idle_deadline(idle)) {
                let left = deadline.saturating_duration_since(now).as_millis();
                ms = ms.min(u64::try_from(left).unwrap_or(u64::MAX).max(1));
            }
        }
        ms.min(i32::MAX as u64) as i32
    }

    fn accept_ready(&mut self, listener: &TcpListener) -> io::Result<()> {
        loop {
            match listener.accept() {
                Ok((sock, _)) => {
                    // A connection racing shutdown is accepted and
                    // dropped; the loop exits via the flag check in
                    // `event_loop`.
                    if self.shared.shutting_down.load(Ordering::SeqCst) {
                        continue;
                    }
                    self.admit(sock);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn admit(&mut self, sock: TcpStream) {
        let _ = sock.set_nodelay(true);
        if sock.set_nonblocking(true).is_err() {
            return;
        }
        let token = self.shared.next_token.fetch_add(1, Ordering::SeqCst);
        let interest = Events::EPOLLIN | Events::EPOLLRDHUP;
        if epoll::ctl(
            self.epfd,
            ControlOptions::EPOLL_CTL_ADD,
            sock.as_raw_fd(),
            Event::new(interest, token),
        )
        .is_err()
        {
            return;
        }
        self.shared.metrics.sessions_total.inc();
        self.shared.metrics.sessions.inc();
        self.conns.insert(
            token,
            Conn {
                sock,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                write_pos: 0,
                phase: Phase::Hello,
                owner: None,
                queries: Vec::new(),
                subscribed: HashSet::new(),
                pending_push: BTreeSet::new(),
                last_frame: Instant::now(),
                closing: false,
                gone: false,
                interest,
            },
        );
    }

    fn conn_ready(&mut self, token: u64, bits: Events) {
        if bits.intersects(Events::EPOLLERR | Events::EPOLLHUP) {
            self.hang_up(token);
            return;
        }
        if bits.contains(Events::EPOLLOUT) && !self.flush_write(token) {
            return;
        }
        // EPOLLRDHUP is a half-close, not a hangup: bytes the peer sent
        // before its FIN may still be queued (and deserve replies — a
        // final request, or a typed Protocol error for garbage), so it
        // routes through the read path, which consumes everything and
        // then sees the EOF. Tearing down here instead would close with
        // unread data in the receive queue, which TCP turns into an RST
        // that destroys the reply in flight.
        if bits.intersects(Events::EPOLLIN | Events::EPOLLRDHUP) {
            self.read_ready(token);
        }
    }

    /// The peer vanished. With no request executing the connection is
    /// torn down now; while one executes it is flagged so the completion
    /// handler runs the teardown. Every request finishes on its own (a
    /// `Feed` once the bounded input queues drain), so nothing needs
    /// forcing.
    fn hang_up(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.phase != Phase::Executing {
            self.teardown(token);
        } else if !conn.gone {
            conn.gone = true;
            self.shared.metrics.disconnect_reaps.inc();
        }
    }

    fn read_ready(&mut self, token: u64) {
        let mut eof = false;
        let closing = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let closing = conn.closing;
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.sock.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.shared.metrics.bytes_in.add(n as u64);
                        // A closing connection drains and discards: its
                        // goodbye frame is already queued, and leaving
                        // the bytes unread would turn the eventual
                        // close into an RST that could destroy it.
                        if !closing {
                            conn.read_buf.extend_from_slice(&chunk[..n]);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            closing
        };
        if closing {
            // The pending write (error/GoAway) still flushes through
            // EPOLLOUT; flush_write runs the teardown once it is idle.
            return;
        }
        self.advance(token);
        if eof {
            self.hang_up(token);
        }
    }

    /// Parse and act on every complete frame buffered so far. Called on
    /// read readiness *and* after each completion — level-triggered
    /// epoll will not re-fire for bytes already sitting in our buffer.
    fn advance(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing || conn.gone || conn.phase == Phase::Executing {
                break;
            }
            match decode(&conn.read_buf) {
                Ok(Some((frame, used))) => {
                    conn.read_buf.drain(..used);
                    conn.last_frame = Instant::now();
                    match conn.phase {
                        Phase::Hello => self.handshake(token, frame),
                        Phase::Ready => self.begin_dispatch(token, frame),
                        Phase::Executing => unreachable!("guarded above"),
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Malformed bytes — most importantly a WIRE_VERSION
                    // mismatch — get an explanatory typed error, not a
                    // silent close, so mixed-version deployments fail
                    // loudly (§9's rule).
                    self.shared.metrics.wire_errors.inc();
                    self.send(token, &error_frame(ErrorCode::Protocol, e.to_string()));
                    self.close_after_flush(token);
                    return;
                }
            }
        }
        self.update_interest(token);
    }

    /// The opening `Hello`: authenticate, mint the session's owner, and
    /// register its drain seat. Runs on the reactor — it is a string
    /// compare and two short lock holds, not worth a pool hop.
    fn handshake(&mut self, token: u64, frame: Frame) {
        self.shared.metrics.count_frame(frame.kind());
        let Frame::Hello { token: secret, .. } = frame else {
            self.send(
                token,
                &error_frame(ErrorCode::Protocol, "expected Hello".into()),
            );
            self.close_after_flush(token);
            return;
        };
        let auth = &self.shared.auth;
        if !auth.is_empty() && !secret.is_some_and(|s| auth.contains(&s)) {
            self.shared.metrics.auth_failures.inc();
            self.send(
                token,
                &error_frame(
                    ErrorCode::Unauthorized,
                    "unknown or missing auth token".into(),
                ),
            );
            self.close_after_flush(token);
            return;
        }
        let owner = self.shared.rt.write().new_owner();
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.owner = Some(owner);
            conn.phase = Phase::Ready;
            if let Ok(socket) = conn.sock.try_clone() {
                self.shared
                    .seats
                    .lock()
                    .unwrap()
                    .insert(token, Seat { socket });
            }
        }
        self.send(
            token,
            &Frame::HelloAck {
                server: concat!("streamsum-server/", env!("CARGO_PKG_VERSION")).into(),
                protocol: sgs_wire::WIRE_VERSION,
            },
        );
    }

    /// Hand one request to the dispatch pool. The connection stops
    /// reading until the completion comes back through the mailbox.
    fn begin_dispatch(&mut self, token: u64, frame: Frame) {
        let view = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let Some(owner) = conn.owner else {
                return;
            };
            conn.phase = Phase::Executing;
            SessionView {
                owner,
                queries: conn.queries.clone(),
                subscribed: conn.subscribed.clone(),
            }
        };
        let shared = self.shared.clone();
        let goodbye = matches!(frame, Frame::Goodbye);
        self.shared.dispatch.spawn(move || {
            let (reply, effect) = dispatch(&shared, &view, frame);
            shared.mailbox.completions.lock().unwrap().push(Completion {
                token,
                reply,
                effect,
                goodbye,
            });
            shared.mailbox.wake();
        });
    }

    /// Apply every queued dispatch completion: session-state effects,
    /// the reply bytes, and the re-parse of any requests that were
    /// already buffered while the request executed.
    fn apply_completions(&mut self) {
        let done: Vec<Completion> =
            std::mem::take(&mut *self.shared.mailbox.completions.lock().unwrap());
        for c in done {
            let (gone, closing) = {
                let Some(conn) = self.conns.get_mut(&c.token) else {
                    continue;
                };
                conn.phase = Phase::Ready;
                conn.last_frame = Instant::now();
                match c.effect {
                    Effect::None => {}
                    Effect::NewQuery(id) => conn.queries.push(id),
                    Effect::Subscribe(local) => {
                        if conn.subscribed.insert(local) {
                            self.shared.metrics.subscriptions.inc();
                        }
                        if let Some(&id) = conn.queries.get(local as usize) {
                            // Installing the hook fires it immediately
                            // if windows are already buffered, so the
                            // backlog lands in the mailbox we drain
                            // right after this.
                            let hook = output_hook(self.shared, c.token, local);
                            let _ = self.shared.rt.read().set_output_notify(id, Some(hook));
                        }
                    }
                    Effect::Unsubscribe(local) => {
                        if conn.subscribed.remove(&local) {
                            self.shared.metrics.subscriptions.dec();
                        }
                        conn.pending_push.remove(&local);
                        if let Some(&id) = conn.queries.get(local as usize) {
                            let _ = self.shared.rt.read().set_output_notify(id, None);
                        }
                    }
                }
                (conn.gone, conn.closing)
            };
            if gone {
                self.teardown(c.token);
                continue;
            }
            if closing {
                // A drain's GoAway is already queued; the reply of the
                // overlapping request is dropped, like the old server
                // answering a read tick with GoAway instead.
                self.close_after_flush(c.token);
                continue;
            }
            let fatal = matches!(
                c.reply,
                Frame::Error {
                    code: ErrorCode::Protocol,
                    ..
                }
            );
            self.send(c.token, &c.reply);
            if c.goodbye || fatal {
                self.close_after_flush(c.token);
                continue;
            }
            self.advance(c.token);
            self.try_push(c.token);
        }
    }

    /// Move queued output-buffer readiness into the owning connections
    /// and try to push.
    fn apply_pushes(&mut self) {
        let ready: BTreeSet<(u64, u64)> =
            std::mem::take(&mut *self.shared.mailbox.pushes.lock().unwrap());
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        for (token, local) in ready {
            if let Some(conn) = self.conns.get_mut(&token) {
                if conn.subscribed.contains(&local) {
                    conn.pending_push.insert(local);
                    touched.insert(token);
                }
            }
        }
        for token in touched {
            self.try_push(token);
        }
    }

    /// Push buffered windows of subscribed queries as unsolicited
    /// `Windows` frames, strictly gated by write readiness: a page is
    /// encoded only when the previous bytes are fully flushed, so a
    /// slow reader's windows wait in the runtime's bounded output
    /// buffer, not in server memory.
    fn try_push(&mut self, token: u64) {
        let mut pages = 0usize;
        loop {
            let (local, id) = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                // Only push between requests (`Ready`): while a request
                // executes its completion handler re-tries the push, so
                // from the peer's view a push never separates a request
                // it has fully delivered from that request's reply —
                // the client's demux only has to handle pushes racing
                // a request still in transit.
                if conn.closing || conn.gone || conn.phase != Phase::Ready || !conn.write_idle() {
                    break;
                }
                let Some(&local) = conn.pending_push.iter().next() else {
                    break;
                };
                match conn.queries.get(local as usize) {
                    Some(&id) => (local, id),
                    None => {
                        conn.pending_push.remove(&local);
                        continue;
                    }
                }
            };
            if pages >= PUSH_PAGES_PER_TURN {
                // Yield the reactor: re-queue through the mailbox (the
                // waker byte brings us straight back) so other ready
                // connections get their turn between pages.
                self.shared
                    .mailbox
                    .pushes
                    .lock()
                    .unwrap()
                    .insert((token, local));
                self.shared.mailbox.wake();
                break;
            }
            let page = {
                let rt = self.shared.rt.read();
                match take_page(&rt, id, 0) {
                    Ok(page) => page,
                    Err(_) => {
                        // Evicted mid-subscription: nothing to push.
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.pending_push.remove(&local);
                        }
                        continue;
                    }
                }
            };
            match page {
                Ok(windows) if windows.is_empty() => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.pending_push.remove(&local);
                    }
                }
                Ok(windows) => {
                    pages += 1;
                    self.shared.metrics.pushed_windows.add(windows.len() as u64);
                    self.send(
                        token,
                        &Frame::Windows {
                            query: local,
                            windows,
                        },
                    );
                }
                Err(oversized) => {
                    // A single window beyond the frame cap can never be
                    // delivered; unlike a poll (where the client decides),
                    // push mode must discard it or wedge forever.
                    let _ = self
                        .shared
                        .rt
                        .read()
                        .poll_page(id, 1, usize::MAX, usize::MAX);
                    self.send(
                        token,
                        &error_frame(
                            ErrorCode::Internal,
                            format!(
                                "window {} encodes beyond the frame cap — \
                                 discarded from the subscription",
                                oversized.0
                            ),
                        ),
                    );
                }
            }
        }
        self.update_interest(token);
    }

    /// Queue one frame's bytes and flush as far as the socket allows.
    fn send(&mut self, token: u64, frame: &Frame) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let before = conn.write_buf.len();
            if write_frame(&mut conn.write_buf, frame).is_err() {
                conn.write_buf.truncate(before);
                return;
            }
        }
        self.flush_write(token);
    }

    /// Write queued bytes until done or the socket would block. Returns
    /// `false` if the connection was torn down (dead peer, or a closing
    /// connection that finished flushing).
    fn flush_write(&mut self, token: u64) -> bool {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            while conn.write_pos < conn.write_buf.len() {
                match conn.sock.write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.write_pos += n;
                        self.shared.metrics.bytes_out.add(n as u64);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if conn.write_idle() {
                conn.write_buf.clear();
                conn.write_pos = 0;
            }
        }
        let (executing, closing, idle) = {
            let Some(conn) = self.conns.get(&token) else {
                return false;
            };
            (
                conn.phase == Phase::Executing,
                conn.closing,
                conn.write_idle(),
            )
        };
        if dead {
            self.hang_up(token);
            return false;
        }
        if closing && idle && !executing {
            self.teardown(token);
            return false;
        }
        self.update_interest(token);
        true
    }

    /// Mark the connection for close-after-flush and tear it down at
    /// once if nothing is left to write (and no request is in flight).
    fn close_after_flush(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.closing = true;
        }
        self.flush_write(token);
    }

    /// Reconcile the epoll interest set with the connection's state:
    /// read interest while parsing is welcome, write interest only
    /// while bytes wait, hangup interest always.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut want = Events::EPOLLRDHUP;
        if conn.phase != Phase::Executing && !conn.closing {
            want |= Events::EPOLLIN;
        }
        if !conn.write_idle() {
            want |= Events::EPOLLOUT;
        }
        if want != conn.interest
            && epoll::ctl(
                self.epfd,
                ControlOptions::EPOLL_CTL_MOD,
                conn.sock.as_raw_fd(),
                Event::new(want, token),
            )
            .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Announce the drain: `GoAway` to every session, then close each
    /// once its bytes are flushed. Connections mid-request finish their
    /// dispatch first (the completion handler closes them).
    fn goaway_all(&mut self) {
        self.goaway_sent = true;
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let already_closing = match self.conns.get(&token) {
                Some(conn) => conn.closing,
                None => continue,
            };
            if already_closing {
                continue;
            }
            self.shared.metrics.goaways.inc();
            self.send(token, &goaway_frame(self.shared));
            self.close_after_flush(token);
        }
    }

    /// Close sessions whose idle deadline passed (subscribers exempt).
    fn check_idle(&mut self) {
        let Some(idle) = self.shared.limits.idle_timeout else {
            return;
        };
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.idle_deadline(idle).is_some_and(|d| now >= d))
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            self.shared.metrics.idle_timeouts.inc();
            self.send(token, &idle_timeout_frame(self.shared));
            self.close_after_flush(token);
        }
    }

    /// Remove the connection and run the session teardown (cancel the
    /// owner's live queries, evict the dead entries, release the drain
    /// seat) on the dispatch pool — cancels wait for backlog drains and
    /// must never stall the reactor.
    fn teardown(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = epoll::ctl(
            self.epfd,
            ControlOptions::EPOLL_CTL_DEL,
            conn.sock.as_raw_fd(),
            Event::default(),
        );
        // Discard any bytes that raced the close decision: closing with
        // unread data in the receive queue makes TCP answer with an RST,
        // which can destroy a reply (e.g. the typed Protocol error) the
        // peer has not read yet. Best-effort and non-blocking.
        let mut chunk = [0u8; 4096];
        while matches!(conn.sock.read(&mut chunk), Ok(1..)) {}
        self.shared.metrics.sessions.dec();
        if !conn.subscribed.is_empty() {
            self.shared
                .metrics
                .subscriptions
                .add(-(conn.subscribed.len() as i64));
            // Silence the notify hooks so late output wakes stop
            // landing in the mailbox for a connection that is gone.
            let rt = self.shared.rt.read();
            for &local in &conn.subscribed {
                if let Some(&id) = conn.queries.get(local as usize) {
                    let _ = rt.set_output_notify(id, None);
                }
            }
        }
        let Some(owner) = conn.owner else {
            // Pre-handshake connection: no owner, no seat, no queries.
            return;
        };
        let shared = self.shared.clone();
        self.shared.dispatch.spawn(move || {
            // Begin every cancel under one short write-lock hold, then
            // wait for the drains with the lock released — a big
            // backlog must not stall the other sessions (the same
            // no-deadlock order as Runtime::shutdown).
            let pending: Vec<_> = {
                let mut rt = shared.rt.write();
                rt.queries_for(owner)
                    .into_iter()
                    .filter(|d| d.state != QueryState::Cancelled)
                    .filter_map(|d| rt.cancel_begin(d.id).ok())
                    .collect()
            };
            for cancel in pending {
                let _ = cancel.wait();
            }
            // Evict the dead entries (and their undrained output
            // buffers): a server living through thousands of
            // connect/feed/disconnect cycles must not accumulate
            // registry garbage per past session.
            shared.rt.write().evict_cancelled(owner);
            // Leave the seat last: an empty registry tells the drain
            // that no session state remains in the runtime.
            shared.vacate(token);
        });
    }
}

/// The notify hook a subscription installs on its query's output
/// buffer: record "this buffer has news" in the mailbox and nudge the
/// reactor. Runs on whatever thread pushed the window — it must not
/// block and must not call back into the runtime, and it does neither.
fn output_hook(shared: &Arc<Shared>, token: u64, local: u64) -> sgs_runtime::OutputNotify {
    let shared = shared.clone();
    Arc::new(move || {
        shared.mailbox.pushes.lock().unwrap().insert((token, local));
        shared.mailbox.wake();
    })
}

/// Drain the self-pipe: the byte count is meaningless (many wakes
/// coalesce); emptying it re-arms the level-triggered readiness.
fn drain_waker(waker: &UnixStream) {
    let mut buf = [0u8; 256];
    loop {
        match (&*waker).read(&mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}
