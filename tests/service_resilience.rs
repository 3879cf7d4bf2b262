//! Service-layer resilience tests (`DESIGN.md` §12): typed fail-fast
//! connects, per-owner admission control (query / input-queue /
//! output-buffer quotas), idle-session reaping, the `GoAway` drain
//! protocol with durable-archive checkpointing, teardown of a session
//! killed mid-request, wire-garbage resistance of the live session loop,
//! and the byte-accounting pin between the runtime's quota costing and
//! the wire encoding.

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use streamsum::archive::{DurableConfig, DurablePatternBase};
use streamsum::client::ClientConfig;
use streamsum::prelude::*;
use streamsum::runtime::DurableArchive;
use streamsum::wire::{read_frame, ErrorCode, WireWindow};

const DETECT: &str = "DETECT DensityBasedClusters f+s FROM gmti \
                      USING theta_range = 0.6 AND theta_cnt = 6 \
                      IN Windows WITH win = 1000 AND slide = 250";

fn gmti(n: usize) -> Vec<Point> {
    generate_gmti(&GmtiConfig {
        n_records: n,
        ..GmtiConfig::default()
    })
}

fn start_server(config: ServerConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || {
        let _ = server.run();
    });
    (addr, handle, join)
}

fn quota_error(result: Result<impl std::fmt::Debug, ClientError>) -> String {
    match result {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::QuotaExceeded, "{message}");
            message
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
}

/// Poll one exact counter over the wire until it reaches `at_least`, or
/// fail after `deadline`.
fn await_counter(addr: SocketAddr, name: &str, at_least: u64, deadline: Duration) -> u64 {
    let end = Instant::now() + deadline;
    loop {
        let mut probe = Session::connect(addr).expect("counter probe connects");
        let value = probe
            .metrics()
            .expect("counter probe")
            .iter()
            .find(|m| m.name == name)
            .map(|m| match m.value {
                WireMetricValue::Counter(v) => v,
                _ => panic!("{name} is not a counter"),
            })
            .unwrap_or(0);
        let _ = probe.goodbye();
        if value >= at_least {
            return value;
        }
        assert!(
            Instant::now() < end,
            "{name} never reached {at_least} (last {value})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

// ---------------------------------------------------------------------------
// Fail-fast connects
// ---------------------------------------------------------------------------

#[test]
fn connecting_to_a_listener_that_never_answers_times_out() {
    // A bound listener that is never accepted from: the TCP connect
    // succeeds (kernel backlog), but the handshake read must trip the
    // connect deadline instead of hanging forever.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = ClientConfig {
        connect_timeout: Some(Duration::from_millis(300)),
        ..ClientConfig::default()
    };
    let started = Instant::now();
    match Session::connect_with(addr, config).map(|_| ()) {
        Err(ClientError::Timeout) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "connect deadline did not bound the handshake"
    );
}

#[test]
fn accept_then_close_fails_fast_with_a_typed_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        // Accept and immediately hang up, twice (the client may probe
        // more than once across address resolution).
        for _ in 0..2 {
            if let Ok((sock, _)) = listener.accept() {
                drop(sock);
            }
        }
    });
    match Session::connect(addr).map(|_| ()) {
        Err(ClientError::Closed) | Err(ClientError::ConnectionLost) => {}
        other => panic!("expected Closed/ConnectionLost, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Per-owner admission control
// ---------------------------------------------------------------------------

#[test]
fn owner_max_queries_caps_live_queries_per_session() {
    let config = ServerConfig {
        owner_max_queries: Some(2),
        ..ServerConfig::default()
    };
    let (addr, handle, _join) = start_server(config);
    let mut client = Session::connect(addr).unwrap();
    let q0 = client.detect(DETECT).unwrap();
    client.detect(DETECT).unwrap();
    let message = quota_error(client.detect(DETECT));
    assert!(message.contains("2 live queries"), "{message}");

    // The quota is per owner: another session still has its full budget.
    let mut other = Session::connect(addr).unwrap();
    other.detect(DETECT).unwrap();
    other.goodbye().unwrap();

    // Cancelling frees a slot.
    client.query(q0).cancel().unwrap();
    client.detect(DETECT).unwrap();
    client.goodbye().unwrap();
    handle.shutdown();
}

#[test]
fn owner_max_queue_bytes_rejects_an_oversized_feed_whole() {
    // gmti is 2-d: the runtime charges 16 + 8*2 = 32 bytes per queued
    // point, so 200 points (6400 bytes) overflow a 4096-byte cap while
    // 100 points (3200 bytes) fit.
    let config = ServerConfig {
        owner_max_queue_bytes: Some(4096),
        ..ServerConfig::default()
    };
    let (addr, handle, _join) = start_server(config);
    let mut client = Session::connect(addr).unwrap();
    let q = client.detect(DETECT).unwrap();

    let message = quota_error(client.feed("gmti", &gmti(200)));
    assert!(message.contains("input-queue limit of 4096"), "{message}");
    // Rejected whole: no partial batch reached the query.
    client.quiesce().unwrap();
    assert_eq!(client.query(q).stats().unwrap().stats.points, 0);

    // An in-budget batch is admitted normally.
    client.feed("gmti", &gmti(100)).unwrap();
    client.quiesce().unwrap();
    assert_eq!(client.query(q).stats().unwrap().stats.points, 100);
    client.goodbye().unwrap();
    handle.shutdown();
}

#[test]
fn owner_max_buffer_bytes_requires_polling_to_feed_again() {
    let config = ServerConfig {
        owner_max_buffer_bytes: Some(64),
        ..ServerConfig::default()
    };
    let (addr, handle, _join) = start_server(config);
    let mut client = Session::connect(addr).unwrap();
    let q = client.detect(DETECT).unwrap();

    // Build up unpolled windows well past the 64-byte cap.
    client.feed("gmti", &gmti(3000)).unwrap();
    client.quiesce().unwrap();
    assert!(client.query(q).stats().unwrap().stats.windows > 0);

    let message = quota_error(client.feed("gmti", &gmti(10)));
    assert!(message.contains("poll to release"), "{message}");

    // Draining the buffer releases the quota.
    let windows = client.query(q).poll(0).unwrap();
    assert!(!windows.is_empty());
    client.feed("gmti", &gmti(10)).unwrap();
    client.goodbye().unwrap();
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Idle timeout
// ---------------------------------------------------------------------------

#[test]
fn idle_sessions_are_closed_with_a_typed_error() {
    let mut config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    };
    config.runtime.metrics = true;
    let (addr, handle, _join) = start_server(config);

    let mut client = Session::connect(addr).unwrap();
    client.detect(DETECT).unwrap();
    // Go silent past the idle deadline; the server closes the session
    // with a typed Protocol error naming the timeout.
    std::thread::sleep(Duration::from_millis(700));
    match client.queries() {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Protocol);
            assert!(message.contains("idle timeout"), "{message}");
        }
        // The farewell frame can lose the race with the socket close.
        Err(ClientError::Closed) | Err(ClientError::ConnectionLost) => {}
        other => panic!("expected an idle-timeout close, got {other:?}"),
    }
    await_counter(
        addr,
        "sgs_server_idle_timeouts_total",
        1,
        Duration::from_secs(10),
    );
    handle.shutdown();
}

#[test]
fn an_idle_timeout_past_the_clock_means_no_deadline() {
    // No `Instant` lies `Duration::MAX` after a frame: the session never
    // idles out, and the reactor keeps serving it.
    let config = ServerConfig {
        idle_timeout: Some(Duration::MAX),
        ..ServerConfig::default()
    };
    let (addr, handle, _join) = start_server(config);
    let client_config = ClientConfig {
        connect_timeout: Some(Duration::from_secs(5)),
        request_timeout: Some(Duration::from_secs(5)),
        ..ClientConfig::default()
    };
    let mut client = Session::connect_with(addr, client_config).expect("Hello is answered");
    client.detect(DETECT).expect("the detect is answered");
    client.goodbye().unwrap();
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

#[test]
fn draining_notifies_idle_sessions_with_goaway_and_completes() {
    let (addr, handle, join) = start_server(ServerConfig::default());
    let mut client = Session::connect(addr).unwrap();
    client.detect(DETECT).unwrap();

    let drainer = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.drain(Duration::from_secs(5)).unwrap())
    };
    // The session notices the drain flag within one read tick and sends
    // GoAway unprompted; the client surfaces it on its next exchange.
    let end = Instant::now() + Duration::from_secs(5);
    loop {
        match client.queries() {
            Ok(_) => {
                assert!(Instant::now() < end, "server never started draining");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(ClientError::GoAway { reason, .. }) => {
                assert!(reason.contains("draining"), "{reason}");
                break;
            }
            // GoAway can lose the race with the socket teardown.
            Err(ClientError::Closed) | Err(ClientError::ConnectionLost) => break,
            Err(other) => panic!("expected GoAway, got {other:?}"),
        }
    }
    let forced = drainer.join().unwrap();
    assert_eq!(forced, 0, "an idle session must drain voluntarily");
    // Server::run returns once the drain completes.
    join.join().unwrap();
}

#[test]
fn draining_an_idle_server_with_an_unbounded_grace_returns_zero() {
    let (_addr, handle, join) = start_server(ServerConfig::default());
    assert_eq!(handle.drain(Duration::MAX).unwrap(), 0);
    join.join().unwrap();
}

/// Recursive copy, for snapshotting a durable archive directory.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

#[test]
fn drain_checkpoints_the_durable_archive_byte_identically() {
    let dir = std::env::temp_dir().join(format!("sgs-drain-archive-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServerConfig::default();
    config.runtime.durable_archive = Some(DurableArchive::at(dir.join("live")));
    let (addr, handle, join) = start_server(config);

    let mut client = Session::connect(addr).unwrap();
    let q = client.detect(DETECT).unwrap();
    client.feed("gmti", &gmti(4000)).unwrap();
    client.quiesce().unwrap();
    let archived = client.query(q).stats().unwrap().stats.archived;
    assert!(archived > 0, "workload must archive patterns");
    client.goodbye().unwrap();

    // Oracle: what WAL replay recovers from the pre-drain directory
    // (copied while quiescent, so the files are stable).
    let pre = dir.join("pre-drain");
    copy_dir(&dir.join("live/dim2"), &pre);
    let want = DurablePatternBase::open(&pre, DurableConfig::default())
        .expect("pre-drain recovery")
        .snapshot_bytes();

    let forced = handle.drain(Duration::from_secs(10)).unwrap();
    assert_eq!(forced, 0);
    join.join().unwrap();

    // The drain checkpointed the base; recovery from the checkpointed
    // store must be byte-identical to WAL-replay recovery.
    let post = dir.join("post-drain");
    copy_dir(&dir.join("live/dim2"), &post);
    let recovered =
        DurablePatternBase::open(&post, DurableConfig::default()).expect("post-drain recovery");
    assert_eq!(
        recovered.snapshot_bytes(),
        want,
        "checkpointed recovery diverged from WAL-replay recovery"
    );
    assert_eq!(recovered.len() as u64, archived);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A final checkpoint that fails reaches the drain's caller, after every
/// other dimension's base has still been checkpointed: a directory
/// squatting on the 2-d store's staging file fails its atomic write.
#[test]
fn a_failed_drain_checkpoint_reaches_the_caller() {
    let dir = std::env::temp_dir().join(format!("sgs-drain-fail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServerConfig::default();
    config.runtime.durable_archive = Some(DurableArchive::at(&dir));
    let (addr, handle, join) = start_server(config);

    let mut client = Session::connect(addr).unwrap();
    let q = client.detect(DETECT).unwrap();
    client
        .detect(
            "DETECT DensityBasedClusters f+s FROM stt USING theta_range = 0.6 \
             AND theta_cnt = 6 IN Windows WITH win = 1000 AND slide = 250",
        )
        .unwrap();
    client.feed("gmti", &gmti(3000)).unwrap();
    client.quiesce().unwrap();
    let archived = client.query(q).stats().unwrap().stats.archived;
    assert!(archived > 0, "workload must archive patterns");
    client.goodbye().unwrap();

    let squat = dir.join("dim2/base.store.tmp");
    std::fs::create_dir_all(&squat).unwrap();
    let err = handle
        .drain(Duration::from_secs(10))
        .expect_err("the failed checkpoint must reach the caller");
    assert!(matches!(err, RuntimeError::Archive(_)), "{err:?}");
    assert!(err.to_string().contains("archive I/O error"), "{err}");
    join.join().unwrap();
    assert!(
        dir.join("dim4/base.store").exists(),
        "the other dimension was not checkpointed"
    );

    // Nothing was lost: the WAL still holds every archived pattern.
    std::fs::remove_dir_all(&squat).unwrap();
    let recovered = DurablePatternBase::open(dir.join("dim2"), DurableConfig::default()).unwrap();
    assert_eq!(recovered.len() as u64, archived);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Teardown of a session killed mid-request
// ---------------------------------------------------------------------------

#[test]
fn a_session_killed_mid_feed_is_torn_down() {
    let mut config = ServerConfig::default();
    config.runtime.channel_capacity = 2;
    let (addr, handle, join) = start_server(config);

    // A raw protocol session (not the Client, which would insist on
    // reading the Feed ack): handshake, register, then one big Feed that
    // backs up the two-message input queue, and an abrupt close without
    // reading the ack. The kill may land mid-dispatch or after it.
    let mut raw = TcpStream::connect(addr).unwrap();
    write_raw(
        &mut raw,
        &Frame::Hello {
            client: "raw".into(),
            token: None,
        },
    );
    assert!(matches!(
        read_frame(&mut raw).unwrap(),
        Frame::HelloAck { .. }
    ));
    write_raw(
        &mut raw,
        &Frame::Submit {
            text: DETECT.into(),
        },
    );
    assert!(matches!(
        read_frame(&mut raw).unwrap(),
        Frame::Registered { .. }
    ));
    write_raw(
        &mut raw,
        &Frame::Feed {
            stream: "gmti".into(),
            points: gmti(6000),
        },
    );
    let _ = raw.shutdown(Shutdown::Both);
    drop(raw);

    // `Server::run` returns only after every session's teardown has
    // finished, so the join completing proves the killed session ended.
    let (done, finished) = std::sync::mpsc::channel();
    let teardown = std::thread::spawn(move || {
        handle.shutdown();
        join.join().unwrap();
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(15))
        .expect("the killed session's teardown never completed");
    teardown.join().unwrap();
}

fn write_raw(sock: &mut TcpStream, frame: &Frame) {
    sock.write_all(&frame.encode()).unwrap();
}

// ---------------------------------------------------------------------------
// Wire-garbage resistance of the live session loop
// ---------------------------------------------------------------------------

/// One long-lived server shared by all garbage cases (the property is
/// precisely that it survives them all).
fn garbage_target() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let (addr, _handle, _join) = start_server(ServerConfig::default());
        addr
    })
}

proptest! {
    /// Arbitrary bytes pushed at a live session — before or after a
    /// valid handshake — never wedge the server, never tear a reply
    /// frame, and leave it healthy for the next (well-formed) session.
    #[test]
    fn wire_garbage_never_wedges_or_desyncs_the_server(
        garbage in prop::collection::vec(0u8..255, 1..1500),
        after_hello in 0u8..2,
    ) {
        let addr = garbage_target();
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        if after_hello == 1 {
            sock.write_all(&Frame::Hello { client: "garbage".into(), token: None }.encode()).unwrap();
            let ack = read_frame(&mut sock).unwrap();
            prop_assert!(matches!(ack, Frame::HelloAck { .. }));
        }
        // Send the garbage, then half-close so the server sees EOF once
        // it has consumed everything it can parse.
        let _ = sock.write_all(&garbage);
        let _ = sock.shutdown(Shutdown::Write);

        // Everything the server says back must be complete, well-formed
        // frames — by far most often a typed Protocol error, possibly
        // replies to bytes that happened to parse, never a torn frame.
        let mut replies = Vec::new();
        loop {
            match read_frame(&mut sock) {
                Ok(frame) => replies.push(frame),
                Err(streamsum::wire::RecvError::Closed) => break,
                Err(e) => panic!("server reply was not clean frames: {e:?}"),
            }
        }
        drop(sock);

        // The server took the garbage in stride: a fresh, well-formed
        // session still works.
        let mut probe = Session::connect(addr).unwrap();
        prop_assert!(probe.queries().unwrap().is_empty());
        probe.goodbye().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Quota costing ↔ wire encoding pin
// ---------------------------------------------------------------------------

#[test]
fn output_buffer_byte_accounting_matches_the_wire_encoding() {
    // The runtime's per-window quota cost (`window_cost`, used by
    // `output_bytes_for` and by every page budget) restates the
    // `Windows` body grammar without a crate dependency; this test pins
    // it to the frame encoder itself, one window at a time.
    let mut rt = Runtime::new();
    rt.register_stream("gmti", 2);
    let owner = rt.new_owner();
    let QueryPlan::Detect(plan) = rt.plan(DETECT).unwrap() else {
        panic!("expected a DETECT plan");
    };
    let id = rt.submit_detect(*plan, Some(owner)).unwrap();
    rt.push_batch(&gmti(3000)).unwrap();
    rt.quiesce().unwrap();

    let accounted = rt.output_bytes_for(owner);
    assert!(accounted > 0, "workload must buffer windows");
    let windows = rt.poll(id).unwrap();
    assert!(windows.iter().any(|(_, clusters)| !clusters.is_empty()));
    // Frame overhead around the window sequence: 4 length prefix +
    // version + kind + query u64 + window count u32.
    let overhead = 4 + 1 + 1 + 8 + 4;
    let encoded: usize = windows
        .iter()
        .map(|(window, clusters)| {
            let frame = Frame::Windows {
                query: 0,
                windows: vec![WireWindow {
                    window: *window,
                    clusters: clusters.clone(),
                }],
            };
            frame.encode().len() - overhead
        })
        .sum();
    assert_eq!(
        accounted, encoded,
        "runtime window_cost diverged from the Windows frame encoding"
    );
    assert_eq!(rt.output_bytes_for(owner), 0, "poll must release the bytes");
}
