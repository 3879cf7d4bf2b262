//! Transport-chaos suite (`DESIGN.md` §12): a fault-injecting TCP proxy
//! built on [`FaultTransport`] sits between a real `sgs-client` and a
//! real `sgs-server`, and a sweep drives the **same scripted session**
//! (hello → detect → feed → quiesce → poll → stats → metrics → goodbye)
//! while moving one fault — a mid-stream cut, a flipped bit, or a long
//! stall — through every byte position of both directions.
//!
//! The property under test is not "the session succeeds" (most faulted
//! runs must fail) but that every failure is **typed and bounded**: the
//! client returns a [`ClientError`] instead of hanging or panicking, the
//! server survives to serve the next session, and malformed bytes that
//! reach it are answered with a typed `Protocol` error (counted by
//! `sgs_server_wire_errors_total`), never a desync.
//!
//! Tier-1 runs a stride-sampled sweep; `SGS_FAULT_SWEEP=full` (the CI
//! `chaos` job) sweeps ~5× denser, mirroring `archive_roundtrip.rs`.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streamsum::client::ClientConfig;
use streamsum::prelude::*;
use streamsum::wire::{Fault, FaultKind, FaultTransport};

const DETECT: &str = "DETECT DensityBasedClusters f+s FROM gmti \
                      USING theta_range = 0.6 AND theta_cnt = 6 \
                      IN Windows WITH win = 200 AND slide = 50";

/// Per-call deadline of faulted runs: long enough for the small clean
/// workload, short enough that a sweep full of stalled reads stays fast.
const FAULT_TIMEOUT: Duration = Duration::from_millis(800);

fn points() -> Vec<Point> {
    generate_gmti(&GmtiConfig {
        n_records: 600,
        ..GmtiConfig::default()
    })
}

fn start_server() -> (SocketAddr, ServerHandle) {
    let mut config = ServerConfig::default();
    // Metrics on, so the sweep can assert its corrupted frames were
    // counted as typed wire errors.
    config.runtime.metrics = true;
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    std::thread::spawn(move || server.run());
    (addr, handle)
}

/// The canonical session: one of every request kind a working analyst
/// session issues, all under `timeout`. Any step's failure propagates —
/// the sweep asserts on the *type* of that failure.
fn scripted_session(
    addr: SocketAddr,
    stream: &[Point],
    timeout: Duration,
) -> Result<(), ClientError> {
    let config = ClientConfig {
        request_timeout: Some(timeout),
        connect_timeout: Some(timeout.max(Duration::from_secs(2))),
        auth_token: None,
    };
    let mut client = Session::connect_with(addr, config)?;
    let q = client.detect(DETECT)?;
    client.feed("gmti", stream)?;
    client.quiesce()?;
    let windows = client.query(q).poll(0)?;
    let stats = client.query(q).stats()?;
    if stats.stats.windows != windows.len() as u64 {
        return Err(ClientError::Unexpected("stats disagree with poll"));
    }
    client.metrics()?;
    client.goodbye()
}

/// One direction of the proxy: move bytes `src → dst` through a
/// [`FaultTransport`], then slam both sockets shut so the peers see the
/// fault as a prompt EOF rather than a silent half-open connection.
fn pump(
    mut src: TcpStream,
    dst: TcpStream,
    fault: Option<Fault>,
    chop: Option<usize>,
    moved: Arc<AtomicU64>,
) {
    let mut out = FaultTransport::new(dst.try_clone().expect("clone proxy socket"));
    if let Some(fault) = fault {
        out = out.with_write_fault(fault);
    }
    if let Some(n) = chop {
        out = out.with_write_chop(n);
    }
    let mut buf = [0u8; 4096];
    loop {
        match src.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if out.write_all(&buf[..n]).is_err() {
                    break;
                }
                moved.fetch_add(n as u64, Ordering::SeqCst);
            }
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

/// Start a one-connection proxy in front of `server`, with at most one
/// fault per direction. Returns the address to dial and the two byte
/// counters (client→server, server→client).
fn start_proxy(
    server: SocketAddr,
    c2s: Option<Fault>,
    s2c: Option<Fault>,
    chop: Option<usize>,
) -> (SocketAddr, Arc<AtomicU64>, Arc<AtomicU64>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let c2s_bytes = Arc::new(AtomicU64::new(0));
    let s2c_bytes = Arc::new(AtomicU64::new(0));
    let (c2s_moved, s2c_moved) = (c2s_bytes.clone(), s2c_bytes.clone());
    std::thread::spawn(move || {
        let Ok((client_side, _)) = listener.accept() else {
            return;
        };
        let Ok(server_side) = TcpStream::connect(server) else {
            let _ = client_side.shutdown(Shutdown::Both);
            return;
        };
        let (c_in, s_out) = (
            client_side.try_clone().expect("clone"),
            server_side.try_clone().expect("clone"),
        );
        // The pump threads own the teardown: whichever direction dies
        // first shuts both sockets, which ends the other pump too.
        std::thread::spawn(move || pump(c_in, s_out, c2s, chop, c2s_moved));
        pump(server_side, client_side, s2c, chop, s2c_moved);
    });
    (addr, c2s_bytes, s2c_bytes)
}

/// Offsets to sweep: dense over the first bytes (length prefix, version,
/// kind — the hardest parsing territory), then strided across the rest
/// of the direction's clean byte total.
fn sweep_offsets(total: u64, samples: u64) -> Vec<u64> {
    let mut offsets: Vec<u64> = (0..8.min(total)).collect();
    let stride = (total / samples).max(1);
    offsets.extend((8..total).step_by(stride as usize));
    offsets
}

#[test]
fn fault_sweep_yields_typed_errors_and_a_healthy_server() {
    let stream = points();
    let (server_addr, handle) = start_server();

    // Clean run through the proxy, writes chopped to 3 bytes: the happy
    // path must survive arbitrary short writes, and its per-direction
    // byte totals define the sweep space.
    let (proxy, c2s_bytes, s2c_bytes) = start_proxy(server_addr, None, None, Some(3));
    scripted_session(proxy, &stream, Duration::from_secs(20))
        .expect("clean run through the chopping proxy");
    let totals = [
        c2s_bytes.load(Ordering::SeqCst),
        s2c_bytes.load(Ordering::SeqCst),
    ];
    assert!(totals[0] > 1000, "client sent a real workload: {totals:?}");
    assert!(totals[1] > 100, "server replied in kind: {totals:?}");

    let wire_errors_before = server_counter(server_addr, "sgs_server_wire_errors_total");

    let samples = if std::env::var("SGS_FAULT_SWEEP").as_deref() == Ok("full") {
        48
    } else {
        10
    };
    let mut runs = 0u32;
    let mut failures = 0u32;
    for (direction, &total) in totals.iter().enumerate() {
        for kind in [FaultKind::Cut, FaultKind::CorruptBit] {
            for at in sweep_offsets(total, samples) {
                let fault = Some(Fault { at, kind });
                let (c2s, s2c) = if direction == 0 {
                    (fault, None)
                } else {
                    (None, fault)
                };
                let (proxy, _, _) = start_proxy(server_addr, c2s, s2c, None);
                let started = Instant::now();
                let outcome = scripted_session(proxy, &stream, FAULT_TIMEOUT);
                // Typed and bounded: every outcome is a ClientError (the
                // type system guarantees "typed"); the deadline math
                // guarantees "no hang" — one scripted session is at most
                // eight exchanges, each under FAULT_TIMEOUT.
                assert!(
                    started.elapsed() < Duration::from_secs(30),
                    "dir {direction} {kind:?}@{at}: session failed to terminate promptly"
                );
                runs += 1;
                if outcome.is_err() {
                    failures += 1;
                }
            }
        }
    }
    // The sweep must have bitten: cuts at offset 0 kill the handshake,
    // so a sweep where nothing failed was not injecting faults.
    assert!(failures > 0, "no faulted run failed across {runs} runs");

    // A few stalls past the client's deadline: the client must time out
    // (or observe the post-stall cut), never wait indefinitely.
    for (direction, &total) in totals.iter().enumerate() {
        let at = total / 3;
        let fault = Some(Fault {
            at,
            kind: FaultKind::Stall(FAULT_TIMEOUT * 3),
        });
        let (c2s, s2c) = if direction == 0 {
            (fault, None)
        } else {
            (None, fault)
        };
        let (proxy, _, _) = start_proxy(server_addr, c2s, s2c, None);
        let started = Instant::now();
        let err = scripted_session(proxy, &stream, FAULT_TIMEOUT)
            .expect_err("a stalled transport must fail the session");
        assert!(
            err.is_transient(),
            "dir {direction} stall@{at}: expected a transient transport error, got {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "dir {direction} stall@{at}: deadline did not bound the stall"
        );
    }

    // The server lived through the whole sweep: a direct, unfaulted
    // session still runs end to end, and the corrupted frames the sweep
    // pushed at it were answered as typed wire errors, not crashes.
    scripted_session(server_addr, &stream, Duration::from_secs(20))
        .expect("server must stay healthy after the sweep");
    let wire_errors_after = server_counter(server_addr, "sgs_server_wire_errors_total");
    assert!(
        wire_errors_after > wire_errors_before,
        "corrupting the handshake's length prefix must register as wire errors \
         ({wire_errors_before} -> {wire_errors_after})"
    );
    handle.shutdown();
}

/// Read one server counter over the wire (the `metrics` request).
fn server_counter(addr: SocketAddr, name: &str) -> u64 {
    let mut client = Session::connect(addr).expect("metrics probe connects");
    let metrics = client.metrics().expect("metrics probe");
    let value = metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| match m.value {
            WireMetricValue::Counter(v) => v,
            _ => panic!("{name} is not a counter"),
        })
        .unwrap_or(0);
    let _ = client.goodbye();
    value
}
