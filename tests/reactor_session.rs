//! Reactor front-end tests: many mostly-idle server-push subscribers on
//! a small fixed thread budget, plus the tenancy refusals (`DESIGN.md`
//! §14).
//!
//! The thread-per-session front-end would need one OS thread per
//! subscriber; the reactor parks idle sessions for free, so 256
//! concurrent subscriptions ride on one reactor thread plus a
//! fixed-size dispatch pool — and every subscriber still receives its
//! windows byte-identical to a solo in-process [`Runtime`] run.

use std::sync::Barrier;
use std::time::Duration;

use streamsum::prelude::*;
use streamsum::wire::WireWindow;

const DETECT: &str = "DETECT DensityBasedClusters f+s FROM gmti \
                      USING theta_range = 0.6 AND theta_cnt = 6 \
                      IN Windows WITH win = 200 AND slide = 100";

fn gmti(n: usize) -> Vec<Point> {
    generate_gmti(&GmtiConfig {
        n_records: n,
        ..GmtiConfig::default()
    })
}

fn start_server(config: ServerConfig) -> (std::net::SocketAddr, ServerHandle) {
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Canonical bytes of a window sequence (one `Windows` frame with the
/// query id normalized away), for byte-identity comparisons between
/// pushed, polled, and solo-run outputs.
fn window_bytes(windows: &[(WindowId, WindowOutput)]) -> Vec<u8> {
    Frame::Windows {
        query: 0,
        windows: windows
            .iter()
            .map(|(window, clusters)| WireWindow {
                window: *window,
                clusters: clusters.clone(),
            })
            .collect(),
    }
    .encode()
}

/// 256 concurrent subscribers, all parked on the reactor at once, on a
/// server whose worker budget is 8 threads (4 dispatch + a 4-worker
/// runtime pool; the reactor itself is the single front-end thread).
/// Every subscriber's pushed windows are byte-identical to a solo
/// `Runtime` over the same statement and stream.
#[test]
fn fanout_256_idle_subscribers_push_byte_identical_windows() {
    const SESSIONS: usize = 256;
    let stream = gmti(600);

    // Ground truth: a solo in-process Runtime over the same plan + data.
    let expected = {
        let mut rt = Runtime::new();
        rt.register_stream("gmti", 2);
        let Submission::Continuous(id) = rt.submit(DETECT).unwrap() else {
            panic!("expected a continuous registration");
        };
        rt.push_batch(&stream).unwrap();
        rt.quiesce().unwrap();
        let windows = rt.poll(id).unwrap();
        assert!(!windows.is_empty());
        (windows.len(), window_bytes(&windows))
    };

    let mut config = ServerConfig {
        dispatch_threads: 4,
        ..ServerConfig::default()
    };
    config.runtime.pool_threads = PoolThreads::Fixed(4);
    config.runtime.metrics = true;
    let (addr, handle) = start_server(config);

    // Every session feeds its own copy of the stream (feeds route to
    // the feeding owner's queries only), quiesces, then subscribes —
    // the subscription pushes the backlog, so each session's windows
    // arrive as unsolicited `Windows` frames, not poll replies. The
    // barrier holds all 256 subscriptions open concurrently before any
    // session starts draining: the reactor must park them all at once.
    let barrier = Barrier::new(SESSIONS);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..SESSIONS)
            .map(|_| {
                let (stream, barrier, expected) = (&stream, &barrier, &expected);
                scope.spawn(move || {
                    let mut client = Session::connect(addr).unwrap();
                    let q = client.detect(DETECT).unwrap();
                    client.feed("gmti", stream).unwrap();
                    client.quiesce().unwrap();
                    let mut sub = client.subscribe(q).unwrap();
                    barrier.wait();
                    let mut got: Vec<(WindowId, WindowOutput)> = Vec::new();
                    while got.len() < expected.0 {
                        let batch = sub
                            .wait_windows(Duration::from_secs(60))
                            .unwrap()
                            .expect("push stream went quiet before all windows arrived");
                        got.extend(batch);
                    }
                    assert_eq!(got.len(), expected.0);
                    assert_eq!(window_bytes(&got), expected.1, "pushed windows diverged");
                    let leftover = sub.unsubscribe().unwrap();
                    assert!(leftover.is_empty(), "windows pushed past the full set");
                    client.goodbye().unwrap();
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
    });

    // The reactor's observability contract: wakeups and pushed frames
    // are counted (the whole test is in-process, so the server snapshot
    // includes the client-side registry too).
    let mut probe = Session::connect(addr).unwrap();
    let metrics = probe.metrics().unwrap();
    let counter = |name: &str| {
        metrics
            .iter()
            .find_map(|m| match (&m.value, m.name.as_str()) {
                (WireMetricValue::Counter(v), n) if n == name => Some(*v),
                _ => None,
            })
            .unwrap_or_else(|| panic!("metric {name} missing from snapshot"))
    };
    assert!(counter("sgs_server_reactor_wakeups_total") > 0);
    assert!(counter("sgs_server_pushed_windows_total") >= (SESSIONS * expected.0) as u64);
    assert!(counter("sgs_client_subscribes_total") >= SESSIONS as u64);
    assert!(counter("sgs_client_pushed_windows_total") >= (SESSIONS * expected.0) as u64);
    probe.goodbye().unwrap();

    handle.shutdown();
}

/// A server with auth tokens refuses a missing or wrong credential with
/// the typed `Unauthorized` error, and accepts the right one.
#[test]
fn auth_refusals_are_typed_and_the_right_token_is_accepted() {
    let config = ServerConfig {
        auth_tokens: vec!["sesame".into()],
        ..ServerConfig::default()
    };
    let (addr, handle) = start_server(config);

    // No token: refused at the handshake with the typed code.
    let err = Session::connect(addr).unwrap_err();
    assert!(err.is_unauthorized(), "expected Unauthorized, got {err:?}");

    // Wrong token: same refusal.
    let err =
        Session::connect_with(addr, ClientConfig::new().with_auth_token("wrong")).unwrap_err();
    assert!(err.is_unauthorized(), "expected Unauthorized, got {err:?}");

    // Right token: a fully working session.
    let mut client =
        Session::connect_with(addr, ClientConfig::new().with_auth_token("sesame")).unwrap();
    let q = client.detect(DETECT).unwrap();
    client.feed("gmti", &gmti(300)).unwrap();
    client.quiesce().unwrap();
    assert!(!client.query(q).poll(0).unwrap().is_empty());
    client.goodbye().unwrap();

    handle.shutdown();
}

/// Owner quotas refuse with the typed `QuotaExceeded` code and leave
/// the session usable: releasing quota (cancelling a query) makes the
/// refused request succeed.
#[test]
fn quota_refusal_is_typed_and_recoverable() {
    let config = ServerConfig {
        owner_max_queries: Some(2),
        ..ServerConfig::default()
    };
    let (addr, handle) = start_server(config);

    let mut client = Session::connect(addr).unwrap();
    let q0 = client.detect(DETECT).unwrap();
    let _q1 = client.detect(DETECT).unwrap();
    let err = client.detect(DETECT).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: streamsum::wire::ErrorCode::QuotaExceeded,
                ..
            }
        ),
        "expected QuotaExceeded, got {err:?}"
    );

    // The refusal is not fatal: free a slot and the same statement
    // registers.
    client.query(q0).cancel().unwrap();
    let q2 = client.detect(DETECT).unwrap();
    assert!(q2 > q0);
    client.goodbye().unwrap();

    handle.shutdown();
}
