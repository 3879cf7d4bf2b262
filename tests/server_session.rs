//! In-process loopback tests of the network front-end: a real
//! `sgs-server` on a loopback TCP port, driven by real `sgs-client`
//! sessions — proving the wire path preserves the runtime's isolation
//! and determinism guarantees (`DESIGN.md` §9).

use std::collections::BTreeSet;
use std::time::Duration;

use streamsum::prelude::*;
use streamsum::wire::WireWindow;

const DETECT: &str = "DETECT DensityBasedClusters f+s FROM gmti \
                      USING theta_range = 0.6 AND theta_cnt = 6 \
                      IN Windows WITH win = 1000 AND slide = 250";

fn gmti(n: usize) -> Vec<Point> {
    generate_gmti(&GmtiConfig {
        n_records: n,
        ..GmtiConfig::default()
    })
}

/// Start an in-process server on a loopback port, returning its address
/// and a shutdown handle (the accept loop runs on a background thread).
fn start_server() -> (std::net::SocketAddr, ServerHandle) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Canonical bytes of a polled window set (one `Windows` frame), for
/// byte-identity comparisons across sessions and against solo runs.
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

/// Ground truth: the canonical bytes of a solo in-process Runtime's
/// windows over the same plan and data.
fn solo_run(stream: &[Point]) -> Vec<u8> {
    let mut rt = Runtime::new();
    rt.register_stream("gmti", 2);
    let Submission::Continuous(id) = rt.submit(DETECT).unwrap() else {
        panic!("expected a continuous registration");
    };
    rt.push_batch(stream).unwrap();
    rt.quiesce().unwrap();
    let windows = rt.poll(id).unwrap();
    assert!(!windows.is_empty());
    window_bytes(&windows)
}

#[test]
fn concurrent_sessions_are_isolated_and_byte_identical_to_a_solo_run() {
    let stream = gmti(4000);

    let expected = solo_run(&stream);

    let (addr, handle) = start_server();
    // Two concurrent sessions, each replaying the same stream into its
    // own query namespace.
    let outcomes: Vec<(u64, Vec<u8>, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let stream = &stream;
                scope.spawn(move || {
                    let mut client = Session::connect(addr).unwrap();
                    let q = client.detect(DETECT).unwrap();
                    client.feed("gmti", stream).unwrap();
                    client.quiesce().unwrap();
                    let windows = client.query(q).poll(0).unwrap();
                    let stats = client.query(q).stats().unwrap();
                    assert_eq!(stats.stats.points, stream.len() as u64);
                    assert_eq!(stats.stats.windows, windows.len() as u64);
                    // The session sees exactly its own registry.
                    let listing = client.queries().unwrap();
                    assert_eq!(listing.len(), 1);
                    assert_eq!(listing[0].query, q);
                    let report = client.query(q).cancel().unwrap();
                    assert_eq!(report.points, stream.len() as u64);
                    client.goodbye().unwrap();
                    (q, window_bytes(&windows), stats.stats.windows)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    handle.shutdown();

    // Isolated namespaces: both sessions own a query named Q0.
    let ids: BTreeSet<u64> = outcomes.iter().map(|(q, _, _)| *q).collect();
    assert_eq!(ids, BTreeSet::from([0]), "each session numbers from Q0");
    // Determinism across the wire: every session's windows are
    // byte-identical to the solo in-process run.
    for (_, bytes, windows) in &outcomes {
        assert!(*windows > 0);
        assert_eq!(
            bytes, &expected,
            "remote windows diverged from the solo run"
        );
    }
}

#[test]
fn cross_session_handles_do_not_resolve_and_bad_requests_fail_cleanly() {
    let (addr, handle) = start_server();
    let mut alice = Session::connect(addr).unwrap();
    let mut bob = Session::connect(addr).unwrap();

    let qa = alice.detect(DETECT).unwrap();
    assert_eq!(qa, 0);
    // Bob never registered anything: Alice's Q0 does not resolve in his
    // session, so he can neither read nor cancel her query.
    for result in [
        bob.query(0).poll(0).map(|_| ()),
        bob.query(0).cancel().map(|_| ()),
    ] {
        match result {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, streamsum::wire::ErrorCode::UnknownQuery)
            }
            other => panic!("expected UnknownQuery, got {other:?}"),
        }
    }
    assert!(bob.queries().unwrap().is_empty());

    // Unknown stream and dimension mismatches are rejected with their
    // own codes, and the session stays usable afterwards.
    match alice.feed("nope", &gmti(10)) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, streamsum::wire::ErrorCode::UnknownStream)
        }
        other => panic!("expected UnknownStream, got {other:?}"),
    }
    let bad = vec![Point::new(vec![0.0, 0.0, 0.0], 0)];
    match alice.feed("gmti", &bad) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, streamsum::wire::ErrorCode::Dimension)
        }
        other => panic!("expected Dimension, got {other:?}"),
    }
    // A bad statement reports a Plan error without killing the session.
    match alice.submit("DETECT gibberish") {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, streamsum::wire::ErrorCode::Plan)
        }
        other => panic!("expected Plan error, got {other:?}"),
    }
    alice.feed("gmti", &gmti(100)).unwrap();
    alice.quiesce().unwrap();
    assert_eq!(alice.query(qa).stats().unwrap().stats.points, 100);

    alice.goodbye().unwrap();
    bob.goodbye().unwrap();
    handle.shutdown();
}

/// Run `DETECT` over 5 000 GMTI points and bind the largest cluster of
/// the latest windows as `Cnow`; its twin is in the shared history.
fn bind_an_archived_cluster(client: &mut Session) {
    let q = client.detect(DETECT).unwrap();
    client.feed("gmti", &gmti(5000)).unwrap();
    client.quiesce().unwrap();
    let windows = client.query(q).poll(0).unwrap();
    let cluster = windows
        .iter()
        .rev()
        .flat_map(|(_, clusters)| clusters.iter())
        .max_by_key(|c| c.population())
        .expect("some cluster extracted")
        .sgs
        .clone();
    client.bind("Cnow", &cluster).unwrap();
}

#[test]
fn matching_statements_run_against_the_shared_history_over_the_wire() {
    let (addr, handle) = start_server();
    let mut client = Session::connect(addr).unwrap();
    bind_an_archived_cluster(&mut client);
    let Submitted::Matches {
        candidates,
        matches,
        ..
    } = client
        .submit(
            "GIVEN DensityBasedClusters Cnow \
             SELECT DensityBasedClusters Cpast FROM History \
             WHERE Distance(Cnow, Cpast) <= 0.25",
        )
        .unwrap()
    else {
        panic!("expected immediate match execution");
    };
    assert!(candidates > 0);
    assert!(
        !matches.is_empty(),
        "the archived twin of the bound cluster must match"
    );
    // An unbound GIVEN name is its own error class.
    match client.submit(
        "GIVEN DensityBasedClusters Ghost \
         SELECT DensityBasedClusters Cpast FROM History \
         WHERE Distance(Ghost, Cpast) <= 0.25",
    ) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, streamsum::wire::ErrorCode::UnknownBinding)
        }
        other => panic!("expected UnknownBinding, got {other:?}"),
    }
    client.goodbye().unwrap();
    handle.shutdown();
}

/// A session whose every request fails with `Timeout` after 10 s instead
/// of waiting forever.
fn connect_with_deadline(addr: std::net::SocketAddr) -> Session {
    Session::connect_with(
        addr,
        ClientConfig {
            request_timeout: Some(std::time::Duration::from_secs(10)),
            ..ClientConfig::new()
        },
    )
    .unwrap()
}

/// Just below 0.25, under equal weights, every admissible feature range
/// is bounded but reaches 2 500 times the query's own value: the
/// filter's cost must not follow the width of the ranges.
#[test]
fn a_loose_threshold_answers_promptly_over_the_wire() {
    let (addr, handle) = start_server();
    let mut client = connect_with_deadline(addr);
    bind_an_archived_cluster(&mut client);
    let Submitted::Matches { matches, .. } = client
        .submit(
            "GIVEN DensityBasedClusters Cnow \
             SELECT DensityBasedClusters Cpast FROM History \
             WHERE Distance(Cnow, Cpast) <= 0.2499",
        )
        .unwrap()
    else {
        panic!("expected immediate match execution");
    };
    assert!(
        matches.iter().any(|m| m.distance == 0.0),
        "the archived twin of the bound cluster must match"
    );
    client.goodbye().unwrap();
    handle.shutdown();
}

/// A bound summary at the edge of the coordinate range is matched, not
/// panicked on: the MATCH gets its reply and the session stays usable.
#[test]
fn a_summary_at_the_coordinate_limit_matches_without_wedging_the_session() {
    use streamsum::summarize::{CellStatus, CellsBuilder};

    let (addr, handle) = start_server();
    let mut client = connect_with_deadline(addr);
    client.detect(DETECT).unwrap();
    let mut list = CellsBuilder::default();
    list.push(&[i32::MAX, 0], 1, CellStatus::Edge, []);
    let edge = Sgs {
        dim: 2,
        side: 1.0,
        level: 0,
        cells: list.build(),
    };
    client.bind("Cedge", &edge).unwrap();
    let reply = client.submit(
        "GIVEN DensityBasedClusters Cedge \
         SELECT DensityBasedClusters Cpast FROM History \
         WHERE Distance(Cedge, Cpast) <= 0.2 USING ps = 1",
    );
    assert!(
        matches!(reply, Ok(Submitted::Matches { .. })),
        "expected a match reply, got {reply:?}"
    );
    assert_eq!(client.queries().unwrap().len(), 1);
    client.goodbye().unwrap();
    handle.shutdown();
}

#[test]
fn poll_max_pages_through_buffered_windows() {
    let (addr, handle) = start_server();
    let mut client = Session::connect(addr).unwrap();
    let q = client.detect(DETECT).unwrap();
    client.feed("gmti", &gmti(3000)).unwrap();
    client.quiesce().unwrap();
    let total = client.query(q).stats().unwrap().stats.windows;
    assert!(total > 2);
    let first = client.query(q).poll(2).unwrap();
    assert_eq!(first.len(), 2);
    let rest = client.query(q).poll(0).unwrap();
    assert_eq!(rest.len() as u64, total - 2);
    let ids: Vec<u64> = first.iter().chain(rest.iter()).map(|(w, _)| w.0).collect();
    assert_eq!(ids, (0..total).collect::<Vec<_>>(), "oldest first, no gaps");
    client.goodbye().unwrap();
    handle.shutdown();
}

/// Windows a dropped subscription handle never yielded are not lost: a
/// re-subscribed handle picks up exactly where the first one stopped.
#[test]
fn a_dropped_subscription_resumes_where_it_stopped() {
    let stream = gmti(4000);
    let expected = solo_run(&stream);
    let (addr, handle) = start_server();
    let mut client = Session::connect(addr).unwrap();
    let q = client.detect(DETECT).unwrap();
    client.feed("gmti", &stream).unwrap();
    client.quiesce().unwrap();
    let total = client.query(q).stats().unwrap().stats.windows as usize;
    assert!(total > 3, "need windows left after the first handle");

    let mut got: Vec<(WindowId, WindowOutput)> = Vec::new();
    {
        let mut sub = client.subscribe(q).unwrap();
        for pushed in sub.by_ref().take(3) {
            got.push(pushed.unwrap());
        }
    }
    let mut sub = client.subscribe(q).unwrap();
    while got.len() < total {
        got.push(sub.next().unwrap().unwrap());
    }
    assert!(sub.unsubscribe().unwrap().is_empty(), "no window twice");
    assert!(client.query(q).poll(0).unwrap().is_empty());
    assert_eq!(window_bytes(&got), expected, "resumed windows diverged");
    client.goodbye().unwrap();
    handle.shutdown();
}

/// A zero wait is a non-blocking probe: a quiet subscription answers
/// `None` at once, and the session stays usable afterwards.
#[test]
fn a_zero_wait_probes_a_quiet_subscription() {
    let (addr, handle) = start_server();
    let mut client = Session::connect(addr).unwrap();
    let q = client.detect(DETECT).unwrap();
    let mut sub = client.subscribe(q).unwrap();
    assert!(sub.wait_windows(Duration::ZERO).unwrap().is_none());

    client.feed("gmti", &gmti(1500)).unwrap();
    client.quiesce().unwrap();
    let mut sub = client.subscribe(q).unwrap();
    let pushed = sub
        .wait_windows(Duration::from_secs(60))
        .unwrap()
        .expect("fed windows are pushed");
    assert!(!pushed.is_empty());
    assert_eq!(client.queries().unwrap().len(), 1);
    client.goodbye().unwrap();
    handle.shutdown();
}

/// A shutdown issued before `run` starts is not lost: the wake waits in
/// the reactor's self-pipe, so `run` returns at once instead of at the
/// reactor's 500 ms heartbeat.
#[test]
fn shutdown_before_run_returns_promptly() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    server.handle().unwrap().shutdown();
    let started = std::time::Instant::now();
    server.run().unwrap();
    let took = started.elapsed();
    assert!(
        took < std::time::Duration::from_millis(500),
        "run took {took:?} to notice a pending shutdown"
    );
}
