//! End-to-end surface test of the observability layer (`DESIGN.md`
//! §11): a real server on a loopback port with metrics enabled, a
//! two-query TCP workload, then scrapes through **both** exposure paths
//! — the `MetricsReq`/`MetricsReply` wire frames and the HTTP Prometheus
//! endpoint — asserting the readings are live in every instrumented
//! layer, internally consistent with the workload's own ground truth,
//! and monotone across scrapes.
//!
//! The workload is one `#[test]`: the metric registry is process-global,
//! so independent workloads in one binary would observe each other. The
//! other test runs no workload and reads no values.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use streamsum::prelude::*;
use streamsum::runtime::DurableArchive;

const DETECT: &str = "DETECT DensityBasedClusters f+s FROM gmti \
                      USING theta_range = 0.6 AND theta_cnt = 6 \
                      IN Windows WITH win = 1000 AND slide = 250";

fn gmti(n: usize) -> Vec<Point> {
    generate_gmti(&GmtiConfig {
        n_records: n,
        ..GmtiConfig::default()
    })
}

/// The value of a counter metric, summed over label variants.
fn counter_sum(metrics: &[WireMetric], base: &str) -> u64 {
    metrics
        .iter()
        .filter(|m| m.name == base || m.name.starts_with(&format!("{base}{{")))
        .map(|m| match m.value {
            WireMetricValue::Counter(v) => v,
            _ => panic!("{base} is not a counter"),
        })
        .sum()
}

/// Fetch one exact counter (no label expansion).
fn counter(metrics: &[WireMetric], name: &str) -> u64 {
    match metrics.iter().find(|m| m.name == name) {
        Some(m) => match m.value {
            WireMetricValue::Counter(v) => v,
            _ => panic!("{name} is not a counter"),
        },
        None => panic!("metric {name} not in snapshot"),
    }
}

/// Longest a scrape may take before the endpoint counts as wedged.
const SCRAPE_DEADLINE: Duration = Duration::from_secs(10);

/// One plain HTTP GET against the scrape endpoint; returns the body.
fn http_scrape(addr: std::net::SocketAddr) -> String {
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(SCRAPE_DEADLINE)).unwrap();
    write!(sock, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    sock.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "bad status: {head}");
    body.to_string()
}

/// Value of a counter line in Prometheus text exposition.
fn exposition_value(body: &str, name: &str) -> u64 {
    body.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .unwrap_or_else(|| panic!("no exposition line for {name}"))
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn both_scrape_paths_see_live_consistent_monotone_metrics() {
    // Unique temp dir so the durable tier (and with it the WAL and
    // buffer-pool instrumentation) is on the archive path.
    let dir = std::env::temp_dir().join(format!("sgs-metrics-surface-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut config = ServerConfig::default();
    config.runtime.metrics = true;
    config.runtime.durable_archive = Some(DurableArchive::at(&dir));
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    std::thread::spawn(move || server.run());
    let http_addr = streamsum::server::spawn_metrics_listener("127.0.0.1:0").unwrap();

    // Two continuous queries in one session, fed over TCP.
    let mut client = Session::connect(addr).unwrap();
    let q0 = client.detect(DETECT).unwrap();
    let q1 = client.detect(DETECT).unwrap();
    let stream = gmti(3000);
    client.feed("gmti", &stream).unwrap();
    client.quiesce().unwrap();

    let polled_windows =
        (client.query(q0).poll(0).unwrap().len() + client.query(q1).poll(0).unwrap().len()) as u64;
    assert!(polled_windows > 0, "workload must emit windows");
    let archived = client.query(q0).stats().unwrap().stats.archived
        + client.query(q1).stats().unwrap().stats.archived;
    assert!(archived > 0, "workload must archive patterns");

    // -- Scrape 1: the wire path. ----------------------------------------
    let first = client.metrics().unwrap();
    assert!(!first.is_empty(), "registry must not be empty");

    // Live values from all four instrumented layers.
    assert!(
        counter_sum(&first, "sgs_exec_tasks_total") > 0,
        "exec layer is live"
    );
    assert!(counter(&first, "sgs_runtime_points_total") >= 2 * stream.len() as u64);
    assert!(
        first.iter().any(|m| {
            m.name == "sgs_archive_wal_append_nanos"
                && matches!(m.value, WireMetricValue::Histogram { count, .. } if count > 0)
        }),
        "archive layer is live"
    );
    assert!(
        counter(&first, "sgs_server_sessions_total") >= 1,
        "server layer is live"
    );
    assert!(counter_sum(&first, "sgs_server_frames_total") > 0);
    assert!(counter(&first, "sgs_server_bytes_in_total") > 0);
    assert!(counter(&first, "sgs_server_bytes_out_total") > 0);

    // Internal consistency: the windows the client polled are exactly
    // the windows the runtime counted emitting (every completed window is
    // delivered).
    assert_eq!(
        counter(&first, "sgs_runtime_windows_emitted_total"),
        polled_windows
    );

    // -- Scrape 2: the HTTP path agrees with the wire path. ---------------
    let body = http_scrape(http_addr);
    assert!(body.contains("# TYPE sgs_runtime_points_total counter"));
    assert_eq!(
        exposition_value(&body, "sgs_runtime_windows_emitted_total"),
        polled_windows,
    );
    assert_eq!(
        exposition_value(&body, "sgs_runtime_points_total"),
        counter(&first, "sgs_runtime_points_total"),
    );

    // -- More work, then scrape 3: counters are monotone. -----------------
    client.feed("gmti", &stream).unwrap();
    client.quiesce().unwrap();
    let _ = client.query(q0).poll(0).unwrap();
    let _ = client.query(q1).poll(0).unwrap();
    let second = client.metrics().unwrap();
    for before in &first {
        if let WireMetricValue::Counter(v0) = before.value {
            let v1 = counter(&second, &before.name);
            assert!(
                v1 >= v0,
                "counter {} went backwards: {v0} -> {v1}",
                before.name
            );
        }
    }
    assert!(
        counter(&second, "sgs_runtime_points_total")
            >= counter(&first, "sgs_runtime_points_total") + 2 * stream.len() as u64
    );

    client.goodbye().unwrap();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The endpoint serves one connection at a time, so a client that
/// connects and sends nothing must not hold it: a scrape behind that
/// client still answers within the deadline.
#[test]
fn a_silent_connection_does_not_wedge_the_scrape_endpoint() {
    let http_addr = streamsum::server::spawn_metrics_listener("127.0.0.1:0").unwrap();
    let silent = TcpStream::connect(http_addr).unwrap();
    let start = Instant::now();
    http_scrape(http_addr);
    assert!(start.elapsed() < SCRAPE_DEADLINE, "{:?}", start.elapsed());
    drop(silent);
}
