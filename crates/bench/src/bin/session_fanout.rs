//! Session fan-out over the reactor front-end (`DESIGN.md` §14): many
//! concurrent TCP sessions, each registering its own continuous query,
//! feeding its own stream, and taking the windows back as server-push
//! `Windows` frames — the workload the evented front-end exists for.
//!
//! The server runs with a **fixed** worker budget (one reactor thread,
//! 4 dispatch workers, a 4-worker runtime pool) while the session count
//! sweeps 8 → 32 → 128; with thread-per-session this sweep would cost
//! 128 OS threads, here the idle sessions park free on the reactor.
//! Expect aggregate ingest to hold roughly flat as sessions grow (the
//! pool, not the front-end, is the bottleneck) and pushed-window
//! delivery to scale with the session count.
//!
//! ```text
//! cargo run --release -p sgs-bench --bin session_fanout -- [--scale 0.1] [--dataset gmti|stt] [--json]
//! ```
//!
//! `--json` prints one machine-readable report object to stdout instead
//! of the table (CI uploads it as `BENCH_sessions.json`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sgs_bench::json::JsonObject;
use sgs_bench::obs_report::metrics_json;
use sgs_bench::table::print_table;
use sgs_bench::workload::{Args, Dataset};
use sgs_client::Session;
use sgs_core::PoolThreads;
use sgs_server::{Server, ServerConfig};

struct Row {
    sessions: u64,
    ingest_per_sec: f64,
    pushed_windows: u64,
    pushed_per_sec: f64,
    wall_secs: f64,
}

fn main() {
    let args = Args::from_env();
    if args.metrics {
        sgs_obs::enable();
    }
    // Per-session stream: small enough that 128 sessions stay a bench,
    // large enough for several windows each.
    let n = ((8_000.0 * args.scale) as usize).max(600);
    let dataset = args.dataset;
    let points = dataset.points(n);
    let stream_name = match dataset {
        Dataset::Gmti => "gmti",
        Dataset::Stt => "stt",
    };
    let win = ((n as u64 / 3).max(200) / 2) * 2;
    let slide = win / 2;
    let (theta_r, theta_c) = dataset.cases()[0];
    let detect = format!(
        "DETECT DensityBasedClusters f+s FROM {stream_name} \
         USING theta_range = {theta_r} AND theta_cnt = {theta_c} \
         IN Windows WITH win = {win} AND slide = {slide}"
    );

    let mut rows: Vec<Row> = Vec::new();
    for sessions in [8usize, 32, 128] {
        let mut config = ServerConfig {
            dispatch_threads: 4,
            ..ServerConfig::default()
        };
        config.runtime.pool_threads = PoolThreads::Fixed(4);
        let server = Server::bind("127.0.0.1:0", config).expect("loopback bind");
        let addr = server.local_addr().expect("bound address");
        let handle = server.handle().expect("server handle");
        std::thread::spawn(move || server.run());

        let pushed = AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..sessions)
                .map(|_| {
                    let (points, detect, pushed) = (&points, &detect, &pushed);
                    scope.spawn(move || {
                        let mut client = Session::connect(addr).expect("session connects");
                        let q = client.detect(detect).expect("query registers");
                        client.feed(stream_name, points).expect("feed lands");
                        client.quiesce().expect("stream drains");
                        let mut sub = client.subscribe(q).expect("subscription starts");
                        // The backlog arrives as pushed frames; a quiet
                        // second means the query is fully delivered.
                        while let Some(batch) = sub
                            .wait_windows(Duration::from_secs(1))
                            .expect("push stream stays healthy")
                        {
                            pushed.fetch_add(batch.len() as u64, Ordering::Relaxed);
                        }
                        client.goodbye().expect("clean goodbye");
                    })
                })
                .collect();
            for worker in workers {
                worker.join().expect("session thread");
            }
        });
        let wall = start.elapsed().as_secs_f64();
        handle.shutdown();

        let pushed = pushed.load(Ordering::Relaxed);
        rows.push(Row {
            sessions: sessions as u64,
            ingest_per_sec: (n * sessions) as f64 / wall,
            pushed_windows: pushed,
            pushed_per_sec: pushed as f64 / wall,
            wall_secs: wall,
        });
    }

    if args.json {
        let json_rows: Vec<JsonObject> = rows
            .iter()
            .map(|r| {
                JsonObject::new()
                    .u64("sessions", r.sessions)
                    .f64("ingest_tuples_per_sec", r.ingest_per_sec)
                    .u64("pushed_windows", r.pushed_windows)
                    .f64("pushed_windows_per_sec", r.pushed_per_sec)
                    .f64("wall_secs", r.wall_secs)
            })
            .collect();
        let report = JsonObject::new()
            .str("bench", "session_fanout")
            .str("dataset", stream_name)
            .u64("tuples_per_session", n as u64)
            .u64("win", win)
            .u64("slide", slide)
            .u64("dispatch_threads", 4)
            .u64("pool_threads", 4)
            .u64(
                "available_parallelism",
                std::thread::available_parallelism().map_or(0, |p| p.get() as u64),
            )
            .u64("metrics_enabled", args.metrics as u64)
            .array("rows", &json_rows)
            .array("metrics", &metrics_json())
            .render();
        println!("{report}");
    } else {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.sessions.to_string(),
                    format!("{:.0}", r.ingest_per_sec),
                    r.pushed_windows.to_string(),
                    format!("{:.0}", r.pushed_per_sec),
                    format!("{:.2}", r.wall_secs),
                ]
            })
            .collect();
        print_table(
            &format!(
                "reactor session fan-out — {n} tuples/session of {stream_name}, \
                 win {win} / slide {slide}, 4 dispatch + 4 pool workers"
            ),
            &[
                "sessions",
                "ingest tuples/s",
                "pushed windows",
                "pushed/s",
                "wall s",
            ],
            &table,
        );
    }
}
