//! The interactive multi-query analyst console, over a real TCP socket —
//! DETECT statements register continuous queries on a
//! `streamsum-server`, `feed` generates stream data client-side and
//! ships it over the wire, windows come back as `sgs-wire` frames, and
//! GIVEN statements match bound clusters against the server's shared
//! history (whose size is the sum of the `archived` column of `stats`).
//! `subscribe` switches a query to server-push delivery: the server
//! sends `Windows` frames as they are produced, no polling.
//!
//! Point it at a running server:
//!
//! ```text
//! cargo run --release -p sgs-server --bin streamsum-server -- --addr 127.0.0.1:7878 &
//! REMOTE_CONSOLE_ADDR=127.0.0.1:7878 cargo run --release --example remote_console
//! ```
//!
//! Against a server started with `--auth-token`, pass the shared secret
//! with `--token <secret>` (or `REMOTE_CONSOLE_TOKEN`).
//!
//! With no `REMOTE_CONSOLE_ADDR` (or `--addr`) it spins up an
//! in-process server on a loopback port and talks to that — still
//! through the full TCP + wire-protocol path, so there is no separate
//! in-process console.
//!
//! Scriptable from a pipe, e.g.:
//!
//! ```text
//! printf 'DETECT DensityBasedClusters f+s FROM gmti USING theta_range = 0.6 \
//! AND theta_cnt = 8 IN Windows WITH win = 4000 AND slide = 1000\nfeed gmti 20000\n\
//! bind Cnow\nGIVEN DensityBasedClusters Cnow SELECT DensityBasedClusters FROM History \
//! WHERE Distance(Cnow, Cnow) <= 0.3\nstats\nquit\n' | cargo run --release --example remote_console
//! ```

use std::collections::HashMap;
use std::io::{BufRead, Write as _};
use std::time::Duration;

use streamsum::prelude::*;

/// A transport-class failure described without the `error:` marker (the
/// CI transcript grep treats that as a statement failure; a dead
/// transport is a different condition with a different exit path).
fn transport_summary(e: &ClientError) -> Option<String> {
    e.is_transient().then(|| match e {
        ClientError::Timeout => {
            "the server stopped answering (request deadline expired)".to_string()
        }
        ClientError::GoAway {
            reason,
            drain_millis,
        } => format!(
            "the server is shutting down ({reason}) — {:.1}s left to finish up",
            *drain_millis as f64 / 1000.0
        ),
        _ => "the connection to the server was lost".to_string(),
    })
}

/// Statement failures are reported inline and the console keeps
/// running; a dead transport means nothing further can work — say so
/// cleanly and exit non-zero so scripts notice.
fn bail_if_disconnected(e: &ClientError) {
    if let Some(why) = transport_summary(e) {
        println!("{why} — closing the console");
        std::process::exit(1);
    }
}

/// [`bail_if_disconnected`] for helper results that box their errors.
fn bail_if_disconnected_boxed(e: &(dyn std::error::Error + 'static)) {
    if let Some(client_error) = e.downcast_ref::<ClientError>() {
        bail_if_disconnected(client_error);
    }
}

const HELP: &str = "\
commands:
  DETECT ...                register a continuous query on the server (Fig. 2 syntax)
  GIVEN ...                 run a matching query against the server's shared history (Fig. 3 syntax)
  feed <stream> <n>         generate n tuples client-side (gmti | stt) and ship them over the wire
  bind <name> [Qk]          bind the largest cluster of query Qk's newest window (default: first query with one)
  subscribe Qk [<stream> <n>]  server-push: stream Qk's windows as they arrive (stops after 2s of
                            quiet); with a stream and count, feeds that data first so the
                            subscription's backlog arrives as pushed frames
  stats                     per-query table: state, windows, clusters, archive, latency
  metrics                   server-wide metric registry snapshot (all sessions and layers)
  pause Qk | resume Qk | cancel Qk
  help | quit";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Explicit address → talk to that server; otherwise serve ourselves
    // on a loopback port (the wire path is identical either way).
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let addr_arg = flag("--addr").or_else(|| std::env::var("REMOTE_CONSOLE_ADDR").ok());
    let token = flag("--token").or_else(|| std::env::var("REMOTE_CONSOLE_TOKEN").ok());
    let config = match token {
        Some(secret) => ClientConfig::new().with_auth_token(secret),
        None => ClientConfig::new(),
    };
    let mut client = match addr_arg {
        Some(addr) => {
            println!("remote console — connecting to {addr}");
            match Session::connect_with(addr.as_str(), config) {
                Ok(client) => client,
                Err(e) if e.is_unauthorized() => {
                    println!("the server refused the credential (pass --token <secret>) — closing the console");
                    std::process::exit(1);
                }
                Err(e) => {
                    let why = transport_summary(&e)
                        .unwrap_or_else(|| "the server refused the session".to_string());
                    println!("{why} — closing the console");
                    std::process::exit(1);
                }
            }
        }
        None => {
            let mut server_config = ServerConfig::default();
            server_config.runtime.metrics = true; // so `metrics` shows live values
            let server = Server::bind("127.0.0.1:0", server_config)?;
            let addr = server.local_addr()?;
            std::thread::spawn(move || server.run());
            println!("remote console — no --addr/REMOTE_CONSOLE_ADDR, serving myself on {addr}");
            Session::connect_with(addr, config)?
        }
    };

    // Newest window output per session-local query id, for `bind`.
    let mut newest: HashMap<u64, WindowOutput> = HashMap::new();

    println!("{HELP}");
    let stdin = std::io::stdin();
    loop {
        print!("sgs> ");
        std::io::stdout().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let cmd = words[0].to_ascii_lowercase();
        match cmd.as_str() {
            "quit" | "exit" => break,
            "help" => println!("{HELP}"),
            "feed" => match feed(&mut client, &mut newest, &words) {
                Ok(summary) => println!("{summary}"),
                Err(e) => {
                    bail_if_disconnected_boxed(e.as_ref());
                    println!("error: {e}");
                }
            },
            "bind" => match bind(&mut client, &newest, &words) {
                Ok(msg) => println!("{msg}"),
                Err(e) => {
                    bail_if_disconnected_boxed(e.as_ref());
                    println!("error: {e}");
                }
            },
            "subscribe" => match parse_qid(words.get(1).copied()) {
                Some(id) => match subscribe(&mut client, &mut newest, id, &words[2..]) {
                    Ok(msg) => println!("{msg}"),
                    Err(e) => {
                        bail_if_disconnected_boxed(e.as_ref());
                        println!("error: {e}");
                    }
                },
                None => println!("usage: subscribe Qk [<gmti|stt> <n>]"),
            },
            "stats" => match client.queries() {
                Ok(queries) => print_stats(&queries),
                Err(e) => {
                    bail_if_disconnected(&e);
                    println!("error: {e}");
                }
            },
            "metrics" => match client.metrics() {
                Ok(metrics) => print_metrics(&metrics),
                Err(e) => {
                    bail_if_disconnected(&e);
                    println!("error: {e}");
                }
            },
            "pause" | "resume" | "cancel" => match parse_qid(words.get(1).copied()) {
                Some(id) => {
                    let result = match cmd.as_str() {
                        "pause" => client.query(id).pause().map(|()| format!("Q{id} paused")),
                        "resume" => client.query(id).resume().map(|()| format!("Q{id} resumed")),
                        _ => client.query(id).cancel().map(|stats| {
                            newest.remove(&id);
                            format!(
                                "Q{id} cancelled after {} windows, {} archived patterns",
                                stats.windows, stats.archived
                            )
                        }),
                    };
                    match result {
                        Ok(msg) => println!("{msg}"),
                        Err(e) => {
                            bail_if_disconnected(&e);
                            println!("error: {e}");
                        }
                    }
                }
                None => println!("usage: {} Qk", words[0]),
            },
            _ => match client.submit(line) {
                Ok(Submitted::Continuous(id)) => println!("registered Q{id}"),
                Ok(Submitted::Matches {
                    candidates,
                    refined,
                    matches,
                }) => {
                    println!(
                        "{candidates} candidates → {refined} refined → {} matches",
                        matches.len()
                    );
                    for m in matches.iter().take(5) {
                        println!("  pattern {}: distance {:.4}", m.pattern, m.distance);
                    }
                }
                Err(e) => {
                    bail_if_disconnected(&e);
                    println!("error: {e}");
                }
            },
        }
    }
    // Final accounting on exit.
    if let Ok(queries) = client.queries() {
        print_stats(&queries);
    }
    if let Err(e) = client.goodbye() {
        bail_if_disconnected(&e);
        return Err(e.into());
    }
    Ok(())
}

/// `feed <stream> <n>`: generate client-side, ship, quiesce, then drain
/// every query's windows over the wire so `bind` sees the newest.
fn feed(
    client: &mut Session,
    newest: &mut HashMap<u64, WindowOutput>,
    words: &[&str],
) -> Result<String, Box<dyn std::error::Error>> {
    let (stream, n) = match words {
        [_, stream, n] => (stream.to_ascii_lowercase(), n.parse::<usize>()?),
        _ => return Err("usage: feed <gmti|stt> <n>".into()),
    };
    let points = match stream.as_str() {
        "gmti" => generate_gmti(&GmtiConfig {
            n_records: n,
            ..GmtiConfig::default()
        }),
        "stt" => generate_stt(&SttConfig {
            n_records: n,
            ..SttConfig::default()
        }),
        other => return Err(format!("unknown stream {other:?} (try gmti or stt)").into()),
    };
    client.feed(&stream, &points)?;
    client.quiesce()?;
    let mut parts = Vec::new();
    for q in client.queries()? {
        if q.state == WireQueryState::Cancelled {
            continue;
        }
        let windows = client.query(q.query).poll(0)?;
        if let Some((_, clusters)) = windows.last() {
            newest.insert(q.query, clusters.clone());
        }
        parts.push(format!(
            "Q{}: +{} windows ({} clusters)",
            q.query,
            windows.len(),
            windows.iter().map(|(_, c)| c.len()).sum::<usize>()
        ));
    }
    if parts.is_empty() {
        parts.push("no live queries — submit a DETECT statement first".into());
    }
    Ok(format!("fed {n} tuples of {stream} → {}", parts.join(", ")))
}

/// `subscribe Qk [<stream> <n>]`: switch the query to server-push
/// delivery and stream window batches as the server sends them. With a
/// stream and count, that data is fed (without draining) first, so the
/// subscription's backlog arrives as genuinely pushed frames. The
/// console is a line-driven loop, so the demo is bounded: after two
/// seconds with no pushed frame it unsubscribes and hands the prompt
/// back (a long-lived consumer would just keep iterating the handle).
fn subscribe(
    client: &mut Session,
    newest: &mut HashMap<u64, WindowOutput>,
    id: u64,
    rest: &[&str],
) -> Result<String, Box<dyn std::error::Error>> {
    match rest {
        [] => {}
        [stream, n] => {
            let stream = stream.to_ascii_lowercase();
            let n = n.parse::<usize>()?;
            let points = match stream.as_str() {
                "gmti" => generate_gmti(&GmtiConfig {
                    n_records: n,
                    ..GmtiConfig::default()
                }),
                "stt" => generate_stt(&SttConfig {
                    n_records: n,
                    ..SttConfig::default()
                }),
                other => return Err(format!("unknown stream {other:?} (try gmti or stt)").into()),
            };
            client.feed(&stream, &points)?;
            client.quiesce()?;
        }
        _ => return Err("usage: subscribe Qk [<gmti|stt> <n>]".into()),
    }
    let mut sub = client.subscribe(id)?;
    println!("subscribed to Q{id} — streaming pushed windows (quiet for 2s ends the stream)");
    let mut batches = 0usize;
    let mut windows = 0usize;
    let mut last: Option<(WindowId, WindowOutput)> = None;
    while let Some(batch) = sub.wait_windows(Duration::from_secs(2))? {
        batches += 1;
        for (window, clusters) in batch {
            windows += 1;
            println!(
                "  pushed {window}: {} clusters, {} points",
                clusters.len(),
                clusters.iter().map(|c| c.population()).sum::<usize>()
            );
            last = Some((window, clusters));
        }
    }
    let leftover = sub.unsubscribe()?;
    windows += leftover.len();
    if let Some((window, clusters)) = leftover.into_iter().last().or(last) {
        let _ = window;
        newest.insert(id, clusters);
    }
    Ok(format!(
        "Q{id} unsubscribed after {batches} pushed batches ({windows} windows)"
    ))
}

/// `bind <name> [Qk]`: bind the largest cluster of a query's newest
/// window on the server.
fn bind(
    client: &mut Session,
    newest: &HashMap<u64, WindowOutput>,
    words: &[&str],
) -> Result<String, Box<dyn std::error::Error>> {
    let name = words.get(1).ok_or("usage: bind <name> [Qk]")?;
    let id = match words.get(2) {
        Some(w) => parse_qid(Some(w)).ok_or("bad query id (expected Qk)")?,
        None => *newest
            .keys()
            .min()
            .ok_or("no query has emitted a window yet")?,
    };
    let output = newest
        .get(&id)
        .ok_or("that query has not emitted a window yet")?;
    let cluster = output
        .iter()
        .max_by_key(|c| c.population())
        .ok_or("newest window is empty")?;
    client.bind(name, &cluster.sgs)?;
    Ok(format!(
        "{name} := largest cluster of Q{id}'s newest window ({} members, {} cells)",
        cluster.population(),
        cluster.sgs.volume()
    ))
}

/// Accept `Q3` or `3`.
fn parse_qid(word: Option<&str>) -> Option<u64> {
    let w = word?;
    let digits = w
        .strip_prefix('Q')
        .or_else(|| w.strip_prefix('q'))
        .unwrap_or(w);
    digits.parse().ok()
}

fn print_stats(queries: &[WireQuery]) {
    if queries.is_empty() {
        println!("no queries registered");
        return;
    }
    println!(
        "{:<5} {:<10} {:>9} {:>8} {:>9} {:>9} {:>12} {:>11}",
        "id", "state", "points", "windows", "clusters", "archived", "bytes", "ms/window"
    );
    for q in queries {
        let ms_per_window = if q.stats.windows == 0 {
            0.0
        } else {
            q.stats.busy_nanos as f64 / 1e6 / q.stats.windows as f64
        };
        println!(
            "{:<5} {:<10} {:>9} {:>8} {:>9} {:>9} {:>12} {:>11.2}",
            format!("Q{}", q.query),
            format!("{:?}", q.state),
            q.stats.points,
            q.stats.windows,
            q.stats.clusters,
            q.stats.archived,
            q.stats.archive_bytes,
            ms_per_window,
        );
    }
}

/// `metrics`: the server's whole registry as one table. Histograms get
/// their count, mean, and tail quantiles; everything is nanoseconds
/// unless the name says otherwise.
fn print_metrics(metrics: &[WireMetric]) {
    if metrics.is_empty() {
        println!("no metrics — start the server with metrics enabled (--metrics-addr)");
        return;
    }
    println!(
        "{:<55} {:>14} {:>10} {:>10} {:>10}",
        "metric", "value/count", "mean", "p95", "max"
    );
    for m in metrics {
        match m.value {
            WireMetricValue::Counter(v) => {
                println!("{:<55} {:>14}", m.name, v);
            }
            WireMetricValue::Gauge(v) => {
                println!("{:<55} {:>14}", m.name, v);
            }
            WireMetricValue::Histogram {
                count,
                sum,
                max,
                p95,
                ..
            } => {
                let mean = sum.checked_div(count).unwrap_or(0);
                println!(
                    "{:<55} {:>14} {:>10} {:>10} {:>10}",
                    m.name, count, mean, p95, max
                );
            }
        }
    }
}
