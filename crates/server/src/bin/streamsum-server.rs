//! The streamsum network server: serves the shared multi-query runtime
//! over TCP to any number of `sgs-client` sessions (`DESIGN.md` §9).
//!
//! ```text
//! streamsum-server [--addr 127.0.0.1:7878] [--stream name:dim]...
//!                  [--channel-capacity N] [--pool-threads N] [--seed N]
//!                  [--archive-dir PATH]
//!                  [--metrics-addr HOST:PORT]
//!                  [--idle-timeout SECS] [--drain-timeout SECS]
//!                  [--owner-max-queries N] [--owner-max-queue-bytes N]
//!                  [--owner-max-buffer-bytes N]
//!                  [--auth-token SECRET]...
//!                  [--dispatch-threads N]
//! ```
//!
//! With no `--stream` flags the two generator streams are registered:
//! `gmti` (2-d) and `stt` (4-d). The listening line is printed to stdout
//! once the socket is bound (CI waits for it before connecting).
//!
//! `SIGTERM` triggers a graceful drain (`DESIGN.md` §12): the server
//! stops accepting, sends `GoAway` to every session, waits up to
//! `--drain-timeout` for them to finish, force-closes stragglers,
//! checkpoints durable archives, and exits 0 — or prints the failed
//! checkpoint's error and exits 1.

use std::io::{self, Read};
use std::os::unix::io::IntoRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicI32, Ordering};
use std::time::Duration;

use sgs_core::PoolThreads;
use sgs_runtime::{DurableArchive, RuntimeConfig};
use sgs_server::{Server, ServerConfig};

const USAGE: &str = "\
usage: streamsum-server [options]
  --addr HOST:PORT          listen address (default 127.0.0.1:7878; port 0 = OS-assigned)
  --stream NAME:DIM         register a source stream (repeatable; default gmti:2 stt:4)
  --channel-capacity N      per-query bounded input queue, in messages (default 1024)
  --pool-threads N          dedicated scheduler pool of N workers (default: shared auto pool)
  --seed N                  archiver RNG seed (default 0)
  --archive-dir PATH        persist the shared history there (WAL + checkpoints;
                            recovers on restart; default: memory-only)
  --metrics-addr HOST:PORT  also serve Prometheus text exposition over HTTP
                            there (port 0 = OS-assigned; enables metrics)
  --idle-timeout SECS       close sessions with no complete request for SECS
                            seconds (default: never)
  --drain-timeout SECS      grace window of the SIGTERM drain before stragglers
                            are force-closed (default 10)
  --owner-max-queries N     per-session cap on live queries (default: unlimited)
  --owner-max-queue-bytes N per-session cap on queued-but-unprocessed input
                            bytes; over it, Feed is refused with QuotaExceeded
                            (default: unlimited)
  --owner-max-buffer-bytes N per-session cap on completed-but-unpolled window
                            bytes; over it, Feed is refused until polled
                            (default: unlimited)
  --auth-token SECRET       require Hello to carry one of these shared secrets
                            (repeatable; taken verbatim). Default: open access
  --dispatch-threads N      workers on the request dispatch pool (default 4)
  --help                    this text";

/// Write end of the SIGTERM pipe, which the signal handler writes one
/// byte to (−1 before the handler is installed).
static TERM_PIPE: AtomicI32 = AtomicI32::new(-1);

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// The SIGTERM disposition: the handler only `write`s one byte, which is
/// async-signal-safe, to a pipe — a `UnixStream` pair, like the reactor's
/// self-pipe. Returns the pipe's read end, on which the drain thread
/// blocks. Installed via the platform C library's `signal` (already
/// linked — no new dependency); `SIG_ERR` is ignored because the fallback
/// (no graceful drain, plain process kill) is the pre-signal behavior
/// anyway.
fn install_sigterm_handler() -> io::Result<UnixStream> {
    extern "C" fn on_term(_signum: i32) {
        // SAFETY: a one-byte write from a live buffer; the fd is the
        // pipe's write end, never closed.
        unsafe { write(TERM_PIPE.load(Ordering::SeqCst), [1u8].as_ptr(), 1) };
    }
    let (term_rx, term_tx) = UnixStream::pair()?;
    TERM_PIPE.store(term_tx.into_raw_fd(), Ordering::SeqCst);
    const SIGTERM: i32 = 15;
    // SAFETY: `on_term` is async-signal-safe.
    unsafe { signal(SIGTERM, on_term as *const () as usize) };
    Ok(term_rx)
}

fn main() {
    let config = match parse_args(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (addr, metrics_addr, server_config, drain_timeout) = config;
    let server = match Server::bind(addr.as_str(), server_config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let mut drain_watch = None;
    if let (Ok(handle), Ok(mut term_rx)) = (server.handle(), install_sigterm_handler()) {
        // The drain thread: SIGTERM's handler only writes a byte; this
        // thread, woken by it, turns it into a graceful drain.
        // `Server::run` below returns once the drain completes, and main
        // exits 0 — or 1 if a final checkpoint failed.
        drain_watch = std::thread::Builder::new()
            .name("sgs-drain-watch".into())
            .spawn(move || {
                term_rx.read_exact(&mut [0]).ok()?;
                println!("streamsum-server draining (SIGTERM, {drain_timeout:?} grace)");
                let drained = handle.drain(drain_timeout);
                if let Ok(forced @ 1..) = drained {
                    println!("streamsum-server drain force-closed {forced} session(s)");
                }
                drained.err()
            })
            .ok();
    }
    if let Some(metrics_addr) = metrics_addr {
        match sgs_server::spawn_metrics_listener(metrics_addr.as_str()) {
            Ok(bound) => println!("streamsum-server metrics on http://{bound}/metrics"),
            Err(e) => {
                eprintln!("error: cannot bind metrics address {metrics_addr}: {e}");
                std::process::exit(1);
            }
        }
    }
    let streams: Vec<String> = server_config
        .streams
        .iter()
        .map(|(name, dim)| format!("{name} ({dim}-d)"))
        .collect();
    match server.local_addr() {
        Ok(local) => println!(
            "streamsum-server listening on {local} — streams: {}",
            streams.join(", ")
        ),
        Err(_) => println!("streamsum-server listening on {addr}"),
    }
    if let Err(e) = server.run() {
        eprintln!("error: accept loop failed: {e}");
        std::process::exit(1);
    }
    // Only a drain stops the server, so the drain thread is done or about
    // to be.
    if let Some(Ok(Some(e))) = drain_watch.map(std::thread::JoinHandle::join) {
        eprintln!("error: drain failed: {e}");
        std::process::exit(1);
    }
}

type Parsed = (String, Option<String>, ServerConfig, Duration);

fn parse_args(args: &[String]) -> Result<Option<Parsed>, String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut metrics_addr: Option<String> = None;
    let mut runtime = RuntimeConfig::default();
    let mut streams: Vec<(String, usize)> = Vec::new();
    let mut archive_dir: Option<String> = None;
    let mut idle_timeout: Option<Duration> = None;
    let mut drain_timeout = Duration::from_secs(10);
    let mut owner_max_queries: Option<usize> = None;
    let mut owner_max_queue_bytes: Option<usize> = None;
    let mut owner_max_buffer_bytes: Option<usize> = None;
    let mut auth_tokens: Vec<String> = Vec::new();
    let mut dispatch_threads: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--addr" => addr = value("--addr")?,
            "--stream" => {
                let spec = value("--stream")?;
                let (name, dim) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--stream expects NAME:DIM, got {spec:?}"))?;
                let dim: usize = dim
                    .parse()
                    .map_err(|_| format!("bad dimensionality in {spec:?}"))?;
                if name.is_empty() || dim == 0 {
                    return Err(format!("bad stream spec {spec:?}"));
                }
                streams.push((name.to_string(), dim));
            }
            "--channel-capacity" => {
                runtime.channel_capacity = value("--channel-capacity")?
                    .parse()
                    .map_err(|_| "bad --channel-capacity".to_string())?;
            }
            "--pool-threads" => {
                let n: u32 = value("--pool-threads")?
                    .parse()
                    .map_err(|_| "bad --pool-threads".to_string())?;
                runtime.pool_threads = PoolThreads::Fixed(n.max(1));
            }
            "--seed" => {
                runtime.base_seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?;
            }
            "--metrics-addr" => {
                metrics_addr = Some(value("--metrics-addr")?);
                runtime.metrics = true;
            }
            "--idle-timeout" => {
                let secs: f64 = value("--idle-timeout")?
                    .parse()
                    .map_err(|_| "bad --idle-timeout".to_string())?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--idle-timeout must be a positive number of seconds".into());
                }
                idle_timeout = Some(
                    Duration::try_from_secs_f64(secs)
                        .map_err(|_| "--idle-timeout is too large".to_string())?,
                );
            }
            "--drain-timeout" => {
                let secs: f64 = value("--drain-timeout")?
                    .parse()
                    .map_err(|_| "bad --drain-timeout".to_string())?;
                if !(secs >= 0.0 && secs.is_finite()) {
                    return Err("--drain-timeout must be a number of seconds".into());
                }
                drain_timeout = Duration::try_from_secs_f64(secs)
                    .map_err(|_| "--drain-timeout is too large".to_string())?;
            }
            "--owner-max-queries" => {
                owner_max_queries = Some(
                    value("--owner-max-queries")?
                        .parse()
                        .map_err(|_| "bad --owner-max-queries".to_string())?,
                );
            }
            "--owner-max-queue-bytes" => {
                owner_max_queue_bytes = Some(
                    value("--owner-max-queue-bytes")?
                        .parse()
                        .map_err(|_| "bad --owner-max-queue-bytes".to_string())?,
                );
            }
            "--owner-max-buffer-bytes" => {
                owner_max_buffer_bytes = Some(
                    value("--owner-max-buffer-bytes")?
                        .parse()
                        .map_err(|_| "bad --owner-max-buffer-bytes".to_string())?,
                );
            }
            "--auth-token" => {
                let secret = value("--auth-token")?;
                if secret.is_empty() {
                    return Err("--auth-token secret must be non-empty".into());
                }
                auth_tokens.push(secret);
            }
            "--dispatch-threads" => {
                let n: usize = value("--dispatch-threads")?
                    .parse()
                    .map_err(|_| "bad --dispatch-threads".to_string())?;
                dispatch_threads = Some(n.max(1));
            }
            "--archive-dir" => archive_dir = Some(value("--archive-dir")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    runtime.durable_archive = archive_dir.map(DurableArchive::at);
    let mut config = ServerConfig {
        runtime,
        idle_timeout,
        owner_max_queries,
        owner_max_queue_bytes,
        owner_max_buffer_bytes,
        auth_tokens,
        ..ServerConfig::default()
    };
    if let Some(n) = dispatch_threads {
        config.dispatch_threads = n;
    }
    if !streams.is_empty() {
        config.streams = streams;
    }
    Ok(Some((addr, metrics_addr, config, drain_timeout)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Parsed>, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_removed_output_flag_is_unknown() {
        for spec in ["unbounded", "drop-oldest:3"] {
            let message = parse(&["--output-policy", spec]).unwrap_err();
            assert!(message.contains("unknown flag"), "{message}");
        }
    }

    #[test]
    fn the_removed_output_flag_is_refused_before_its_value_is_read() {
        for spec in ["block:1", "drop-oldest:x"] {
            let message = parse(&["--output-policy", spec]).unwrap_err();
            assert!(message.contains("unknown flag"), "{message}");
            assert!(!message.contains("bad --output-policy"), "{message}");
        }
    }

    #[test]
    fn a_timeout_past_the_clock_is_refused() {
        for flag in ["--idle-timeout", "--drain-timeout"] {
            assert!(parse(&[flag, "1e20"]).is_err(), "{flag} 1e20 parsed");
        }
    }
}
