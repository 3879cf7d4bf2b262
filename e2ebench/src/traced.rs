//! The traced run: metrics on, spans recorded around every call into a
//! layer's public functions, and the window latency attributed to layers.
//!
//! The program itself carries no spans yet, so attribution works from
//! outside. Every slide is fed, in lockstep, to a ladder of rungs that
//! each add one layer to the one before:
//!
//! * `traced`: `StreamPipeline`'s own few lines re-composed here from
//!   `WindowEngine`, a timing `WindowConsumer` around `CSgs`, and
//!   `PatternArchiver`, so insertion, slide and archiving get their own
//!   spans;
//! * `pipeline`: the real `StreamPipeline` (its difference to `traced`
//!   is the tracing overhead);
//! * `runtime`: an in-process `Runtime` (`push_stream`/`quiesce`/`poll`),
//!   on workloads that have one: its difference to `pipeline` is the
//!   runtime's queues and executor;
//! * `served`: the TCP `Session`, on `served_small`: its difference to
//!   `runtime` is client, wire and server together.
//!
//! Lockstep makes a slow phase of the machine hit all rungs of a window
//! alike, so the differences are not an artefact of when each rung ran.
//! All rungs must produce the same transcript digest.

use std::path::PathBuf;

use sgs_archive::{PatternArchiver, PatternBase};
use sgs_core::{HeapSize, Point, PointId, WindowId};
use sgs_csgs::{CSgs, WindowOutput};
use sgs_stream::{WindowConsumer, WindowEngine};
use sgs_summarize::Sgs;

use crate::run::{peak_rss_mb, Metric, Progress};
use crate::spans::{self, Recorder};
use crate::stages;
use crate::stats;
use crate::workloads::{
    self, Driver, Path, PipelineDriver, RuntimeDriver, ServedDriver, Spec, Step,
};

/// A traced run feeds every slide to up to four rungs and then measures
/// stages alone, so it times this share of an untraced run's slides.
const TRACED_OPS_SHARE: f64 = 0.3;
/// Tuples of the index-alone stage and patterns of the durable stage.
const INDEX_ALONE_TUPLES: u64 = 60_000;
const DURABLE_PATTERNS: usize = 1_000;

/// `CSgs` with a span around each call the window engine makes into it.
struct TimedConsumer<'a> {
    inner: &'a mut CSgs,
    rec: &'a mut Recorder,
}

impl WindowConsumer for TimedConsumer<'_> {
    type Output = WindowOutput;

    fn insert(&mut self, id: PointId, point: &Point, expires_at: WindowId) {
        self.rec.span("csgs.insert_batch", |_| {
            self.inner.insert(id, point, expires_at)
        });
    }

    fn insert_batch(&mut self, items: &[(PointId, Point, WindowId)]) {
        self.rec
            .span("csgs.insert_batch", |_| self.inner.insert_batch(items));
    }

    fn slide(&mut self, completed: WindowId) -> WindowOutput {
        self.rec.span("csgs.slide", |_| self.inner.slide(completed))
    }
}

/// `StreamPipeline::push_batch`, hand-composed so each layer it calls can
/// be timed. Must stay line-for-line what the pipeline does; the digest
/// comparison against the `pipeline` rung enforces it.
struct TracedPipeline {
    engine: WindowEngine,
    csgs: CSgs,
    archiver: PatternArchiver,
    last_output: WindowOutput,
    tuples: u64,
}

impl TracedPipeline {
    fn new(spec: &Spec) -> Self {
        let query = spec.query();
        TracedPipeline {
            engine: WindowEngine::new(query.window, query.dim),
            csgs: CSgs::new(query),
            archiver: PatternArchiver::new(spec.policy.clone(), workloads::ARCHIVE_SEED),
            last_output: Vec::new(),
            tuples: 0,
        }
    }

    fn base(&self) -> &PatternBase {
        self.archiver.base()
    }
}

impl Driver for TracedPipeline {
    fn step(&mut self, batch: Vec<Point>, rec: &mut Recorder) -> Result<Step, String> {
        let start = std::time::Instant::now();
        let root = rec.enter("traced.pipeline");
        let mut windows = Vec::new();
        let engine = rec.enter("stream.push_batch");
        let fed = self.engine.push_batch(
            batch,
            &mut TimedConsumer {
                inner: &mut self.csgs,
                rec,
            },
            &mut windows,
        );
        rec.exit(engine);
        for (window, output) in &windows {
            rec.span("archive.observe", |_| {
                self.archiver
                    .observe(*window, output.iter().map(|c| &c.sgs))
            });
            self.last_output = output.clone();
        }
        rec.exit(root);
        self.tuples += fed.map_err(|e| e.to_string())?;
        Ok(Step {
            windows,
            took: start.elapsed(),
        })
    }

    fn archive(&mut self) -> Result<(u64, u64), String> {
        Ok((self.archiver.archived, self.base().archived_bytes() as u64))
    }
}

/// One rung's bookkeeping: the span name of one whole round on it
/// (`round.<rung>`) and what the closed loop saw.
struct Log {
    round: &'static str,
    progress: Progress,
}

impl Log {
    fn new(round: &'static str, keep_every: u64) -> Self {
        Log {
            round,
            progress: Progress::new(0, keep_every),
        }
    }

    /// One traced round of `driver`.
    fn round(
        &mut self,
        driver: &mut dyn Driver,
        batch: Vec<Point>,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let span = rec.enter(self.round);
        let done = self.progress.round(driver, batch, rec);
        rec.exit(span);
        done
    }

    /// Window time per timed slide, µs.
    fn took_us(&self) -> Vec<f64> {
        self.progress
            .windows
            .as_slice()
            .iter()
            .map(|ms| ms * 1e3)
            .collect()
    }
}

fn median_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    stats::median(&mut values.to_vec())
}

/// `num / den`, and plain zero where there is nothing to divide (an empty
/// `f64` sum is `-0.0`).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 && num != 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Where trace files and the durable stage's scratch directory go: the
/// build directory, which the checkout already ignores.
fn scratch_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("e2ebench/target"), PathBuf::from)
}

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Human-readable layer table.
    pub table: Vec<String>,
}

pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<Traced, String> {
    sgs_obs::enable();
    let mut replay = workloads::new_replay(spec, seed);
    let dataset_mb = replay.dataset_bytes() as f64 / (1 << 20) as f64;

    // The ladder. Only the hand-composed pipeline keeps windows for the
    // reference check and the summarize stage; the runtime rung keeps the
    // MATCH answers it asks.
    let mut traced = TracedPipeline::new(spec);
    // A traced run is shorter, so it keeps windows more often.
    let keep_every = (spec.verify_every / 4).max(1);
    let mut traced_log = Log::new("round.traced", keep_every);
    let mut rungs: Vec<(Box<dyn Driver>, Log)> = vec![(
        Box::new(PipelineDriver::new(spec)),
        Log::new("round.pipeline", 0),
    )];
    if spec.path != Path::Pipeline {
        let keep = if spec.path == Path::MatchUnderIngest {
            keep_every
        } else {
            0
        };
        rungs.push((
            Box::new(RuntimeDriver::new(spec, true)),
            Log::new("round.runtime", keep),
        ));
    }
    if spec.path == Path::Served {
        rungs.push((
            Box::new(ServedDriver::new(spec, true)),
            Log::new("round.served", 0),
        ));
    }

    // Warm-up, untraced, every rung in lockstep.
    let mut off = Recorder::disabled();
    for _ in 0..spec.setup_slides {
        let batch = replay.next_batch(spec.slide as usize);
        let step = traced.step(batch.clone(), &mut off)?;
        traced_log.progress.next_window += step.windows.len() as u64;
        for (driver, log) in &mut rungs {
            let step = driver.step(batch.clone(), &mut off)?;
            log.progress.next_window += step.windows.len() as u64;
        }
    }

    // The timed, traced region.
    let ops = ((spec.timed_ops(seconds) as f64 * TRACED_OPS_SHARE).round() as u64).max(1);
    let mut rec = Recorder::new();
    let mut meta_bytes_peak = 0usize;
    let fed_before = replay.fed();
    let rss_before_mb = peak_rss_mb();
    let start = std::time::Instant::now();
    let mut done = 0;
    // Fixed work like the untraced run, but never past `--seconds`.
    while done < ops && start.elapsed().as_secs_f64() <= seconds {
        let batch = replay.next_batch(spec.slide as usize);
        rec.set_window(traced_log.progress.next_window);
        traced_log.round(&mut traced, batch.clone(), &mut rec)?;
        for (driver, log) in &mut rungs {
            log.round(driver.as_mut(), batch.clone(), &mut rec)?;
        }
        if done % 16 == 0 {
            meta_bytes_peak = meta_bytes_peak.max(traced.csgs.meta_bytes());
        }
        done += 1;
    }
    let ops = done;
    let tuples = (replay.fed() - fed_before) as f64;
    let windows = ops as f64;

    // Every rung saw the same slides, so every rung owes the same windows.
    let want = traced_log.progress.transcript.window_digest();
    traced_log.progress.verify(spec, &replay, &traced);
    for (driver, log) in &mut rungs {
        let got = log.progress.transcript.window_digest();
        if got != want {
            log.progress.failed += 1;
            log.progress.errors.push(format!(
                "{} digest {got:016x} differs from the traced pipeline's {want:016x}",
                log.round
            ));
        }
        log.progress.verify(spec, &replay, driver.as_ref());
    }
    let busy_nanos = rungs
        .iter_mut()
        .find(|(_, log)| log.round == "round.runtime")
        .and_then(|(driver, _)| driver.busy_nanos());
    let all_logs = || std::iter::once(&traced_log).chain(rungs.iter().map(|(_, log)| log));
    let attempted: u64 = all_logs().map(|l| l.progress.attempted).sum();
    let failed: u64 = all_logs().map(|l| l.progress.failed).sum();
    let errors: Vec<String> = all_logs().flat_map(|l| l.progress.errors.clone()).collect();

    // Registry readings before the stages alone add their own.
    let obs = |name: &str| stages::obs_total(name, |h| h.count) as f64;
    let obs_sum = |name: &str| stages::obs_total(name, |h| h.sum) as f64;
    let emitted = obs("sgs_runtime_windows_emitted_total");
    let exec_tasks = obs("sgs_exec_tasks_total");
    let exec_parks = obs("sgs_exec_parks_total");
    let ingest_to_emit_us = ratio(
        obs_sum("sgs_runtime_ingest_to_emit_nanos") / 1e3,
        obs("sgs_runtime_ingest_to_emit_nanos"),
    );
    // The server saw the warm-up slides too.
    let served_slides = (spec.setup_slides + ops) as f64;
    let served_tuples = served_slides * spec.slide as f64;
    let took = |round: &str| -> Vec<f64> {
        all_logs()
            .find(|l| l.round == round)
            .map_or_else(Vec::new, Log::took_us)
    };

    // Spans → layers.
    let totals = spans::totals_by_name(rec.spans());
    let total_us = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3);
    let self_us = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3);
    let window_us = total_us("traced.pipeline");
    let pipeline_us: f64 = took("round.pipeline").iter().sum();
    let traced_sum: f64 = took("round.traced").iter().sum();
    let per_window_diff = |upper: &str, lower: &str| -> Vec<f64> {
        took(upper)
            .iter()
            .zip(took(lower))
            .map(|(a, b)| a - b)
            .collect()
    };
    let runtime_over = per_window_diff("round.runtime", "round.pipeline");
    let frontend_over = per_window_diff("round.served", "round.runtime");
    // The path the workload's own latency takes, top rung first.
    let primary = match spec.path {
        Path::Pipeline => "round.traced",
        Path::Served => "round.served",
        Path::MatchUnderIngest => "round.runtime",
    };
    let primary_window_us: f64 = took(primary).iter().sum();
    let match_us: Vec<f64> = all_logs()
        .flat_map(|l| l.progress.matches.as_slice().iter().map(|ms| ms * 1e3))
        .collect();
    let match_total_us: f64 = match_us.iter().sum();
    let round_us = primary_window_us + match_total_us;
    let pct = |part: f64, whole: f64| 100.0 * ratio(part, whole);

    // Stages alone.
    let index = stages::index_alone(spec, &replay, INDEX_ALONE_TUPLES.min(replay.fed()));
    let summarize =
        stages::summarize_alone(spec, &replay, &traced_log.progress.transcript.kept_windows);
    let patterns: Vec<Sgs> = traced
        .base()
        .iter()
        .take(DURABLE_PATTERNS)
        .map(|p| p.sgs.clone())
        .collect();
    let durable = stages::durable_alone(
        &patterns,
        &scratch_dir().join(format!("e2e-durable-{}", std::process::id())),
    )?;
    let plan_us = stages::plan_us(spec);
    let base = traced.base();
    let base_len = base.len().max(1) as f64;
    let heap_bytes: usize = base
        .iter()
        .map(|p| std::mem::size_of_val(p) + p.sgs.heap_size())
        .sum();

    let matches = all_logs()
        .map(|l| &l.progress.transcript)
        .find(|t| t.matches_run > 0);
    let (queries, candidates, refined, matched) = matches.map_or((0.0, 0.0, 0.0, 0.0), |t| {
        (
            t.matches_run as f64,
            t.candidates as f64,
            t.refined as f64,
            t.matched as f64,
        )
    });
    let recall = all_logs().fold((0, 0), |acc, l| {
        (acc.0 + l.progress.recall.0, acc.1 + l.progress.recall.1)
    });
    let t = &traced_log.progress.transcript;
    let m = Metric::new;
    let n = ops as usize;
    let metrics = vec![
        m(
            "stream.engine_self_us_per_window",
            "us",
            self_us("stream.push_batch") / windows,
            n,
        ),
        m(
            "csgs.insert_us_per_tuple",
            "us",
            total_us("csgs.insert_batch") / tuples,
            n,
        ),
        m(
            "csgs.slide_ms_per_window",
            "ms",
            total_us("csgs.slide") / 1e3 / windows,
            n,
        ),
        m(
            "csgs.insert_share_pct",
            "%",
            pct(total_us("csgs.insert_batch"), window_us),
            n,
        ),
        m(
            "csgs.slide_share_pct",
            "%",
            pct(total_us("csgs.slide"), window_us),
            n,
        ),
        m(
            "csgs.rqs_per_tuple",
            "count",
            ratio(traced.csgs.rqs_count as f64, traced.tuples as f64),
            traced.tuples as usize,
        ),
        m(
            "csgs.clusters_per_window",
            "count",
            t.clusters as f64 / windows,
            n,
        ),
        m(
            "csgs.cells_per_cluster",
            "count",
            ratio(t.cells as f64, t.clusters as f64),
            t.clusters as usize,
        ),
        m(
            "csgs.meta_bytes_peak",
            "B",
            meta_bytes_peak as f64,
            n.div_ceil(16),
        ),
        m(
            "index.rqs_alone_ns_per_tuple",
            "ns",
            index.rqs_ns_per_tuple,
            INDEX_ALONE_TUPLES as usize,
        ),
        m(
            "index.neighbors_per_query",
            "count",
            index.neighbors_per_query,
            INDEX_ALONE_TUPLES as usize,
        ),
        m(
            "summarize.two_phase_us_per_cluster",
            "us",
            summarize.two_phase_us_per_cluster,
            t.kept_windows.len(),
        ),
        m(
            "summarize.packed_bytes_per_cluster",
            "B",
            summarize.packed_bytes_per_cluster,
            t.kept_windows.len(),
        ),
        m(
            "archive.observe_us_per_cluster",
            "us",
            ratio(total_us("archive.observe"), t.clusters as f64),
            t.clusters as usize,
        ),
        m(
            "archive.observe_share_pct",
            "%",
            pct(total_us("archive.observe"), window_us),
            n,
        ),
        m(
            "archive.heap_bytes_per_pattern",
            "B",
            heap_bytes as f64 / base_len,
            base.len(),
        ),
        m(
            "archive.index_bytes_per_pattern",
            "B",
            base.index_bytes() as f64 / base_len,
            base.len(),
        ),
        m(
            "archive.wal_append_us_per_insert",
            "us",
            durable.wal_append_us_per_insert,
            patterns.len(),
        ),
        m(
            "archive.fsyncs_per_insert",
            "count",
            durable.fsyncs_per_insert,
            patterns.len(),
        ),
        m(
            "archive.wal_bytes_per_insert",
            "B",
            durable.wal_bytes_per_insert,
            patterns.len(),
        ),
        m(
            "archive.checkpoint_ms_at_1k",
            "ms",
            durable.checkpoint_ms,
            1,
        ),
        m("archive.open_ms_at_1k", "ms", durable.open_ms, 1),
        m("archive.pool_hit_ratio", "ratio", durable.pool_hit_ratio, 1),
        m(
            "matching.candidates_per_query",
            "count",
            ratio(candidates, queries),
            queries as usize,
        ),
        m(
            "matching.refined_per_query",
            "count",
            ratio(refined, queries),
            queries as usize,
        ),
        m(
            "matching.matches_per_query",
            "count",
            ratio(matched, queries),
            queries as usize,
        ),
        m(
            "matching.useful_refine_ratio",
            "ratio",
            ratio(matched, refined),
            refined as usize,
        ),
        m(
            "matching.us_per_refined",
            "us",
            ratio(match_total_us, refined),
            refined as usize,
        ),
        m(
            "matching.recall_vs_exhaustive",
            "ratio",
            ratio(recall.0 as f64, recall.1 as f64),
            recall.1,
        ),
        m(
            "matching.round_share_pct",
            "%",
            pct(match_total_us, round_us),
            match_us.len(),
        ),
        m("query.plan_us", "us", plan_us, 400),
        m(
            "runtime.pipeline_self_us_per_window",
            "us",
            self_us("traced.pipeline") / windows,
            n,
        ),
        m(
            "runtime.overhead_us_per_window",
            "us",
            median_of(&runtime_over),
            runtime_over.len(),
        ),
        m(
            "runtime.overhead_share_pct",
            "%",
            pct(runtime_over.iter().sum(), round_us),
            runtime_over.len(),
        ),
        m(
            "runtime.busy_share",
            "ratio",
            busy_nanos.map_or(0.0, |b| {
                // Busy time covers warm-up too; so must the wall it is a share of.
                let per_slide = ratio(took("round.runtime").iter().sum(), windows);
                ratio(
                    b as f64 / 1e3,
                    per_slide * (spec.setup_slides as f64 + windows),
                )
            }),
            n,
        ),
        m(
            "runtime.ingest_to_emit_mean_us",
            "us",
            ingest_to_emit_us,
            emitted as usize,
        ),
        m(
            "exec.tasks_per_window",
            "count",
            ratio(exec_tasks, emitted),
            emitted as usize,
        ),
        m(
            "exec.parks_per_window",
            "count",
            ratio(exec_parks, emitted),
            emitted as usize,
        ),
        m(
            "frontend.overhead_us_per_window",
            "us",
            median_of(&frontend_over),
            frontend_over.len(),
        ),
        m(
            "frontend.overhead_share_pct",
            "%",
            pct(frontend_over.iter().sum(), round_us),
            frontend_over.len(),
        ),
        m(
            "client.feed_call_us_p50",
            "us",
            median_of(&spans::durations_us(rec.spans(), "client.feed")),
            n,
        ),
        m(
            "client.push_wait_us_p50",
            "us",
            {
                let sub = spans::durations_us(rec.spans(), "client.subscribe");
                let wait = spans::durations_us(rec.spans(), "client.next_windows");
                median_of(
                    &sub.iter()
                        .zip(&wait)
                        .map(|(a, b)| a + b)
                        .collect::<Vec<_>>(),
                )
            },
            n,
        ),
        m(
            "server.bytes_in_per_tuple",
            "B",
            ratio(obs("sgs_server_bytes_in_total"), served_tuples),
            served_tuples as usize,
        ),
        m(
            "server.bytes_out_per_window",
            "B",
            ratio(obs("sgs_server_bytes_out_total"), served_slides),
            served_slides as usize,
        ),
        m(
            "server.frames_per_window",
            "count",
            ratio(obs("sgs_server_frames_total"), served_slides),
            served_slides as usize,
        ),
        m(
            "server.reactor_wakeups_per_window",
            "count",
            ratio(obs("sgs_server_reactor_wakeups_total"), served_slides),
            served_slides as usize,
        ),
        m(
            "server.feed_block_us_per_window",
            "us",
            ratio(obs_sum("sgs_server_feed_block_nanos") / 1e3, served_slides),
            served_slides as usize,
        ),
        m(
            "bench.unattributed_pct",
            "%",
            pct(self_us(primary), total_us(primary)),
            n,
        ),
        m(
            "bench.trace_overhead_pct",
            "%",
            pct(traced_sum - pipeline_us, pipeline_us),
            n,
        ),
        m("bench.dataset_mb", "MB", dataset_mb, 1),
    ];

    // The layer table: where one round of the workload's own path went.
    let mut table = vec![format!(
        "layer shares of one {} round ({} rounds, {:.1} us each, rss +{:.0} MB):",
        spec.name,
        ops,
        round_us / windows,
        peak_rss_mb() - rss_before_mb
    )];
    let mut row = |layer: &str, us: f64| {
        table.push(format!(
            "  {:<34} {:>12.1} us/round {:>6.1} %",
            layer,
            us / windows,
            pct(us, round_us)
        ));
    };
    // Engine internals are measured on the traced rung and scaled to the
    // real pipeline's time, which every upper rung contains.
    let scale = ratio(pipeline_us, window_us);
    row(
        "csgs insert (traced, scaled)",
        total_us("csgs.insert_batch") * scale,
    );
    row(
        "csgs slide (traced, scaled)",
        total_us("csgs.slide") * scale,
    );
    row(
        "archive observe (traced, scaled)",
        total_us("archive.observe") * scale,
    );
    row(
        "stream engine self (traced, scaled)",
        self_us("stream.push_batch") * scale,
    );
    row(
        "runtime pipeline self (traced, scaled)",
        self_us("traced.pipeline") * scale,
    );
    if spec.path == Path::Pipeline {
        row("tracing itself", traced_sum - pipeline_us);
    } else {
        row(
            "runtime overhead (runtime - pipeline)",
            runtime_over.iter().sum(),
        );
    }
    if spec.path == Path::Served {
        row(
            "frontend overhead (served - runtime)",
            frontend_over.iter().sum(),
        );
    }
    if spec.path == Path::MatchUnderIngest {
        row("matching (submit MATCH)", match_total_us);
    }

    let trace_path = scratch_dir().join(format!("e2e-trace-{}.jsonl", spec.name));
    let written = std::fs::create_dir_all(scratch_dir())
        .and_then(|()| std::fs::File::create(&trace_path))
        .and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            rec.write_jsonl(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => table.push(format!(
            "  {} spans written to {}",
            rec.spans().len(),
            trace_path.display()
        )),
        Err(e) => table.push(format!(
            "  trace not written to {}: {e}",
            trace_path.display()
        )),
    }

    Ok(Traced {
        metrics,
        attempted,
        failed,
        errors,
        table,
    })
}
