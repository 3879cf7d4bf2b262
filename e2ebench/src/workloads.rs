//! The four workloads and the three ways a slide is handed to the system:
//! straight into a `StreamPipeline`, through an in-process `Runtime`, or
//! through a `Session` over TCP to a server inside this process.
//!
//! Load shape, all workloads: closed loop, one feeder thread, at most one
//! connection; extraction pinned to one shard and one pool worker. A slide
//! is handed over only after the previous window (and MATCH answer) is
//! held, so `tuples_per_s` is the sustainable rate and the response time
//! is a service time without queueing.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sgs_archive::{ArchivePolicy, MatchOutcome, PatternBase};
use sgs_client::Session;
use sgs_core::{ClusterQuery, Point, PoolThreads, ShardCount, WindowId, WindowSpec};
use sgs_csgs::WindowOutput;
use sgs_matching::MatchConfig;
use sgs_runtime::{QueryId, QueryPlan, Runtime, RuntimeConfig, StreamPipeline, Submission};
use sgs_server::{Server, ServerConfig, ServerHandle};
use sgs_summarize::Sgs;

use crate::input::{Dataset, Replay};
use crate::spans::Recorder;

/// Archiver seed of every workload (the sampling policies draw from it).
pub const ARCHIVE_SEED: u64 = 0;

/// How a workload's slides reach the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `StreamPipeline::push_batch`, one slide per call.
    Pipeline,
    /// `Session` → TCP → reactor → dispatch → `Runtime` → pipeline → push
    /// back to the client.
    Served,
    /// In-process `Runtime` with a MATCH against the shared history after
    /// every window.
    MatchUnderIngest,
}

/// One workload, frozen.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: Dataset,
    pub theta_r: f64,
    pub theta_c: u32,
    pub win: u64,
    pub slide: u64,
    pub policy: ArchivePolicy,
    pub path: Path,
    /// Length of the generated base stream (replayed cyclically).
    pub base_tuples: usize,
    /// Slides fed during set-up: the first full window, twenty more to
    /// warm caches and allocator, and whatever history the workload
    /// wants archived before timing starts.
    pub setup_slides: u64,
    /// Timed slides per second of `--seconds`. Work is fixed by this
    /// count, never by a deadline, so every count repeats exactly.
    pub ops_per_second: f64,
    /// Rounds between two runs of the calibration kernel (about 0.25 s).
    pub block_rounds: u64,
    /// One window (and MATCH answer) in this many is checked against
    /// the references after the timed region.
    pub verify_every: u64,
}

/// MATCH statement of `match_under_ingest`: non-position-sensitive, so the
/// feature grid filters and the alignment search refines.
pub const MATCH_TEXT: &str = "GIVEN DensityBasedClusters Cq \
     SELECT DensityBasedClusters FROM History WHERE Distance(Cq, Cq) <= 0.15";

pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "stt_insert",
            why: "STT 4-d, win 10k/slide 1k, archive all: C-SGS insertion (range query, link) dominates the window",
            dataset: Dataset::Stt,
            theta_r: 0.1,
            theta_c: 8,
            win: 10_000,
            slide: 1_000,
            policy: ArchivePolicy::All,
            path: Path::Pipeline,
            base_tuples: 600_000,
            setup_slides: 30,
            ops_per_second: 22.0,
            block_rounds: 8,
            verify_every: 100,
        },
        Spec {
            name: "gmti_slide",
            why: "GMTI 2-d, win 10k/slide 100, archive 10%: slide-time output (merge, per-cluster SGS) dominates, insertion is minor",
            dataset: Dataset::Gmti,
            theta_r: 0.5,
            theta_c: 8,
            win: 10_000,
            slide: 100,
            policy: ArchivePolicy::Sample(0.1),
            path: Path::Pipeline,
            base_tuples: 700_000,
            setup_slides: 120,
            ops_per_second: 250.0,
            block_rounds: 80,
            verify_every: 1_000,
        },
        Spec {
            name: "served_small",
            why: "GMTI win 1000/slide 100 through Session, TCP, reactor, dispatch and runtime: client, wire and queues are most of the latency",
            dataset: Dataset::Gmti,
            theta_r: 0.5,
            theta_c: 8,
            win: 1_000,
            slide: 100,
            policy: ArchivePolicy::Sample(0.1),
            path: Path::Served,
            base_tuples: 300_000,
            setup_slides: 30,
            ops_per_second: 1_000.0,
            block_rounds: 300,
            verify_every: 500,
        },
        Spec {
            name: "match_under_ingest",
            why: "GMTI win 10k/slide 1k in a Runtime, a MATCH over the growing shared history after every window: reads beside writes",
            dataset: Dataset::Gmti,
            theta_r: 0.5,
            theta_c: 8,
            win: 10_000,
            slide: 1_000,
            policy: ArchivePolicy::All,
            path: Path::MatchUnderIngest,
            base_tuples: 400_000,
            setup_slides: 130,
            ops_per_second: 9.0,
            block_rounds: 3,
            verify_every: 60,
        },
    ]
}

impl Spec {
    pub fn query(&self) -> ClusterQuery {
        let spec = WindowSpec::count(self.win, self.slide).expect("frozen window spec");
        ClusterQuery::new(self.theta_r, self.theta_c, self.dataset.dim(), spec)
            .expect("frozen query")
            .with_shards(ShardCount::Fixed(1))
    }

    pub fn detect_text(&self) -> String {
        format!(
            "DETECT DensityBasedClusters f+s FROM {} USING theta_range = {} AND theta_cnt = {} \
             IN Windows WITH win = {} AND slide = {}",
            self.dataset.stream_name(),
            self.theta_r,
            self.theta_c,
            self.win,
            self.slide
        )
    }

    /// Timed slides of a run told to measure for `seconds`.
    pub fn timed_ops(&self, seconds: f64) -> u64 {
        ((self.ops_per_second * seconds).round() as u64).max(1)
    }

    fn runtime_config(&self, metrics: bool) -> RuntimeConfig {
        RuntimeConfig {
            default_policy: self.policy.clone(),
            base_seed: ARCHIVE_SEED,
            default_shards: ShardCount::Fixed(1),
            pool_threads: PoolThreads::Fixed(1),
            metrics,
            ..RuntimeConfig::default()
        }
    }
}

/// A MATCH the driver ran after a window.
pub struct Matched {
    pub query: Sgs,
    pub outcome: MatchOutcome,
    /// Patterns in the history when it ran.
    pub history_len: usize,
    pub took: Duration,
}

/// What handing one slide to the system produced.
pub struct Step {
    pub windows: Vec<(WindowId, WindowOutput)>,
    /// From handing the slide over to holding its window's output.
    pub took: Duration,
}

/// One way of handing slides to the system.
pub trait Driver {
    /// Hand one slide over and wait for every window it completes.
    fn step(&mut self, batch: Vec<Point>, rec: &mut Recorder) -> Result<Step, String>;

    /// Ask the workload's MATCH about the windows a step returned, where
    /// the workload has one. Set-up feeds its history without asking.
    fn ask(
        &mut self,
        _windows: &[(WindowId, WindowOutput)],
        _rec: &mut Recorder,
    ) -> Result<Option<Matched>, String> {
        Ok(None)
    }

    /// Clusters archived so far and their packed bytes.
    fn archive(&mut self) -> Result<(u64, u64), String>;

    /// The history MATCH answers came from and the configuration they ran
    /// under, for the oracle check.
    fn with_history(&self, _check: &mut dyn FnMut(&PatternBase, &MatchConfig)) {}

    /// Nanoseconds the query's worker spent processing, where the path
    /// has a worker.
    fn busy_nanos(&mut self) -> Option<u64> {
        None
    }
}

pub struct PipelineDriver {
    pipeline: StreamPipeline,
}

impl PipelineDriver {
    pub fn new(spec: &Spec) -> Self {
        PipelineDriver {
            pipeline: StreamPipeline::new(spec.query(), spec.policy.clone(), ARCHIVE_SEED)
                .expect("pipeline builds"),
        }
    }
}

impl Driver for PipelineDriver {
    fn step(&mut self, batch: Vec<Point>, rec: &mut Recorder) -> Result<Step, String> {
        let start = Instant::now();
        let windows = rec
            .span("pipeline.push_batch", |_| self.pipeline.push_batch(batch))
            .map_err(|e| e.to_string())?;
        Ok(Step {
            windows,
            took: start.elapsed(),
        })
    }

    fn archive(&mut self) -> Result<(u64, u64), String> {
        Ok((
            self.pipeline.archive_stats().1,
            self.pipeline.base().archived_bytes() as u64,
        ))
    }
}

pub struct RuntimeDriver {
    rt: Runtime,
    query: QueryId,
    stream: &'static str,
    dim: usize,
    /// The MATCH to run after each window, planned once for its config.
    matching: Option<MatchConfig>,
}

impl RuntimeDriver {
    pub fn new(spec: &Spec, metrics: bool) -> Self {
        let mut rt = Runtime::with_config(spec.runtime_config(metrics));
        rt.register_stream(spec.dataset.stream_name(), spec.dataset.dim());
        let Submission::Continuous(query) =
            rt.submit(&spec.detect_text()).expect("DETECT registers")
        else {
            unreachable!("DETECT text registers a continuous query");
        };
        let matching = (spec.path == Path::MatchUnderIngest).then(|| {
            let QueryPlan::Match(plan) = rt.plan(MATCH_TEXT).expect("MATCH plans") else {
                unreachable!("GIVEN text plans to a match plan");
            };
            plan.config
        });
        RuntimeDriver {
            rt,
            query,
            stream: spec.dataset.stream_name(),
            dim: spec.dataset.dim(),
            matching,
        }
    }
}

/// The cluster a round's MATCH asks about: the window's median-volume
/// cluster (ties broken by output position, so the choice is
/// deterministic).
fn median_volume_cluster(output: &WindowOutput) -> Option<&Sgs> {
    let mut order: Vec<usize> = (0..output.len()).collect();
    order.sort_by_key(|&i| (output[i].sgs.volume(), i));
    order.get(order.len() / 2).map(|&i| &output[i].sgs)
}

impl Driver for RuntimeDriver {
    fn step(&mut self, batch: Vec<Point>, rec: &mut Recorder) -> Result<Step, String> {
        let start = Instant::now();
        rec.span("runtime.push_stream", |_| {
            self.rt.push_stream(self.stream, &batch)
        })
        .map_err(|e| e.to_string())?;
        rec.span("runtime.quiesce", |_| self.rt.quiesce())
            .map_err(|e| e.to_string())?;
        let windows = rec
            .span("runtime.poll", |_| self.rt.poll(self.query))
            .map_err(|e| e.to_string())?;
        Ok(Step {
            windows,
            took: start.elapsed(),
        })
    }

    fn ask(
        &mut self,
        windows: &[(WindowId, WindowOutput)],
        rec: &mut Recorder,
    ) -> Result<Option<Matched>, String> {
        let cluster = windows
            .last()
            .and_then(|(_, out)| median_volume_cluster(out));
        let (Some(_), Some(sgs)) = (&self.matching, cluster) else {
            return Ok(None);
        };
        let query = sgs.clone();
        let history_len = self
            .rt
            .history(self.dim)
            .map_or(0, |history| history.read().len());
        rec.span("runtime.bind_cluster", |_| {
            self.rt.bind_cluster("Cq", query.clone())
        });
        let asked = Instant::now();
        let answer = rec
            .span("runtime.submit_match", |_| self.rt.submit(MATCH_TEXT))
            .map_err(|e| e.to_string())?;
        let took = asked.elapsed();
        let Submission::Matches(outcome) = answer else {
            return Err("MATCH text registered a continuous query".into());
        };
        Ok(Some(Matched {
            query,
            outcome,
            history_len,
            took,
        }))
    }

    fn archive(&mut self) -> Result<(u64, u64), String> {
        let stats = self.rt.stats(self.query).map_err(|e| e.to_string())?;
        Ok((stats.archived, stats.archive_bytes as u64))
    }

    fn with_history(&self, check: &mut dyn FnMut(&PatternBase, &MatchConfig)) {
        if let (Some(config), Some(history)) = (&self.matching, self.rt.history(self.dim)) {
            check(&history.read(), config);
        }
    }

    fn busy_nanos(&mut self) -> Option<u64> {
        self.rt.stats(self.query).ok().map(|s| s.busy_nanos)
    }
}

pub struct ServedDriver {
    // Declared before the server pieces so the connection closes first.
    session: Option<Session>,
    query: u64,
    stream: &'static str,
    spec: WindowSpec,
    /// Tuples fed and windows received so far; their difference against
    /// the window arithmetic says how many windows a slide still owes.
    fed: u64,
    received: u64,
    handle: ServerHandle,
    reactor: Option<JoinHandle<std::io::Result<()>>>,
}

impl ServedDriver {
    pub fn new(spec: &Spec, metrics: bool) -> Self {
        let config = ServerConfig {
            runtime: spec.runtime_config(metrics),
            dispatch_threads: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("loopback bind");
        let addr: SocketAddr = server.local_addr().expect("bound address");
        let handle = server.handle().expect("server handle");
        let reactor = std::thread::spawn(move || server.run());
        let mut session = Session::connect(addr).expect("session connects");
        let query = session
            .detect(&spec.detect_text())
            .expect("DETECT registers");
        ServedDriver {
            session: Some(session),
            query,
            stream: spec.dataset.stream_name(),
            spec: spec.query().window,
            fed: 0,
            received: 0,
            handle,
            reactor: Some(reactor),
        }
    }

    fn session(&mut self) -> &mut Session {
        self.session.as_mut().expect("session lives until drop")
    }
}

impl Driver for ServedDriver {
    fn step(&mut self, batch: Vec<Point>, rec: &mut Recorder) -> Result<Step, String> {
        let start = Instant::now();
        let (stream, query) = (self.stream, self.query);
        rec.span("client.feed", |_| self.session().feed(stream, &batch))
            .map_err(|e| e.to_string())?;
        self.fed += batch.len() as u64;
        // The tuple with index `t` completes every window ending at or
        // before `t`, so after `fed` tuples this many windows are out.
        let owed = self.spec.completed_windows(self.fed - 1) - self.received;
        let mut windows = Vec::with_capacity(owed as usize);
        if owed > 0 {
            // `feed` needs the session, so the subscription handle cannot
            // be held across rounds; re-subscribing is idempotent.
            let session = self.session.as_mut().expect("session lives until drop");
            let mut sub = rec
                .span("client.subscribe", move |_| session.subscribe(query))
                .map_err(|e| e.to_string())?;
            rec.span("client.next_windows", |_| {
                while (windows.len() as u64) < owed {
                    windows.extend(sub.next_windows()?);
                }
                Ok(())
            })
            .map_err(|e: sgs_client::ClientError| e.to_string())?;
        }
        self.received += windows.len() as u64;
        Ok(Step {
            windows,
            took: start.elapsed(),
        })
    }

    fn archive(&mut self) -> Result<(u64, u64), String> {
        let query = self.query;
        let stats = self
            .session()
            .query(query)
            .stats()
            .map_err(|e| e.to_string())?
            .stats;
        Ok((stats.archived, stats.archive_bytes))
    }

    fn busy_nanos(&mut self) -> Option<u64> {
        let query = self.query;
        self.session()
            .query(query)
            .stats()
            .ok()
            .map(|q| q.stats.busy_nanos)
    }
}

impl Drop for ServedDriver {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            let _ = session.goodbye();
        }
        self.handle.shutdown();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }
}

/// A workload set up and warm: the replay positioned at the first timed
/// slide, the driver holding a full window plus the set-up history.
pub struct Ready {
    pub replay: Replay,
    pub driver: Box<dyn Driver>,
    /// Id the first timed window must carry.
    pub next_window: u64,
}

/// The driver of the workload's own path, metrics off.
fn driver_for(spec: &Spec) -> Box<dyn Driver> {
    match spec.path {
        Path::Pipeline => Box::new(PipelineDriver::new(spec)),
        Path::Served => Box::new(ServedDriver::new(spec, false)),
        Path::MatchUnderIngest => Box::new(RuntimeDriver::new(spec, false)),
    }
}

/// The workload's input for `seed`, positioned at the first tuple.
pub fn new_replay(spec: &Spec, seed: u64) -> Replay {
    // Jitter of 2 % of the range threshold: small against the density
    // structure, large against floating-point neighbor decisions.
    Replay::new(spec.dataset.generate(
        seed,
        spec.base_tuples,
        0.02 * spec.theta_r,
        spec.query().basic_grid().side(),
    ))
}

/// Set-up: generate the base stream, construct the system (server bind,
/// `Hello`, DETECT registration where the path has them) and feed the
/// warm-up slides.
pub fn set_up(spec: &Spec, seed: u64) -> Result<Ready, String> {
    let mut replay = new_replay(spec, seed);
    let mut driver = driver_for(spec);
    let mut rec = Recorder::disabled();
    let mut next_window = 0;
    for _ in 0..spec.setup_slides {
        let step = driver.step(replay.next_batch(spec.slide as usize), &mut rec)?;
        for (id, _) in &step.windows {
            if id.0 != next_window {
                return Err(format!(
                    "set-up: window {} arrived, {next_window} was due",
                    id.0
                ));
            }
            next_window += 1;
        }
    }
    Ok(Ready {
        replay,
        driver,
        next_window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_volume_cluster_is_deterministic() {
        assert!(median_volume_cluster(&Vec::new()).is_none());
    }

    #[test]
    fn frozen_specs_are_valid() {
        let specs = all();
        assert_eq!(specs.len(), 4);
        for spec in &specs {
            spec.query();
            assert!(spec.why.len() <= 200, "{}", spec.name);
            assert!(
                spec.setup_slides >= spec.win / spec.slide + 20,
                "{}",
                spec.name
            );
            assert_eq!(spec.timed_ops(0.0), 1);
        }
    }
}
