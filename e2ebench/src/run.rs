//! The untraced run: set-up, the timed closed loop, the reference checks,
//! and the end-to-end metrics. Only this run's numbers are end-to-end
//! metrics; the traced run (`traced.rs`) explains them.

use std::time::Instant;

use sgs_core::Point;

use crate::calib::{self, Kernel};
use crate::input::Replay;
use crate::spans::Recorder;
use crate::stats::{self, Latencies};
use crate::transcript::Transcript;
use crate::verify;
use crate::workloads::{self, Driver, Ready, Spec};

/// Set-up runs several times per process and `setup_s` is the median: one
/// sub-second set-up is the noisiest thing the benchmark could report. At
/// least `SETUP_MIN_REPEATS` times, and until `SETUP_MIN_SECS` have gone
/// into it, so a 50 ms set-up gets more repeats than a 1 s one.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 15;
const SETUP_MIN_SECS: f64 = 1.0;

/// The timed region is fixed work, sized to take about `--seconds` on the
/// reference box. Should a machine be so much slower that it runs past
/// this multiple of `--seconds`, the region ends early (and says so)
/// rather than risk the whole benchmark's time budget.
const OVERRUN_FACTOR: f64 = 1.5;

/// The closed loop's bookkeeping for one driver: what came back, how long
/// it took, and which ops failed.
pub struct Progress {
    pub transcript: Transcript,
    /// Id the next window must carry.
    pub next_window: u64,
    /// Per slide: from handing it over to holding its window.
    pub windows: Latencies,
    /// Per MATCH asked: the duration of its `submit`.
    pub matches: Latencies,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Over the MATCH answers `verify` checked: matches reported, and
    /// matches an exhaustive scan finds.
    pub recall: (usize, usize),
}

impl Progress {
    pub fn new(next_window: u64, keep_every: u64) -> Self {
        Progress {
            transcript: Transcript::new(keep_every),
            next_window,
            windows: Latencies::default(),
            matches: Latencies::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            recall: (0, 0),
        }
    }

    /// One round: hand `batch` to `driver`, wait for its window, ask the
    /// workload's MATCH if it has one. An op is one slide, which owes
    /// exactly one window, the next in sequence; or one MATCH.
    pub fn round(
        &mut self,
        driver: &mut dyn Driver,
        batch: Vec<Point>,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let step = driver.step(batch, rec)?;
        self.windows.push(step.took);
        self.attempted += 1;
        if step.windows.len() != 1 || step.windows[0].0 .0 != self.next_window {
            self.failed += 1;
            self.errors.push(format!(
                "window {} was due, got {:?}",
                self.next_window,
                step.windows.iter().map(|(id, _)| id.0).collect::<Vec<_>>()
            ));
        }
        for (id, output) in &step.windows {
            self.transcript.window(*id, output);
            self.next_window = id.0 + 1;
        }
        if let Some(m) = driver.ask(&step.windows, rec)? {
            self.attempted += 1;
            self.matches.push(m.took);
            self.transcript.matches(&m.query, &m.outcome, m.history_len);
        }
        Ok(())
    }

    /// The response time the workload reports: the MATCH where it asks
    /// one, the window otherwise.
    pub fn responses(&self) -> &Latencies {
        if self.matches.len() > 0 {
            &self.matches
        } else {
            &self.windows
        }
    }

    /// Check the kept windows and MATCH answers against the references;
    /// each mismatch fails one op.
    pub fn verify(&mut self, spec: &Spec, replay: &Replay, driver: &dyn Driver) {
        let query = spec.query();
        for (id, output) in &self.transcript.kept_windows {
            if let Err(e) = verify::check_window(replay, &query, *id, output) {
                self.failed += 1;
                self.errors.push(e);
            }
        }
        driver.with_history(&mut |base, config| {
            for kept in &self.transcript.kept_matches {
                match verify::check_match(base, config, kept) {
                    Ok((reported, exhaustive)) => {
                        self.recall.0 += reported;
                        self.recall.1 += exhaustive;
                    }
                    Err(e) => {
                        self.failed += 1;
                        self.errors.push(e);
                    }
                }
            }
        });
    }
}

/// A stretch of work between two runs of the calibration kernel.
pub struct Block {
    /// Window and MATCH response times taken inside the block.
    pub windows: usize,
    pub matches: usize,
    pub wall_secs: f64,
    /// How much slower than nominal the kernel ran around the block. Every
    /// time measured inside the block is divided by it.
    pub factor: f64,
}

/// Everything an untraced run measured.
pub struct Outcome {
    /// One block per set-up repeat.
    pub setups: Vec<Block>,
    /// The timed region, in blocks of `Spec::block_rounds` rounds.
    pub blocks: Vec<Block>,
    pub tuples: u64,
    pub progress: Progress,
    pub peak_rss_mb: f64,
    pub archived_clusters: u64,
    pub archived_bytes: u64,
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the calibration kernel before and after each stretch of work.
struct Calibrator {
    kernel: Kernel,
    /// The kernel's time just before the stretch now running, ms.
    before: f64,
}

impl Calibrator {
    fn new() -> Self {
        let mut kernel = Kernel::new();
        // The first runs fault the kernel's own memory in.
        for _ in 0..3 {
            kernel.run();
        }
        let before = kernel.run();
        Calibrator { kernel, before }
    }

    /// Time `work` as one block.
    fn block<T>(&mut self, work: impl FnOnce() -> Result<T, String>) -> Result<(T, Block), String> {
        let start = Instant::now();
        let out = work()?;
        let wall_secs = start.elapsed().as_secs_f64();
        let after = self.kernel.run();
        let factor = (self.before + after) / 2.0 / calib::NOMINAL_MS;
        self.before = after;
        Ok((
            out,
            Block {
                windows: 0,
                matches: 0,
                wall_secs,
                factor,
            },
        ))
    }
}

/// Set up repeatedly, keeping the last; one block per repeat.
fn timed_set_up(
    spec: &Spec,
    seed: u64,
    calibrator: &mut Calibrator,
) -> Result<(Ready, Vec<Block>), String> {
    let mut setups: Vec<Block> = Vec::new();
    loop {
        let (ready, block) = calibrator.block(|| workloads::set_up(spec, seed))?;
        setups.push(block);
        let spent: f64 = setups.iter().map(|b| b.wall_secs).sum();
        let enough = setups.len() >= SETUP_MIN_REPEATS && spent >= SETUP_MIN_SECS;
        if enough || setups.len() == SETUP_MAX_REPEATS {
            return Ok((ready, setups));
        }
    }
}

pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut calibrator = Calibrator::new();
    let (mut ready, setups) = timed_set_up(spec, seed, &mut calibrator)?;
    let ops = spec.timed_ops(seconds);
    let mut rec = Recorder::disabled();
    let mut progress = Progress::new(ready.next_window, spec.verify_every);

    let fed_before = ready.replay.fed();
    let mut blocks: Vec<Block> = Vec::new();
    let mut done = 0;
    while done < ops {
        let spent: f64 = blocks.iter().map(|b| b.wall_secs).sum();
        if spent > OVERRUN_FACTOR * seconds {
            println!(
                "timed region cut at {done} of {ops} slides: over {OVERRUN_FACTOR} x --seconds"
            );
            break;
        }
        let rounds = spec.block_rounds.min(ops - done);
        let (windows, matches) = (progress.windows.len(), progress.matches.len());
        let ((), mut block) = calibrator.block(|| {
            for _ in 0..rounds {
                let batch = ready.replay.next_batch(spec.slide as usize);
                progress.round(ready.driver.as_mut(), batch, &mut rec)?;
            }
            Ok(())
        })?;
        block.windows = progress.windows.len() - windows;
        block.matches = progress.matches.len() - matches;
        blocks.push(block);
        done += rounds;
    }
    // Before the reference checks allocate their own working sets.
    let peak_rss_mb = peak_rss_mb();

    let (archived_clusters, archived_bytes) = ready.driver.archive()?;
    progress.verify(spec, &ready.replay, ready.driver.as_ref());
    if let Some(want) = crate::goldens::lookup(spec.name, seed, ops) {
        let got = progress.transcript.digest();
        if want != got {
            progress.failed += 1;
            progress
                .errors
                .push(format!("transcript digest {got:016x}, golden {want:016x}"));
        }
    }

    Ok(Outcome {
        setups,
        blocks,
        tuples: ready.replay.fed() - fed_before,
        progress,
        peak_rss_mb,
        archived_clusters,
        archived_bytes,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for totals and ratios).
    pub samples: usize,
    /// For a percentile: which one, so the report can say how many samples
    /// lie beyond it.
    pub quantile: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
            quantile: None,
        }
    }

    /// The nearest-rank `q` percentile of `sorted`.
    fn percentile(name: &'static str, unit: &'static str, sorted: &[f64], q: f64) -> Self {
        Metric {
            quantile: Some(q),
            ..Metric::new(name, unit, stats::nearest_rank(sorted, q), sorted.len())
        }
    }
}

impl Outcome {
    /// The response times as measured (`calibrated: false`) or each divided
    /// by its block's calibration factor, ascending.
    fn responses(&self, calibrated: bool) -> Vec<f64> {
        let asks = !self.progress.matches.as_slice().is_empty();
        let samples = self.progress.responses().as_slice();
        let mut out = Vec::with_capacity(samples.len());
        let mut next = 0;
        for block in &self.blocks {
            let n = if asks { block.matches } else { block.windows };
            let factor = if calibrated { block.factor } else { 1.0 };
            out.extend(samples[next..next + n].iter().map(|ms| ms / factor));
            next += n;
        }
        out.sort_by(f64::total_cmp);
        out
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order. Every time is
    /// calibrated: divided by how much slower than nominal the reference
    /// kernel ran around the block it was measured in (`calib.rs`).
    pub fn end_to_end(&self) -> Vec<Metric> {
        let sorted = self.responses(true);
        let clusters = self.archived_clusters;
        let mut setups: Vec<f64> = self.setups.iter().map(|b| b.wall_secs / b.factor).collect();
        let timed: f64 = self.blocks.iter().map(|b| b.wall_secs / b.factor).sum();
        vec![
            Metric::new("setup_s", "s", stats::median(&mut setups), setups.len()),
            Metric::new("tuples_per_s", "1/s", self.tuples as f64 / timed, 1),
            Metric::percentile("response_p50_ms", "ms", &sorted, 0.5),
            Metric::percentile("response_p90_ms", "ms", &sorted, 0.9),
            Metric::new("peak_rss_mb", "MB", self.peak_rss_mb, 1),
            Metric::new(
                "archive_bytes_per_cluster",
                "B",
                self.archived_bytes as f64 / clusters.max(1) as f64,
                clusters as usize,
            ),
        ]
    }

    /// Printed beside the metrics but never judged: the times as the clock
    /// read them, the calibration that was applied, and the tails (which
    /// move several-fold between identical runs on a shared host).
    pub fn diagnostics(&self) -> Vec<Metric> {
        let raw = self.responses(false);
        let windows = self.progress.windows.sorted();
        let timed: f64 = self.blocks.iter().map(|b| b.wall_secs).sum();
        let mut setups: Vec<f64> = self.setups.iter().map(|b| b.wall_secs).collect();
        let mut factors: Vec<f64> = self.blocks.iter().map(|b| b.factor).collect();
        factors.sort_by(f64::total_cmp);
        vec![
            Metric::new(
                "bench.raw_setup_s",
                "s",
                stats::median(&mut setups),
                setups.len(),
            ),
            Metric::new(
                "bench.raw_tuples_per_s",
                "1/s",
                self.tuples as f64 / timed,
                1,
            ),
            Metric::percentile("bench.raw_response_p50_ms", "ms", &raw, 0.5),
            Metric::percentile("bench.raw_response_p90_ms", "ms", &raw, 0.9),
            Metric::percentile("bench.raw_response_p99_ms", "ms", &raw, 0.99),
            Metric::percentile("bench.raw_response_max_ms", "ms", &raw, 1.0),
            Metric::percentile("bench.raw_window_p50_ms", "ms", &windows, 0.5),
            Metric::new("bench.raw_timed_s", "s", timed, 1),
            Metric::percentile("bench.calibration_factor_p50", "x", &factors, 0.5),
            Metric::percentile(
                "bench.calibration_factor_min",
                "x",
                &factors,
                1.0 / factors.len() as f64,
            ),
            Metric::percentile("bench.calibration_factor_max", "x", &factors, 1.0),
        ]
    }
}
