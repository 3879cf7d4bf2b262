//! The repo benchmark (`BENCHMARK.json` at the repo root describes it).
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload stt_insert --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the run's
//! verdict and metrics; everything above it is the same for a reader.

mod calib;
mod goldens;
mod input;
mod run;
mod spans;
mod stages;
mod stats;
mod traced;
mod transcript;
mod verify;
mod workloads;

use run::Metric;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed takes a whole number".to_string())?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let beyond = m
            .quantile
            .map(|q| format!(" ({} beyond)", stats::samples_beyond(m.samples, q)))
            .unwrap_or_default();
        println!(
            "  {:<38} {:>16.4} {:<6} n={}{beyond}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The contract's result line.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}");
        eprintln!("usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    let specs = workloads::all();
    let Some(spec) = specs.iter().find(|s| s.name == args.workload) else {
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        eprintln!(
            "e2ebench: unknown workload {:?}; have {names:?}",
            args.workload
        );
        std::process::exit(2);
    };
    println!("{}: {}", spec.name, spec.why);
    println!(
        "workload {} seed {} seconds {} trace {} available_parallelism {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    // Either kind of run ends the same way: the judged metrics, the ops
    // that failed and why, the result line, the exit code.
    let run = if args.trace {
        traced::run(spec, args.seed, args.seconds).map(|traced| {
            print_table("per-layer", &traced.metrics);
            for line in &traced.table {
                println!("{line}");
            }
            (
                traced.metrics,
                traced.attempted,
                traced.failed,
                traced.errors,
            )
        })
    } else {
        run::run(spec, args.seed, args.seconds).map(|outcome| {
            let metrics = outcome.end_to_end();
            print_table("end-to-end (times calibrated, see calib.rs)", &metrics);
            print_table("diagnostics (not judged)", &outcome.diagnostics());
            let progress = outcome.progress;
            println!(
                "  windows {} clusters {} cells {} matches {} digest {:016x}",
                progress.transcript.windows,
                progress.transcript.clusters,
                progress.transcript.cells,
                progress.transcript.matches_run,
                progress.transcript.digest()
            );
            (
                metrics,
                progress.attempted,
                progress.failed,
                progress.errors,
            )
        })
    };
    let (metrics, attempted, failed, errors) = run.unwrap_or_else(|e| {
        eprintln!("e2ebench: {}: {e}", spec.name);
        std::process::exit(1);
    });
    for e in &errors {
        eprintln!("e2ebench: {}: {e}", spec.name);
    }
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_archive::ArchivePolicy;
    use workloads::{Path, Spec};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// A workload small enough for a debug-build test.
    fn tiny(path: Path) -> Spec {
        Spec {
            name: "tiny",
            why: "",
            dataset: input::Dataset::Gmti,
            theta_r: 0.5,
            theta_c: 4,
            win: 400,
            slide: 100,
            policy: ArchivePolicy::All,
            path,
            base_tuples: 3_000,
            setup_slides: 10,
            // Tests pass `--seconds` of 10 or more: a debug build under a
            // parallel test harness must stay clear of the overrun cut.
            ops_per_second: 6.0,
            block_rounds: 10,
            verify_every: 5,
        }
    }

    /// The names listed in one section of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<String> {
        let body = BENCHMARK_JSON
            .split(&format!("\"{section}\": ["))
            .nth(1)
            .expect(section);
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn untraced_runs_are_correct_and_report_the_listed_metrics() {
        for path in [Path::Pipeline, Path::Served, Path::MatchUnderIngest] {
            let outcome = run::run(&tiny(path), 7, 10.0).expect("tiny run");
            assert_eq!(outcome.progress.errors, Vec::<String>::new(), "{path:?}");
            assert_eq!(outcome.progress.failed, 0);
            assert_eq!(outcome.progress.transcript.windows, 60);
            // A window without clusters has nothing to ask a MATCH about.
            let asked = outcome.progress.transcript.matches_run;
            assert_eq!(asked > 50, path == Path::MatchUnderIngest);
            assert_eq!(outcome.progress.attempted, 60 + asked);
            assert!(outcome.progress.transcript.kept_windows.len() >= 12);
            let names: Vec<String> = outcome
                .end_to_end()
                .iter()
                .map(|m| m.name.to_string())
                .collect();
            assert_eq!(names, listed("end_to_end"));
            assert!(outcome
                .end_to_end()
                .iter()
                .all(|m| m.value > 0.0 && valid_name(m.name)));
        }
    }

    #[test]
    fn equal_seeds_give_equal_transcripts() {
        let digest = |seed| {
            run::run(&tiny(Path::Pipeline), seed, 10.0)
                .expect("tiny run")
                .progress
                .transcript
                .digest()
        };
        assert_eq!(digest(3), digest(3));
        assert_ne!(digest(3), digest(4));
    }

    #[test]
    fn traced_rungs_agree_and_report_the_listed_metrics() {
        for path in [Path::Pipeline, Path::Served, Path::MatchUnderIngest] {
            // Traced and untraced pipelines are rungs of the same run; a
            // digest mismatch between them fails an op.
            let traced = traced::run(&tiny(path), 7, 30.0).expect("tiny traced run");
            assert_eq!(traced.errors, Vec::<String>::new(), "{path:?}");
            assert_eq!(traced.failed, 0);
            let names: Vec<String> = traced.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(names, listed("per_layer"));
            assert!(names.iter().all(|n| valid_name(n)));
            let value = |name: &str| {
                traced
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .expect(name)
                    .value
            };
            assert_eq!(value("csgs.rqs_per_tuple"), 1.0);
            assert!(value("bench.unattributed_pct") < 50.0);
            let on_path = |name: &str, wanted: bool| {
                assert_eq!(value(name) > 0.0, wanted, "{name} on {path:?}");
            };
            on_path("runtime.overhead_us_per_window", path != Path::Pipeline);
            // (The `server.*` readings come from the process-wide registry,
            // which tests running beside this one share.)
            on_path("client.feed_call_us_p50", path == Path::Served);
            on_path("matching.refined_per_query", path == Path::MatchUnderIngest);
        }
    }

    #[test]
    fn workloads_match_the_benchmark_file() {
        let names: Vec<&str> = workloads::all().iter().map(|s| s.name).collect();
        assert_eq!(names, listed("workloads"));
        for spec in workloads::all() {
            assert!(
                BENCHMARK_JSON.contains(spec.why),
                "{} why differs",
                spec.name
            );
        }
    }
}
