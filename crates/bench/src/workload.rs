//! Workload definitions shared by the harness binaries: datasets, the
//! three pattern-parameter cases of §8.1, and the window settings.

use sgs_core::{ClusterQuery, Point, WindowSpec};
use sgs_datagen::{generate_gmti, generate_stt, GmtiConfig, SttConfig};

/// Which stream to run (§8: STT for the main experiments, GMTI mirrored).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// Stock Trading Traces-like 4-d stream.
    Stt,
    /// GMTI-like 2-d moving-object stream.
    Gmti,
}

impl Dataset {
    /// Parse from a CLI argument.
    pub fn parse(s: &str) -> Option<Dataset> {
        match s.to_ascii_lowercase().as_str() {
            "stt" => Some(Dataset::Stt),
            "gmti" => Some(Dataset::Gmti),
            _ => None,
        }
    }

    /// Dimensionality of the stream.
    pub fn dim(self) -> usize {
        match self {
            Dataset::Stt => 4,
            Dataset::Gmti => 2,
        }
    }

    /// Generate `n` records (seeded; equal calls give equal streams).
    pub fn points(self, n: usize) -> Vec<Point> {
        match self {
            Dataset::Stt => generate_stt(&SttConfig {
                n_records: n,
                ..SttConfig::default()
            }),
            Dataset::Gmti => generate_gmti(&GmtiConfig {
                n_records: n,
                ..GmtiConfig::default()
            }),
        }
    }

    /// The three pattern parameter cases of §8.1, scaled to each stream's
    /// coordinate ranges. For STT these are the paper's values verbatim.
    pub fn cases(self) -> [(f64, u32); 3] {
        match self {
            Dataset::Stt => [(0.05, 10), (0.1, 8), (0.2, 5)],
            Dataset::Gmti => [(0.25, 10), (0.5, 8), (1.0, 5)],
        }
    }
}

/// One experiment configuration: a pattern case plus a window setting.
#[derive(Clone, Debug)]
pub struct Config {
    /// Human-readable label ("case 1, slide 1K").
    pub label: String,
    /// The clustering query.
    pub query: ClusterQuery,
}

/// Build the §8.1 grid of configurations: the dataset's three cases,
/// windows of `win` tuples and slides from `slides`.
pub fn config_grid(dataset: Dataset, win: u64, slides: &[u64]) -> Vec<Config> {
    let mut out = Vec::new();
    for (case_idx, (theta_r, theta_c)) in dataset.cases().into_iter().enumerate() {
        for &slide in slides {
            let spec = WindowSpec::count(win, slide).expect("valid window");
            let query =
                ClusterQuery::new(theta_r, theta_c, dataset.dim(), spec).expect("valid query");
            out.push(Config {
                label: format!(
                    "case {} (θr={theta_r}, θc={theta_c}), slide {slide}",
                    case_idx + 1
                ),
                query,
            });
        }
    }
    out
}

/// Window length for a harness at `scale`: `full · scale` tuples, at least
/// `min`, rounded down to a multiple of `step`. A harness whose slides are
/// `win / k` for divisors `k` of `step` then always gets a valid window;
/// the scales whose scaled window is already a multiple of `step` (1.0,
/// 0.5, 0.2 and 0.1 for the figures) keep it.
pub fn scaled_window(full: u64, scale: f64, min: u64, step: u64) -> u64 {
    ((full as f64 * scale) as u64).max(min) / step * step
}

/// The command line every harness binary takes: `--scale <f>` shrinks
/// the workload (default 1.0), `--dataset stt|gmti` picks the stream
/// (default STT), `--json` asks for a machine-readable report and
/// `--metrics` for the metric registry in it. A binary reads the fields it
/// uses, and only one that reports metrics enables the registry.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Workload scale factor, finite and positive.
    pub scale: f64,
    /// Stream to run.
    pub dataset: Dataset,
    /// Print one JSON report object instead of tables.
    pub json: bool,
    /// `--metrics` was given.
    pub metrics: bool,
}

impl Args {
    /// Parse the process's arguments; a bad value exits with a message.
    pub fn from_env() -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&args).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2)
        })
    }

    /// Parse `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<Args, String> {
        // A flag's value; a flag given last has the empty one.
        let value = |flag: &str| {
            let at = args.iter().position(|a| a == flag)?;
            Some(args.get(at + 1).map_or("", String::as_str))
        };
        let scale = match value("--scale") {
            None => 1.0,
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or_else(|| format!("--scale must be a finite number above 0, not {v:?}"))?,
        };
        let dataset = match value("--dataset") {
            None => Dataset::Stt,
            Some(v) => Dataset::parse(v)
                .ok_or_else(|| format!("--dataset must be stt or gmti, not {v:?}"))?,
        };
        Ok(Args {
            scale,
            dataset,
            json: args.iter().any(|a| a == "--json"),
            metrics: args.iter().any(|a| a == "--metrics"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_cases_times_slides() {
        let grid = config_grid(Dataset::Stt, 1000, &[100, 500]);
        assert_eq!(grid.len(), 6);
        assert!(grid.iter().all(|c| c.query.dim == 4));
    }

    #[test]
    fn parse_args() {
        let args =
            |list: &[&str]| Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let parsed = args(&["--scale", "0.25", "--dataset", "gmti", "--json"]).unwrap();
        assert_eq!(parsed.scale, 0.25);
        assert_eq!(parsed.dataset, Dataset::Gmti);
        assert!(parsed.json && !parsed.metrics);
        let default = args(&[]).unwrap();
        assert_eq!((default.scale, default.dataset), (1.0, Dataset::Stt));
        for bad in ["x", "0", "-1", "NaN", "inf"] {
            assert!(args(&["--scale", bad]).is_err(), "--scale {bad}");
        }
        assert!(args(&["--scale"]).is_err());
        assert!(args(&["--dataset", "taxi"]).is_err());
    }

    #[test]
    fn scaled_windows_divide_by_every_slide() {
        // fig7: slides win / {100, 10, 2}; fig8: slide win / 10.
        let harnesses: [(u64, &[u64]); 2] = [(400, &[100, 10, 2]), (500, &[10])];
        for scale in [1.0, 0.5, 0.2, 0.1, 0.1234, 0.0626, 0.05, 0.01, 0.3333, 1.7] {
            for (min, divisors) in harnesses {
                let win = scaled_window(10_000, scale, min, divisors[0]);
                assert!(win >= min, "scale {scale}: win {win}");
                for k in divisors {
                    assert!(
                        WindowSpec::count(win, win / k).is_ok(),
                        "scale {scale}: win {win} / {k}"
                    );
                }
            }
        }
        for scale in [1.0, 0.5, 0.2, 0.1] {
            for (min, divisors) in harnesses {
                let unrounded = ((10_000.0 * scale) as u64).max(min);
                assert_eq!(scaled_window(10_000, scale, min, divisors[0]), unrounded);
            }
        }
    }

    #[test]
    fn datasets_generate_points() {
        assert_eq!(Dataset::Stt.points(100).len(), 100);
        assert_eq!(Dataset::Gmti.points(100).len(), 100);
    }
}
