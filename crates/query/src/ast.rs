//! Parsed query representations.

use sgs_core::{ClusterQuery, Result, WindowSpec};
use sgs_matching::{MatchConfig, DEFAULT_ALIGNMENT_BUDGET};

/// Which representations a continuous query returns (Fig. 2's `f+s`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputFormat {
    /// Full representation only.
    Full,
    /// Summarized (SGS) representation only.
    Summarized,
    /// Both (`f+s`).
    Both,
}

/// A parsed continuous clustering query (Fig. 2).
#[derive(Clone, Debug, PartialEq)]
pub struct DetectQuery {
    /// Requested output representations.
    pub output: OutputFormat,
    /// Source stream name (free identifier after `FROM`).
    pub stream: String,
    /// Range threshold θr.
    pub theta_range: f64,
    /// Count threshold θc.
    pub theta_cnt: u32,
    /// Window extent.
    pub win: u64,
    /// Slide extent.
    pub slide: u64,
    /// `true` for time-based windows (`WITH win = 10 SECONDS`-style units
    /// are normalized by the parser).
    pub time_based: bool,
}

impl DetectQuery {
    /// Materialize into an executable [`ClusterQuery`]. Dimensionality is
    /// a property of the stream source and is supplied here.
    pub fn to_cluster_query(&self, dim: usize) -> Result<ClusterQuery> {
        let spec = if self.time_based {
            WindowSpec::time(self.win, self.slide)?
        } else {
            WindowSpec::count(self.win, self.slide)?
        };
        ClusterQuery::new(self.theta_range, self.theta_cnt, dim, spec)
    }
}

impl core::fmt::Display for OutputFormat {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            OutputFormat::Full => "f",
            OutputFormat::Summarized => "s",
            OutputFormat::Both => "f+s",
        })
    }
}

impl core::fmt::Display for DetectQuery {
    /// Render in the canonical Fig. 2 surface syntax. The rendering
    /// round-trips: `parse_detect(&q.to_string()) == Ok(q)` (f64 `Display`
    /// is shortest-round-trip, and the lexer re-reads it exactly).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "DETECT DensityBasedClusters {} FROM {} \
             USING theta_range = {} AND theta_cnt = {} \
             IN Windows WITH win = {} AND slide = {}",
            self.output, self.stream, self.theta_range, self.theta_cnt, self.win, self.slide,
        )?;
        if self.time_based {
            f.write_str(" TIME")?;
        }
        Ok(())
    }
}

/// A parsed cluster matching query (Fig. 3).
#[derive(Clone, Debug, PartialEq)]
pub struct MatchQueryAst {
    /// Name of the to-be-matched cluster (the `GIVEN` binding).
    pub given: String,
    /// Similarity threshold from the `WHERE Distance(..) <= t` clause.
    pub threshold: f64,
    /// Position sensitivity (`ps = 0|1`); defaults to non-sensitive.
    pub position_sensitive: bool,
    /// Feature weights; default equal.
    pub weights: [f64; 4],
}

impl MatchQueryAst {
    /// Materialize into an executable [`MatchConfig`].
    pub fn to_match_config(&self) -> Result<MatchConfig> {
        let config = MatchConfig {
            position_sensitive: self.position_sensitive,
            weights: self.weights,
            threshold: self.threshold,
            alignment_budget: DEFAULT_ALIGNMENT_BUDGET,
        };
        config.validate()?;
        Ok(config)
    }
}

impl core::fmt::Display for MatchQueryAst {
    /// Render in the canonical Fig. 3 surface syntax (with the `USING`
    /// metric-customization extension always spelled out, since the AST
    /// does not record whether the defaults were explicit). The rendering
    /// round-trips: `parse_match(&q.to_string()) == Ok(q)`.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "GIVEN DensityBasedClusters {g} \
             SELECT DensityBasedClusters FROM History \
             WHERE Distance({g}, {g}) <= {} \
             USING ps = {} AND weights = ({}, {}, {}, {})",
            self.threshold,
            u8::from(self.position_sensitive),
            self.weights[0],
            self.weights[1],
            self.weights[2],
            self.weights[3],
            g = self.given,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_display_is_canonical() {
        let q = DetectQuery {
            output: OutputFormat::Both,
            stream: "gmti".into(),
            theta_range: 0.1,
            theta_cnt: 8,
            win: 10_000,
            slide: 1_000,
            time_based: false,
        };
        assert_eq!(
            q.to_string(),
            "DETECT DensityBasedClusters f+s FROM gmti \
             USING theta_range = 0.1 AND theta_cnt = 8 \
             IN Windows WITH win = 10000 AND slide = 1000"
        );
        let timed = DetectQuery {
            output: OutputFormat::Full,
            time_based: true,
            ..q
        };
        assert!(timed
            .to_string()
            .starts_with("DETECT DensityBasedClusters f FROM"));
        assert!(timed.to_string().ends_with(" TIME"));
    }

    #[test]
    fn match_display_is_canonical() {
        let q = MatchQueryAst {
            given: "Ci".into(),
            threshold: 0.2,
            position_sensitive: true,
            weights: [0.1, 0.2, 0.3, 0.4],
        };
        assert_eq!(
            q.to_string(),
            "GIVEN DensityBasedClusters Ci \
             SELECT DensityBasedClusters FROM History \
             WHERE Distance(Ci, Ci) <= 0.2 \
             USING ps = 1 AND weights = (0.1, 0.2, 0.3, 0.4)"
        );
    }

    #[test]
    fn detect_query_materializes() {
        let q = DetectQuery {
            output: OutputFormat::Both,
            stream: "stream".into(),
            theta_range: 0.1,
            theta_cnt: 8,
            win: 10_000,
            slide: 1_000,
            time_based: false,
        };
        let cq = q.to_cluster_query(4).unwrap();
        assert_eq!(cq.theta_c, 8);
        assert_eq!(cq.window.views(), 10);
    }

    #[test]
    fn match_query_materializes_and_validates() {
        let q = MatchQueryAst {
            given: "C1".into(),
            threshold: 0.2,
            position_sensitive: true,
            weights: [0.25; 4],
        };
        let cfg = q.to_match_config().unwrap();
        assert!(cfg.position_sensitive);

        let bad = MatchQueryAst {
            weights: [0.5; 4],
            ..q
        };
        assert!(bad.to_match_config().is_err());
    }
}
