//! The planner: lowering parsed query ASTs into executable plans.
//!
//! `sgs-query` stops at the AST ([`DetectQuery`] / [`MatchQueryAst`]); this
//! module supplies the binding it lacks. Lowering a DETECT statement needs
//! one piece of information the query text does not carry — the
//! dimensionality of the named source stream, which is a property of the
//! source (see [`DetectQuery::to_cluster_query`]) — so the planner owns a
//! [`StreamCatalog`] mapping stream names to their metadata, in the
//! planner → executor shape of classic query engines.

use sgs_archive::ArchivePolicy;
use sgs_core::ClusterQuery;
use sgs_matching::MatchConfig;
use sgs_query::{parse_any, DetectQuery, MatchQueryAst, ParseError, QueryAst};

/// Registered source streams and their dimensionality. Stream names are
/// matched case-insensitively, like the grammar's keywords.
#[derive(Clone, Debug, Default)]
pub struct StreamCatalog {
    streams: Vec<(String, usize)>,
}

impl StreamCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        StreamCatalog::default()
    }

    /// Register (or re-register) a stream with its dimensionality.
    ///
    /// # Panics
    ///
    /// If `dim == 0`. Unlike query-text validation (which flows through
    /// [`PlanError`], since queries are user input), stream registration
    /// is part of the program's source configuration, so a zero dimension
    /// is a programming error.
    pub fn register(&mut self, name: &str, dim: usize) {
        assert!(dim > 0, "stream dimensionality must be positive");
        if let Some(entry) = self
            .streams
            .iter_mut()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
        {
            entry.1 = dim;
        } else {
            self.streams.push((name.to_string(), dim));
        }
    }

    /// Dimensionality of a registered stream.
    pub fn dim_of(&self, name: &str) -> Option<usize> {
        self.streams
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, d)| *d)
    }

    /// Registered stream names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.streams.iter().map(|(n, _)| n.as_str())
    }
}

/// Executable plan for a continuous clustering query: the validated
/// [`ClusterQuery`] plus the archive configuration its pipeline will run
/// with. Running this plan solo via `StreamPipeline::new(query, policy,
/// seed)` reproduces the runtime's per-query output byte-for-byte.
#[derive(Clone, Debug)]
pub struct DetectPlan {
    /// The source AST (kept for display and introspection).
    pub ast: DetectQuery,
    /// The validated, executable clustering query.
    pub query: ClusterQuery,
    /// Archive selection policy for this query's pattern archiver.
    pub policy: ArchivePolicy,
    /// RNG seed for sampling archive policies.
    pub seed: u64,
}

/// Executable plan for a cluster matching query: the validated
/// [`MatchConfig`]. The `GIVEN` binding is resolved at execution time
/// against the runtime's named-cluster bindings.
#[derive(Clone, Debug)]
pub struct MatchPlan {
    /// The source AST.
    pub ast: MatchQueryAst,
    /// The validated matching configuration.
    pub config: MatchConfig,
}

/// An executable plan for either statement kind.
#[derive(Clone, Debug)]
pub enum QueryPlan {
    /// Continuous clustering query → a registered pipeline.
    Detect(Box<DetectPlan>),
    /// Matching query → one execution against the history base.
    Match(MatchPlan),
}

/// Why a statement could not be lowered to a plan.
#[derive(Debug)]
pub enum PlanError {
    /// The text parsed as neither template.
    Parse(ParseError),
    /// The DETECT statement names a stream the catalog does not know.
    UnknownStream {
        /// The unresolved stream name.
        stream: String,
        /// The names the catalog does know.
        known: Vec<String>,
    },
    /// The AST was structurally valid but semantically rejected (bad θ,
    /// window geometry, or metric weights).
    Invalid(sgs_core::Error),
}

impl core::fmt::Display for PlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlanError::Parse(e) => write!(f, "{e}"),
            PlanError::UnknownStream { stream, known } => {
                write!(
                    f,
                    "unknown stream {stream:?}; registered streams: {known:?}"
                )
            }
            PlanError::Invalid(e) => write!(f, "invalid query: {e}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Parse(e) => Some(e),
            PlanError::Invalid(e) => Some(e),
            PlanError::UnknownStream { .. } => None,
        }
    }
}

/// Lowers query text / ASTs into executable [`QueryPlan`]s.
#[derive(Clone, Debug)]
pub struct Planner {
    catalog: StreamCatalog,
    /// Archive policy given to DETECT plans (overridable per plan before
    /// submission).
    pub default_policy: ArchivePolicy,
    /// Archiver RNG seed given to DETECT plans.
    pub default_seed: u64,
}

impl Planner {
    /// Planner over `catalog` with default archive settings
    /// ([`ArchivePolicy::All`], seed 0).
    pub fn new(catalog: StreamCatalog) -> Self {
        Planner {
            catalog,
            default_policy: ArchivePolicy::All,
            default_seed: 0,
        }
    }

    /// The stream catalog.
    pub fn catalog(&self) -> &StreamCatalog {
        &self.catalog
    }

    /// Mutable access to the stream catalog (to register streams).
    pub fn catalog_mut(&mut self) -> &mut StreamCatalog {
        &mut self.catalog
    }

    /// Parse and lower one statement of either template.
    pub fn plan(&self, text: &str) -> Result<QueryPlan, PlanError> {
        match parse_any(text).map_err(PlanError::Parse)? {
            QueryAst::Detect(ast) => self
                .lower_detect(ast)
                .map(|p| QueryPlan::Detect(Box::new(p))),
            QueryAst::Match(ast) => self.lower_match(ast).map(QueryPlan::Match),
        }
    }

    /// Lower a parsed DETECT statement, resolving the stream's
    /// dimensionality from the catalog.
    pub fn lower_detect(&self, ast: DetectQuery) -> Result<DetectPlan, PlanError> {
        let dim = self
            .catalog
            .dim_of(&ast.stream)
            .ok_or_else(|| PlanError::UnknownStream {
                stream: ast.stream.clone(),
                known: self.catalog.names().map(str::to_string).collect(),
            })?;
        let query = ast.to_cluster_query(dim).map_err(PlanError::Invalid)?;
        Ok(DetectPlan {
            ast,
            query,
            policy: self.default_policy.clone(),
            seed: self.default_seed,
        })
    }

    /// Lower a parsed matching statement, validating the metric weights.
    pub fn lower_match(&self, ast: MatchQueryAst) -> Result<MatchPlan, PlanError> {
        let config = ast.to_match_config().map_err(PlanError::Invalid)?;
        Ok(MatchPlan { ast, config })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> Planner {
        let mut catalog = StreamCatalog::new();
        catalog.register("gmti", 2);
        catalog.register("stt", 4);
        Planner::new(catalog)
    }

    const DETECT: &str = "DETECT DensityBasedClusters f+s FROM gmti \
                          USING theta_range = 0.5 AND theta_cnt = 8 \
                          IN Windows WITH win = 4000 AND slide = 1000";

    #[test]
    fn detect_plan_resolves_stream_dim() {
        let plan = planner().plan(DETECT).unwrap();
        let QueryPlan::Detect(plan) = plan else {
            panic!("expected a detect plan");
        };
        assert_eq!(plan.query.dim, 2);
        assert_eq!(plan.query.theta_c, 8);
        assert_eq!(plan.policy, ArchivePolicy::All);
    }

    #[test]
    fn unknown_stream_is_reported_with_catalog() {
        let err = planner().plan(&DETECT.replace("gmti", "nyse")).unwrap_err();
        match err {
            PlanError::UnknownStream { stream, known } => {
                assert_eq!(stream, "nyse");
                assert_eq!(known, vec!["gmti".to_string(), "stt".to_string()]);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn stream_names_are_case_insensitive_and_reregisterable() {
        let mut catalog = StreamCatalog::new();
        catalog.register("GMTI", 2);
        catalog.register("gmti", 3);
        assert_eq!(catalog.dim_of("Gmti"), Some(3));
        assert_eq!(catalog.names().count(), 1);
    }

    #[test]
    fn match_plan_validates_weights() {
        let p = planner();
        let good = "GIVEN DensityBasedClusters C \
                    SELECT DensityBasedClusters FROM History \
                    WHERE Distance(C, C) <= 0.2";
        assert!(matches!(p.plan(good), Ok(QueryPlan::Match(_))));
        let bad = format!("{good} USING ps = 0 AND weights = (0.5, 0.5, 0.5, 0.5)");
        assert!(matches!(p.plan(&bad), Err(PlanError::Invalid(_))));
    }

    #[test]
    fn parse_failures_surface() {
        assert!(matches!(
            planner().plan("DROP TABLE"),
            Err(PlanError::Parse(_))
        ));
    }
}
