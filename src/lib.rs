//! # streamsum
//!
//! A from-scratch Rust implementation of *"Summarization and Matching of
//! Density-Based Clusters in Streaming Environments"* (Yang, Rundensteiner,
//! Ward — VLDB 2011): the Skeletal Grid Summarization (SGS), the integrated
//! C-SGS extraction + summarization algorithm with lifespan analysis, the
//! pattern archive, and the filter-and-refine cluster matching engine that
//! filters it on locational and non-locational features — together with the
//! Extra-N baseline and DBSCAN ground truth. The other formats and
//! distances the evaluation compares against (CRD, RSP, SkPS, GED,
//! Hungarian, Chamfer) live with the figures that measure them, in the
//! `sgs-bench` crate, which this facade does not re-export.
//!
//! ## Quick start
//!
//! ```
//! use streamsum::prelude::*;
//!
//! // A continuous clustering query: θr = 0.5, θc = 3, 2-d data,
//! // count-based windows of 200 tuples sliding by 50.
//! let query = ClusterQuery::new(
//!     0.5, 3, 2, WindowSpec::count(200, 50).unwrap(),
//! ).unwrap();
//! let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 7).unwrap();
//!
//! // Feed a stream; completed windows yield clusters in full + SGS form
//! // and are archived automatically.
//! let mut last_window = Vec::new();
//! for i in 0..400u64 {
//!     let x = (i % 20) as f64 * 0.1;
//!     let y = ((i / 20) % 3) as f64 * 0.1;
//!     let outputs = pipeline.push(Point::new(vec![x, y], i)).unwrap();
//!     for (window, clusters) in outputs {
//!         for c in &clusters {
//!             assert!(c.population() > 0);
//!             assert!(c.sgs.volume() > 0);
//!             let _ = (window, c);
//!         }
//!         last_window = clusters;
//!     }
//! }
//!
//! // Match a cluster of interest against the stream history.
//! let config = MatchConfig::equal_weights(false, 0.2);
//! if let Some(recent) = last_window.first() {
//!     let outcome = pipeline.base().match_query(&recent.sgs, &config);
//!     assert!(!outcome.matches.is_empty());
//! }
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] | points, grid geometry, windows, queries, memory accounting |
//! | [`exec`] | shared scheduler pool (persistent workers, one FIFO task queue) |
//! | [`stream`] | window engine, lifespan analysis (Obs. 5.2–5.4) |
//! | [`index`] | grid index, bounding rectangles, union-find |
//! | [`cluster`] | DBSCAN ground truth, Extra-N baseline |
//! | [`summarize`] | SGS, multi-resolution, the SGS codec, §8.2's byte count |
//! | [`csgs`] | the integrated C-SGS algorithm |
//! | [`matching`] | distance metric, grid-level match, alignment search and its bound |
//! | [`archive`] | pattern archiver + pattern base |
//! | [`query`] | DETECT/MATCH query language (lexer, parser, AST) |
//! | [`runtime`] | multi-query planner, registry, pool-multiplexed executor, the `Runtime` surface |
//! | [`wire`] | length-prefixed, versioned binary protocol of the network front-end |
//! | [`client`] | blocking TCP client for a `streamsum-server` |
//! | [`server`] | the TCP server multiplexing remote sessions onto one shared `Runtime` |
//! | [`datagen`] | GMTI- and STT-like stream generators |
//!
//! ## Serving many queries at once
//!
//! The [`runtime::Runtime`] executes query-language text
//! directly, fanning one ingested stream out to any number of concurrent
//! continuous queries — multiplexed over the shared scheduler pool
//! ([`exec`]) behind bounded, backpressured input queues,
//! so idle queries cost zero threads — while matching statements run
//! against their shared history:
//!
//! ```
//! use streamsum::prelude::*;
//!
//! let mut rt = Runtime::new();
//! rt.register_stream("demo", 2);
//! let Submission::Continuous(id) = rt.submit(
//!     "DETECT DensityBasedClusters f+s FROM demo \
//!      USING theta_range = 0.5 AND theta_cnt = 2 \
//!      IN Windows WITH win = 40 AND slide = 10",
//! ).unwrap() else { unreachable!() };
//! let points: Vec<Point> = (0..200)
//!     .map(|i| Point::new(vec![(i % 5) as f64 * 0.2, ((i / 5) % 4) as f64 * 0.2], i))
//!     .collect();
//! rt.push_batch(&points).unwrap();
//! rt.quiesce().unwrap();
//! assert!(!rt.poll(id).unwrap().is_empty());
//! ```

pub use sgs_archive as archive;
pub use sgs_client as client;
pub use sgs_cluster as cluster;
pub use sgs_core as core;
pub use sgs_csgs as csgs;
pub use sgs_datagen as datagen;
pub use sgs_exec as exec;
pub use sgs_index as index;
pub use sgs_matching as matching;
pub use sgs_obs as obs;
pub use sgs_query as query;
pub use sgs_runtime as runtime;
pub use sgs_server as server;
pub use sgs_stream as stream;
pub use sgs_summarize as summarize;
pub use sgs_wire as wire;

/// One-stop imports for applications.
pub mod prelude {
    pub use sgs_archive::{ArchivePolicy, MatchOutcome, MatchResult, PatternBase, PatternId};
    pub use sgs_client::{
        ClientConfig, ClientError, QueryHandle, Session, Submitted, SubscribeHandle,
    };
    pub use sgs_cluster::{cluster_snapshot, CanonicalClustering, ExtraN, NaiveClusterer};
    pub use sgs_core::{
        ClusterQuery, Error, Point, PointId, PoolThreads, Result, WindowId, WindowSpec,
    };
    pub use sgs_csgs::{CSgs, ExtractedCluster, WindowOutput};
    pub use sgs_datagen::{generate_gmti, generate_stt, GmtiConfig, SttConfig};
    pub use sgs_matching::MatchConfig;
    pub use sgs_query::{
        parse_any, parse_detect, parse_match, DetectQuery, MatchQueryAst, QueryAst,
    };
    pub use sgs_runtime::{
        DetectPlan, MatchPlan, OwnerId, QueryId, QueryPlan, QueryReport, QueryState, QueryStats,
        Runtime, RuntimeConfig, RuntimeError, StreamPipeline, Submission,
    };
    pub use sgs_server::{Server, ServerConfig, ServerHandle};
    pub use sgs_stream::{replay, WindowConsumer, WindowEngine};
    pub use sgs_summarize::{MemberSet, Sgs};
    pub use sgs_wire::{
        Frame, WireMetric, WireMetricValue, WireQuery, WireQueryState, WireStats, WIRE_VERSION,
    };
}
