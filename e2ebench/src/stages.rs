//! Stages measured alone, outside the pipeline: what a layer costs when
//! nothing else competes for the caches. A traced run reports them beside
//! the in-pipeline spans so the two can be compared.

use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

use sgs_archive::{DurableConfig, DurablePatternBase};
use sgs_core::{PointId, WindowId};
use sgs_csgs::WindowOutput;
use sgs_index::GridIndex;
use sgs_obs::MetricValue;
use sgs_runtime::{Planner, StreamCatalog};
use sgs_summarize::{packed, MemberSet, Sgs};

use crate::input::Replay;
use crate::workloads::{Spec, MATCH_TEXT};

/// Sum of a registry metric over all its label sets: counters and gauges
/// by value, histograms by `pick`.
pub fn obs_total(base_name: &str, pick: fn(&sgs_obs::HistogramSnapshot) -> u64) -> u64 {
    sgs_obs::registry()
        .snapshot()
        .iter()
        .filter(|m| m.name.split('{').next() == Some(base_name))
        .map(|m| match &m.value {
            MetricValue::Counter(v) => *v,
            MetricValue::Gauge(v) => (*v).max(0) as u64,
            MetricValue::Histogram(h) => pick(h),
        })
        .sum()
}

pub struct IndexAlone {
    pub rqs_ns_per_tuple: f64,
    pub neighbors_per_query: f64,
}

/// The grid index alone: one range query and one insert per tuple over the
/// workload's own stream, the oldest tuple removed once the window is full.
pub fn index_alone(spec: &Spec, replay: &Replay, tuples: u64) -> IndexAlone {
    let query = spec.query();
    let points: Vec<_> = (0..tuples).map(|seq| replay.point(seq)).collect();
    let mut index = GridIndex::new(query.basic_grid());
    let mut live = VecDeque::with_capacity(spec.win as usize);
    let mut out = Vec::new();
    let mut neighbors = 0u64;
    let start = Instant::now();
    for (seq, p) in points.iter().enumerate() {
        let id = PointId(seq as u32);
        if live.len() as u64 == spec.win {
            let (old, cell) = live.pop_front().expect("window is full");
            index.remove(old, &cell);
        }
        out.clear();
        index.range_query(&p.coords, query.theta_r, id, &mut out);
        neighbors += out.len() as u64;
        let cell = index.insert_expiring(id, p, WindowId(seq as u64 / spec.slide + 1));
        live.push_back((id, cell));
    }
    let nanos = start.elapsed().as_nanos() as f64;
    IndexAlone {
        rqs_ns_per_tuple: nanos / tuples as f64,
        neighbors_per_query: neighbors as f64 / tuples as f64,
    }
}

pub struct SummarizeAlone {
    pub two_phase_us_per_cluster: f64,
    pub packed_bytes_per_cluster: f64,
}

/// The two-phase reference of §5: build each kept cluster's SGS offline
/// from its members, as an extractor without integrated summarization
/// would after every slide.
pub fn summarize_alone(
    spec: &Spec,
    replay: &Replay,
    kept: &[(WindowId, WindowOutput)],
) -> SummarizeAlone {
    let geometry = spec.query().basic_grid();
    let members: Vec<MemberSet> = kept
        .iter()
        .flat_map(|(_, out)| out.iter())
        .map(|c| crate::verify::members_of(replay, c))
        .collect();
    let start = Instant::now();
    let packed_bytes: usize = members
        .iter()
        .map(|m| packed::archived_bytes(&std::hint::black_box(Sgs::from_members(m, &geometry))))
        .sum();
    let micros = start.elapsed().as_secs_f64() * 1e6;
    let n = members.len().max(1) as f64;
    SummarizeAlone {
        two_phase_us_per_cluster: micros / n,
        packed_bytes_per_cluster: packed_bytes as f64 / n,
    }
}

pub struct DurableAlone {
    pub wal_append_us_per_insert: f64,
    pub fsyncs_per_insert: f64,
    pub wal_bytes_per_insert: f64,
    pub checkpoint_ms: f64,
    pub open_ms: f64,
    pub pool_hit_ratio: f64,
}

/// The durable archive alone, on a directory inside the checkout (so the
/// file system is whatever the checkout sits on: sandbox numbers, not
/// disk numbers). No workload runs durable; this sizes what one would pay.
pub fn durable_alone(patterns: &[Sgs], dir: &Path) -> Result<DurableAlone, String> {
    let err = |e: sgs_archive::PersistError| e.to_string();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    // Never checkpoint on its own: the WAL length after the inserts is
    // then exactly what they appended.
    let config = DurableConfig {
        checkpoint_wal_bytes: u64::MAX,
        ..DurableConfig::default()
    };
    let result = (|| {
        let mut base = DurablePatternBase::open(dir, config.clone()).map_err(err)?;
        let fsyncs = || obs_total("sgs_archive_wal_fsync_nanos", |h| h.count);
        let fsyncs_before = fsyncs();
        let start = Instant::now();
        for (i, sgs) in patterns.iter().enumerate() {
            base.try_insert(sgs.clone(), WindowId(i as u64))
                .map_err(err)?;
        }
        let insert_micros = start.elapsed().as_secs_f64() * 1e6;
        let n = patterns.len().max(1) as f64;
        let wal_bytes = base.wal_bytes().unwrap_or(0) as f64;
        let fsyncs = (fsyncs() - fsyncs_before) as f64;

        let start = Instant::now();
        base.checkpoint().map_err(err)?;
        let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
        drop(base);

        let start = Instant::now();
        let base = DurablePatternBase::open(dir, config.clone()).map_err(err)?;
        let open_ms = start.elapsed().as_secs_f64() * 1e3;
        if base.len() != patterns.len() {
            return Err(format!(
                "reopened archive holds {} patterns, {} were inserted",
                base.len(),
                patterns.len()
            ));
        }
        let pool = base.pool_stats().unwrap_or_default();
        Ok(DurableAlone {
            wal_append_us_per_insert: insert_micros / n,
            fsyncs_per_insert: fsyncs / n,
            wal_bytes_per_insert: wal_bytes / n,
            checkpoint_ms,
            open_ms,
            pool_hit_ratio: pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64,
        })
    })();
    let _ = std::fs::remove_dir_all(dir);
    result
}

/// Mean time to parse and plan the workload's DETECT text and the MATCH
/// text, in microseconds.
pub fn plan_us(spec: &Spec) -> f64 {
    let mut catalog = StreamCatalog::new();
    catalog.register(spec.dataset.stream_name(), spec.dataset.dim());
    let planner = Planner::new(catalog);
    let detect = spec.detect_text();
    const ROUNDS: u32 = 200;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        std::hint::black_box(planner.plan(&detect).expect("DETECT plans"));
        std::hint::black_box(planner.plan(MATCH_TEXT).expect("MATCH plans"));
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(2 * ROUNDS)
}
