//! Registry snapshot → `--json` report rows, so every CI bench run
//! carries the engine's own observability counters alongside its
//! throughput numbers (the longitudinal `dev/bench` series can then
//! correlate a regression with, say, a park-rate or eviction change).

use sgs_obs::MetricValue;

use crate::json::JsonObject;

/// `--metrics` from CLI args: enable the process metric registry for
/// this run (one-way, like `RuntimeConfig::metrics`). Returns whether it
/// was requested.
pub fn parse_metrics(args: &[String]) -> bool {
    let on = args.iter().any(|a| a == "--metrics");
    if on {
        sgs_obs::enable();
    }
    on
}

/// Snapshot the process registry as one JSON row per metric, in name
/// order. Histograms flatten to their summary fields; with metrics
/// disabled every reading is zero (the rows still document the names).
pub fn metrics_json() -> Vec<JsonObject> {
    sgs_obs::registry()
        .snapshot()
        .into_iter()
        .map(|m| {
            let row = JsonObject::new().str("name", &m.name);
            match m.value {
                MetricValue::Counter(v) => row.str("type", "counter").u64("value", v),
                MetricValue::Gauge(v) => row.str("type", "gauge").i64("value", v),
                MetricValue::Histogram(h) => row
                    .str("type", "histogram")
                    .u64("count", h.count)
                    .u64("sum", h.sum)
                    .u64("max", h.max)
                    .u64("p50", h.p50)
                    .u64("p95", h.p95)
                    .u64("p99", h.p99),
            }
        })
        .collect()
}
