//! Query language → execution: the full path from the paper's surface
//! syntax (Figs. 2–3) to running clusters and matches.

use streamsum::prelude::*;
use streamsum::query::OutputFormat;

#[test]
fn detect_statement_drives_the_pipeline() {
    let detect = parse_detect(
        "DETECT DensityBasedClusters f+s FROM gmti \
         USING theta_range = 0.6 AND theta_cnt = 6 \
         IN Windows WITH win = 2000 AND slide = 500",
    )
    .unwrap();
    assert_eq!(detect.output, OutputFormat::Both);
    let query = detect.to_cluster_query(2).unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 1).unwrap();
    let stream = generate_gmti(&GmtiConfig {
        n_records: 6_000,
        ..GmtiConfig::default()
    });
    let outs = pipeline.push_batch(stream).unwrap();
    assert!(!outs.is_empty());
    assert!(outs.iter().any(|(_, cs)| !cs.is_empty()));
}

#[test]
fn match_statement_drives_the_analyzer() {
    // Build a history first.
    let query = parse_detect(
        "DETECT DensityBasedClusters FROM gmti \
         USING theta_range = 0.6 AND theta_cnt = 6 \
         IN Windows WITH win = 2000 AND slide = 500",
    )
    .unwrap()
    .to_cluster_query(2)
    .unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 1).unwrap();
    let outs = pipeline
        .push_batch(generate_gmti(&GmtiConfig {
            n_records: 8_000,
            ..GmtiConfig::default()
        }))
        .unwrap();

    let ast = parse_match(
        "GIVEN DensityBasedClusters Cq \
         SELECT DensityBasedClusters Ch FROM History \
         WHERE Distance(Cq, Ch) <= 0.25 \
         USING ps = 1",
    )
    .unwrap();
    let config = ast.to_match_config().unwrap();
    assert!(config.position_sensitive);

    let query_cluster = &outs.last().unwrap().1[0].sgs;
    let outcome = pipeline.base().match_query(query_cluster, &config);
    // The cluster's own archived copy must be found at distance ~0.
    assert!(!outcome.matches.is_empty());
    assert!(outcome.matches[0].distance <= 0.25);
}

#[test]
fn time_based_detect_statement() {
    let detect = parse_detect(
        "DETECT DensityBasedClusters s FROM gmti \
         USING theta_range = 0.6 AND theta_cnt = 6 \
         IN Windows WITH win = 1500 AND slide = 500 TIME",
    )
    .unwrap();
    assert!(detect.time_based);
    assert_eq!(detect.output, OutputFormat::Summarized);
    let query = detect.to_cluster_query(2).unwrap();
    // GMTI timestamps advance one per record → time windows behave
    // predictably.
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 1).unwrap();
    let outs = pipeline
        .push_batch(generate_gmti(&GmtiConfig {
            n_records: 5_000,
            ..GmtiConfig::default()
        }))
        .unwrap();
    assert!(!outs.is_empty());
}

#[test]
fn weighted_match_statement_changes_results() {
    let query = ClusterQuery::new(0.6, 6, 2, WindowSpec::count(2000, 500).unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 1).unwrap();
    let outs = pipeline
        .push_batch(generate_gmti(&GmtiConfig {
            n_records: 8_000,
            ..GmtiConfig::default()
        }))
        .unwrap();
    let q = &outs.last().unwrap().1[0].sgs;

    let volume_only = parse_match(
        "GIVEN DensityBasedClusters C SELECT DensityBasedClusters FROM History \
         WHERE Distance(C, C) <= 0.10 USING ps = 0 AND weights = (1.0, 0.0, 0.0, 0.0)",
    )
    .unwrap()
    .to_match_config()
    .unwrap();
    let equal = MatchConfig::equal_weights(false, 0.10);

    let a = pipeline.base().match_query(q, &volume_only);
    let b = pipeline.base().match_query(q, &equal);
    // Different metrics → different candidate sets (almost surely on this
    // archive); both must at least find the self-match.
    assert!(!a.matches.is_empty());
    assert!(!b.matches.is_empty());
}
