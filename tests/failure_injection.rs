//! Failure injection and boundary conditions: the system must fail loudly
//! on invalid input and behave sensibly at parameter extremes.

use streamsum::prelude::*;

#[test]
fn dimension_mismatch_mid_stream_is_rejected_and_recoverable() {
    let query = ClusterQuery::new(0.5, 2, 2, WindowSpec::count(10, 5).unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 0).unwrap();
    pipeline.push(Point::new(vec![0.0, 0.0], 0)).unwrap();
    let err = pipeline.push(Point::new(vec![0.0], 1)).unwrap_err();
    assert!(matches!(
        err,
        Error::DimensionMismatch {
            expected: 2,
            got: 1
        }
    ));
    // The pipeline keeps working after the rejected point.
    for i in 2..30u64 {
        pipeline
            .push(Point::new(vec![(i % 3) as f64 * 0.1, 0.0], i))
            .unwrap();
    }
    assert!(pipeline.current_window().0 > 0);
}

#[test]
fn out_of_order_timestamps_rejected_for_time_windows() {
    let query = ClusterQuery::new(0.5, 2, 2, WindowSpec::time(100, 50).unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 0).unwrap();
    pipeline.push(Point::new(vec![0.0, 0.0], 10)).unwrap();
    let err = pipeline.push(Point::new(vec![0.0, 0.0], 5)).unwrap_err();
    assert!(matches!(
        err,
        Error::OutOfOrderTimestamp { last: 10, got: 5 }
    ));
}

#[test]
fn invalid_configurations_are_rejected_eagerly() {
    assert!(WindowSpec::count(0, 1).is_err());
    assert!(WindowSpec::count(10, 20).is_err());
    assert!(WindowSpec::count(10, 3).is_err());
    let spec = WindowSpec::count(10, 5).unwrap();
    assert!(ClusterQuery::new(-1.0, 2, 2, spec).is_err());
    assert!(ClusterQuery::new(0.5, 0, 2, spec).is_err());
    assert!(ClusterQuery::new(0.5, 2, 0, spec).is_err());
    let mut cfg = MatchConfig::equal_weights(false, 0.2);
    cfg.weights = [1.0, 1.0, 0.0, 0.0];
    assert!(cfg.validate().is_err());
}

#[test]
fn theta_c_one_makes_every_pair_a_cluster() {
    // θc = 1: any point with one neighbor is core.
    let query = ClusterQuery::new(1.0, 1, 2, WindowSpec::count(4, 4).unwrap()).unwrap();
    let mut naive = NaiveClusterer::new(query.clone());
    let mut csgs = CSgs::new(query);
    let mut pts = vec![
        Point::new(vec![0.0, 0.0], 0),
        Point::new(vec![0.5, 0.0], 1),
        Point::new(vec![10.0, 0.0], 2),
        Point::new(vec![10.5, 0.0], 3),
    ];
    // Sentinel to push the count past the window boundary so window 0
    // completes (replay does not flush partial windows).
    pts.push(Point::new(vec![99.0, 99.0], 4));
    let spec = WindowSpec::count(4, 4).unwrap();
    let a = replay(spec, pts.clone(), 2, &mut naive).unwrap();
    let b = replay(spec, pts, 2, &mut csgs).unwrap();
    assert_eq!(CanonicalClustering::from(a[0].1.clone()).len(), 2);
    assert_eq!(b[0].1.len(), 2);
    assert!(b[0].1.iter().all(|c| c.cores.len() == 2));
}

#[test]
fn coincident_points_count_as_neighbors() {
    // Many duplicates at one position: all mutual neighbors → one cluster.
    let query = ClusterQuery::new(0.1, 5, 2, WindowSpec::count(8, 8).unwrap()).unwrap();
    let mut csgs = CSgs::new(query);
    let mut pts: Vec<Point> = (0..8).map(|i| Point::new(vec![1.0, 1.0], i)).collect();
    pts.push(Point::new(vec![500.0, 500.0], 8)); // completes window 0
    let out = replay(WindowSpec::count(8, 8).unwrap(), pts, 2, &mut csgs).unwrap();
    assert_eq!(out[0].1.len(), 1);
    assert_eq!(out[0].1[0].cores.len(), 8);
    assert_eq!(out[0].1[0].sgs.volume(), 1);
}

#[test]
fn huge_theta_r_gives_one_cluster() {
    let query = ClusterQuery::new(1e6, 3, 2, WindowSpec::count(16, 16).unwrap()).unwrap();
    let mut csgs = CSgs::new(query);
    let mut pts: Vec<Point> = (0..16)
        .map(|i| {
            Point::new(
                vec![(i % 4) as f64 * 100.0, (i / 4) as f64 * 100.0],
                i as u64,
            )
        })
        .collect();
    pts.push(Point::new(vec![0.0, 0.0], 16)); // completes window 0
    let out = replay(WindowSpec::count(16, 16).unwrap(), pts, 2, &mut csgs).unwrap();
    assert_eq!(out[0].1.len(), 1);
    assert_eq!(out[0].1[0].population(), 16);
}

#[test]
fn negative_coordinates_work_end_to_end() {
    let query = ClusterQuery::new(0.5, 3, 2, WindowSpec::count(20, 10).unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 0).unwrap();
    let outs = pipeline
        .push_batch((0..60u64).map(|i| {
            let x = -10.0 + (i % 5) as f64 * 0.1;
            let y = -20.0 + (i % 7) as f64 * 0.1;
            Point::new(vec![x, y], i)
        }))
        .unwrap();
    assert!(!pipeline.base().is_empty());
    let recent = &outs.last().unwrap().1[0].sgs;
    assert!(recent.cells.iter().all(|c| c.coord.iter().all(|&v| v < 0)));
    let outcome = pipeline
        .base()
        .match_query(recent, &MatchConfig::equal_weights(true, 0.2));
    assert!(!outcome.matches.is_empty());
}

#[test]
fn window_larger_than_stream_emits_nothing() {
    let query = ClusterQuery::new(0.5, 2, 2, WindowSpec::count(1000, 100).unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 0).unwrap();
    let outs = pipeline
        .push_batch((0..50).map(|i| Point::new(vec![i as f64, 0.0], i)))
        .unwrap();
    assert!(outs.is_empty());
    assert_eq!(pipeline.base().len(), 0);
}

#[test]
fn matching_empty_archive_finds_nothing() {
    use streamsum::core::GridGeometry;
    let base = PatternBase::new();
    let cores: Vec<Box<[f64]>> = (0..10).map(|i| vec![i as f64 * 0.3, 0.0].into()).collect();
    let sgs = Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0));
    let out = base.match_query(&sgs, &MatchConfig::equal_weights(false, 0.5));
    assert!(out.matches.is_empty());
    assert_eq!(out.candidates, 0);
}

#[test]
fn three_dimensional_streams_work() {
    // d = 3: reach = ⌈√3⌉ = 2, adjacency 26 — exercises the generic paths.
    let query = ClusterQuery::new(0.5, 4, 3, WindowSpec::count(60, 30).unwrap()).unwrap();
    let mut naive = NaiveClusterer::new(query.clone());
    let mut csgs = CSgs::new(query);
    let pts: Vec<Point> = (0..180)
        .map(|i| {
            Point::new(
                vec![
                    (i % 4) as f64 * 0.15,
                    (i % 5) as f64 * 0.15,
                    (i % 3) as f64 * 0.15,
                ],
                i as u64,
            )
        })
        .collect();
    let spec = WindowSpec::count(60, 30).unwrap();
    let a = replay(spec, pts.clone(), 3, &mut naive).unwrap();
    let b = replay(spec, pts, 3, &mut csgs).unwrap();
    for ((_, na), (_, cs)) in a.iter().zip(b.iter()) {
        let ca = CanonicalClustering::from(na.clone());
        let cb = CanonicalClustering::from(
            cs.iter()
                .map(|c| streamsum::cluster::FullCluster {
                    cores: c.cores.clone(),
                    edges: c.edges.clone(),
                })
                .collect(),
        );
        assert_eq!(ca, cb);
    }
}

/// Coordinates whose cell index leaves no `i32` head-room at θr = 0.5
/// (`1.5e9` is an epoch-seconds-sized value), and the non-finite ones.
const UNADDRESSABLE: [f64; 5] = [1.5e9, 1e300, -1e300, f64::INFINITY, f64::NAN];

/// A 5 × 4 lattice of 0.2-spaced points around `(origin, -origin)`,
/// revisited forever.
fn lattice(origin: f64, i: u64) -> Point {
    let (x, y) = ((i % 5) as f64 * 0.2, ((i / 5) % 4) as f64 * 0.2);
    Point::new(vec![origin + x, y - origin], i)
}

#[test]
fn unaddressable_coordinates_are_a_typed_error_never_a_wrapped_cell() {
    let pipeline = || {
        let query = ClusterQuery::new(0.5, 2, 2, WindowSpec::count(40, 10).unwrap()).unwrap();
        StreamPipeline::new(query, ArchivePolicy::All, 0).unwrap()
    };
    let clean = pipeline()
        .push_batch((0..200).map(|i| lattice(0.0, i)))
        .unwrap();
    assert!(clean.iter().any(|(_, clusters)| !clusters.is_empty()));

    for bad in UNADDRESSABLE {
        let mut p = pipeline();
        // Mid-batch, like a dimension mismatch: the points before the
        // bad one are inserted, the rest of the batch is not.
        let mut batch: Vec<Point> = (0..25).map(|i| lattice(0.0, i)).collect();
        batch.push(Point::new(vec![0.1, bad], 25));
        batch.extend((26..30).map(|i| lattice(0.0, i)));
        let err = p.push_batch(batch).unwrap_err();
        assert!(matches!(err, Error::InvalidCoordinate(_)), "{bad}: {err}");
        assert_eq!(p.accepted(), 25);
        // Per point, on the other axis.
        let err = p.push(Point::new(vec![bad, 0.1], 25)).unwrap_err();
        assert!(matches!(err, Error::InvalidCoordinate(_)), "{bad}: {err}");
        // The rejected points left no trace: the rest of the stream
        // extracts exactly what a run that never saw them extracts.
        let outs = p.push_batch((25..200).map(|i| lattice(0.0, i))).unwrap();
        assert_eq!(outs, clean, "{bad}");
    }

    // Inside the limit the grid really is addressable: the same lattice
    // 3e8 out (cell index ≈ 8.5e8) clusters as it does at the origin.
    let far = pipeline()
        .push_batch((0..200).map(|i| lattice(3.0e8, i)))
        .unwrap();
    let populations = |outs: &[(WindowId, WindowOutput)]| -> Vec<Vec<usize>> {
        outs.iter()
            .map(|(_, clusters)| clusters.iter().map(|c| c.population()).collect())
            .collect()
    };
    assert_eq!(populations(&far), populations(&clean));
}

#[test]
fn an_unaddressable_coordinate_fails_only_the_queries_that_cannot_hold_it() {
    let detect = |stream: &str, theta_r: f64| {
        format!(
            "DETECT DensityBasedClusters f+s FROM {stream} \
             USING theta_range = {theta_r} AND theta_cnt = 2 \
             IN Windows WITH win = 40 AND slide = 10"
        )
    };
    let submit = |rt: &mut Runtime, text: String| match rt.submit(&text).unwrap() {
        Submission::Continuous(id) => id,
        Submission::Matches(_) => panic!("expected a continuous registration"),
    };
    for bad in UNADDRESSABLE {
        let mut rt = Runtime::new();
        rt.register_stream("s", 2);
        rt.register_stream("other", 2);
        let fine = submit(&mut rt, detect("s", 0.5));
        // Same stream, 10 000× the cell side: 1.5e9 is addressable here.
        let coarse = submit(&mut rt, detect("s", 5000.0));
        let bystander = submit(&mut rt, detect("other", 0.5));

        let mut batch: Vec<Point> = (0..100).map(|i| lattice(0.0, i)).collect();
        batch.push(Point::new(vec![bad, 0.1], 100));
        batch.extend((101..200).map(|i| lattice(0.0, i)));
        rt.push_stream("s", &batch).unwrap();
        rt.push_stream("other", &batch[..100]).unwrap();
        rt.quiesce().unwrap();

        assert_eq!(rt.state(fine).unwrap(), QueryState::Failed, "{bad}");
        let stats = rt.stats(fine).unwrap();
        let message = stats.error.as_deref().unwrap_or("");
        assert!(message.contains("invalid coordinate"), "{bad}: {message:?}");
        assert_eq!(stats.points, 100, "the prefix was accepted");
        // Windows completed before the failure were still delivered.
        assert_eq!(rt.poll(fine).unwrap().len() as u64, stats.windows);
        assert!(stats.windows > 0);

        let (state, points) = if bad == 1.5e9 {
            (QueryState::Running, 200)
        } else {
            (QueryState::Failed, 100)
        };
        assert_eq!(rt.state(coarse).unwrap(), state, "{bad}");
        assert_eq!(rt.stats(coarse).unwrap().points, points, "{bad}");

        // Other queries keep running and keep accepting good points.
        assert_eq!(rt.state(bystander).unwrap(), QueryState::Running);
        rt.push_stream("other", &batch[101..]).unwrap();
        rt.push_stream("s", &batch[101..]).unwrap();
        rt.quiesce().unwrap();
        assert_eq!(rt.stats(bystander).unwrap().points, 199);
        assert_eq!(
            rt.stats(fine).unwrap().points,
            100,
            "a failed query stays failed"
        );
    }
}
