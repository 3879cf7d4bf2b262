//! Cross-algorithm equivalence: the §8.1 correctness claim, checked on
//! both synthetic datasets and several parameter settings.
//!
//! Footnote 3 of the paper: every algorithm following the Def. 3.1
//! semantics must produce identical clusters. We require per-window
//! canonical equality of naive DBSCAN, Extra-N, and C-SGS.

use streamsum::cluster::FullCluster;
use streamsum::prelude::*;

fn canonical_csgs(out: &WindowOutput) -> CanonicalClustering {
    CanonicalClustering::from(
        out.iter()
            .map(|c| FullCluster {
                cores: c.cores.clone(),
                edges: c.edges.clone(),
            })
            .collect(),
    )
}

fn check_all(points: Vec<Point>, query: ClusterQuery) -> usize {
    let dim = query.dim;
    let spec = query.window;
    let mut naive = NaiveClusterer::new(query.clone());
    let mut extra = ExtraN::new(query.clone());
    let mut csgs = CSgs::new(query);
    let naive_out = replay(spec, points.iter().cloned(), dim, &mut naive).unwrap();
    let extra_out = replay(spec, points.iter().cloned(), dim, &mut extra).unwrap();
    let csgs_out = replay(spec, points, dim, &mut csgs).unwrap();
    assert!(
        !naive_out.is_empty(),
        "stream too short to complete a window"
    );
    assert_eq!(naive_out.len(), extra_out.len());
    assert_eq!(naive_out.len(), csgs_out.len());
    let mut nonempty = 0;
    for (((w, a), (_, b)), (_, c)) in naive_out.iter().zip(extra_out.iter()).zip(csgs_out.iter()) {
        let ca = CanonicalClustering::from(a.clone());
        let cb = CanonicalClustering::from(b.clone());
        let cc = canonical_csgs(c);
        assert_eq!(ca, cb, "naive vs Extra-N at {w}");
        assert_eq!(ca, cc, "naive vs C-SGS at {w}");
        if !ca.is_empty() {
            nonempty += 1;
        }
    }
    nonempty
}

#[test]
fn gmti_case_grid() {
    let points = generate_gmti(&GmtiConfig {
        n_records: 5_000,
        ..GmtiConfig::default()
    });
    let mut nonempty = 0;
    for (theta_r, theta_c) in [(0.25, 10), (0.5, 8), (1.0, 5)] {
        for slide in [250u64, 500] {
            let spec = WindowSpec::count(1000, slide).unwrap();
            let q = ClusterQuery::new(theta_r, theta_c, 2, spec).unwrap();
            nonempty += check_all(points.clone(), q);
        }
    }
    assert!(nonempty > 0, "no configuration produced clusters — vacuous");
}

#[test]
fn stt_case_grid() {
    let points = generate_stt(&SttConfig {
        n_records: 6_000,
        ..SttConfig::default()
    });
    let mut nonempty = 0;
    for (theta_r, theta_c) in [(0.05, 10), (0.1, 8), (0.2, 5)] {
        for slide in [200u64, 500] {
            let spec = WindowSpec::count(2000, slide).unwrap();
            let q = ClusterQuery::new(theta_r, theta_c, 4, spec).unwrap();
            nonempty += check_all(points.clone(), q);
        }
    }
    assert!(nonempty > 0, "no configuration produced clusters — vacuous");
}

#[test]
fn extreme_view_count() {
    // slide = win/50: Extra-N maintains 50 views; C-SGS must still agree.
    let points = generate_gmti(&GmtiConfig {
        n_records: 2_500,
        ..GmtiConfig::default()
    });
    let spec = WindowSpec::count(1000, 20).unwrap();
    let q = ClusterQuery::new(0.5, 6, 2, spec).unwrap();
    assert!(check_all(points, q) > 0);
}

#[test]
fn tumbling_window() {
    // slide == win: every window is fresh; lifespans are all 1.
    let points = generate_gmti(&GmtiConfig {
        n_records: 4_000,
        ..GmtiConfig::default()
    });
    let spec = WindowSpec::count(800, 800).unwrap();
    let q = ClusterQuery::new(0.5, 6, 2, spec).unwrap();
    assert!(check_all(points, q) > 0);
}

#[test]
fn time_based_windows_agree() {
    // Time-based semantics: GMTI timestamps advance one per record, so a
    // time window of 1000 units behaves like a count window but exercises
    // the Time code path end to end.
    let points = generate_gmti(&GmtiConfig {
        n_records: 4_000,
        ..GmtiConfig::default()
    });
    let spec = WindowSpec::time(1000, 250).unwrap();
    let q = ClusterQuery::new(0.5, 6, 2, spec).unwrap();
    assert!(check_all(points, q) > 0);
}
