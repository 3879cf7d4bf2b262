//! Output checks against independent references: snapshot DBSCAN and the
//! two-phase SGS construction for windows, the exhaustive scan for MATCH.
//! None of them shares code with the incremental paths being measured.

use sgs_archive::PatternBase;
use sgs_cluster::{cluster_snapshot, CanonicalClustering, FullCluster};
use sgs_core::{ClusterQuery, PointId, WindowId};
use sgs_csgs::{ExtractedCluster, WindowOutput};
use sgs_matching::MatchConfig;
use sgs_summarize::{CellStatus, MemberSet, Sgs};

use crate::input::Replay;
use crate::transcript::KeptMatch;

/// A cluster's members by coordinate, looked up in the stream by id.
pub fn members_of(replay: &Replay, cluster: &ExtractedCluster) -> MemberSet {
    let coords = |ids: &[PointId]| -> Vec<Box<[f64]>> {
        ids.iter()
            .map(|p| replay.point(u64::from(p.0)).coords)
            .collect()
    };
    MemberSet::new(coords(&cluster.cores), coords(&cluster.edges))
}

/// Check one count-based window's output: its clusters must equal a
/// from-scratch DBSCAN of the window's tuples, and every cluster's summary
/// must equal the offline construction from its members.
pub fn check_window(
    replay: &Replay,
    query: &ClusterQuery,
    id: WindowId,
    output: &WindowOutput,
) -> Result<(), String> {
    let spec = query.window;
    let points: Vec<_> = (spec.window_start(id.0)..spec.window_end(id.0))
        .map(|seq| (PointId(seq as u32), replay.point(seq)))
        .collect();
    let want = CanonicalClustering::from(cluster_snapshot(&points, query));
    let got = CanonicalClustering::from(
        output
            .iter()
            .map(|c| FullCluster {
                cores: c.cores.clone(),
                edges: c.edges.clone(),
            })
            .collect(),
    );
    if want != got {
        return Err(format!(
            "window {}: {} clusters, reference DBSCAN finds {}",
            id.0,
            got.len(),
            want.len()
        ));
    }
    let geometry = query.basic_grid();
    for cluster in output {
        let offline = Sgs::from_members(&members_of(replay, cluster), &geometry);
        let same = cluster.sgs.cells.len() == offline.cells.len()
            && cluster.sgs.cells.iter().zip(&offline.cells).all(|(a, b)| {
                a.coord == b.coord
                    && a.status == b.status
                    && a.connections == b.connections
                    && (a.status != CellStatus::Core || a.population == b.population)
            });
        if !same {
            return Err(format!(
                "window {}: a cluster's SGS differs from the two-phase construction",
                id.0
            ));
        }
    }
    Ok(())
}

/// Check one MATCH answer against an index-free scan of the history. The
/// history only grows and ids are handed out in order, so the patterns
/// present when the query ran are exactly those with smaller ids.
///
/// The check is for soundness: every reported match must be in the scan's
/// answer, with the same distance and in the same order. It is not for
/// completeness, because the cluster-level filter in front of the refine
/// step is not a lower bound of the grid-level distance and dismisses a
/// true match now and then. Returns (matches reported, matches the scan
/// finds), so the caller can report the recall.
pub fn check_match(
    base: &PatternBase,
    config: &MatchConfig,
    kept: &KeptMatch,
) -> Result<(usize, usize), String> {
    let mut oracle = base.match_query_exhaustive(&kept.query, config).matches;
    oracle.retain(|m| (m.id.0 as usize) < kept.history_len);
    let reported = &kept.outcome.matches;
    let mut rest = oracle.iter();
    if !reported.iter().all(|m| rest.any(|o| o == m)) {
        return Err(format!(
            "MATCH over {} patterns reported {:?}, which the exhaustive scan's {:?} does not contain in order",
            kept.history_len, reported, oracle
        ));
    }
    Ok((reported.len(), oracle.len()))
}
