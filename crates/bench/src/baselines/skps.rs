//! SkPS — Skeletal Point Summarization (§4.2), the graph-based design the
//! paper explores first and ultimately rejects.
//!
//! An SkPS is a minimal set of connected core objects whose neighborhoods
//! cover every cluster member, with the neighbor relations among them as
//! edges (Def. 4.1). Exact minimality is NP-complete, so [`SkPs::from_members`]
//! uses the greedy connected-dominating-set approximation of [`super::cds`].
//! Its flaws — weak density description, expensive construction, and
//! non-determinism (different member orders give structurally different
//! summaries) — are reproduced faithfully; they are what Figs. 7–9 measure.

use sgs_core::{Point, PointId};
use sgs_index::GridIndex;
use sgs_summarize::MemberSet;

use super::cds::greedy_cds;

/// Graph summary: skeletal points (selected cores) and the neighbor
/// relations among them.
#[derive(Clone, Debug, PartialEq)]
pub struct SkPs {
    /// Positions of the skeletal points.
    pub points: Vec<Box<[f64]>>,
    /// Undirected edges between skeletal points (indices into `points`,
    /// stored with `a < b`).
    pub edges: Vec<(u32, u32)>,
    /// Population of the summarized cluster.
    pub population: u32,
}

impl SkPs {
    /// Build the (approximate) SkPS of a cluster.
    ///
    /// Targets are all members; candidates are the cores; a core covers
    /// itself plus every member within `theta_r`. The greedy CDS keeps the
    /// chosen set connected in the core-neighbor graph.
    pub fn from_members(members: &MemberSet, theta_r: f64) -> SkPs {
        let n_cores = members.cores.len();
        let n_targets = members.population();
        if n_cores == 0 {
            return SkPs {
                points: Vec::new(),
                edges: Vec::new(),
                population: n_targets as u32,
            };
        }
        let dim = members.dim();
        let geometry = sgs_core::GridGeometry::basic(dim, theta_r);

        // Index every member; ids 0..n_cores are cores, the rest edges.
        let mut index = GridIndex::new(geometry);
        for (i, c) in members.cores.iter().enumerate() {
            index.insert(PointId(i as u32), &Point::new(c.clone(), 0));
        }
        for (j, e) in members.edges.iter().enumerate() {
            index.insert(PointId((n_cores + j) as u32), &Point::new(e.clone(), 0));
        }

        // Core adjacency + coverage.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n_cores];
        let mut coverage: Vec<Vec<u32>> = vec![Vec::new(); n_cores];
        let mut scratch = Vec::new();
        for (i, c) in members.cores.iter().enumerate() {
            scratch.clear();
            index.range_query(c, theta_r, PointId(i as u32), &mut scratch);
            coverage[i].push(i as u32); // covers itself
            for nb in &scratch {
                coverage[i].push(nb.0);
                if (nb.0 as usize) < n_cores {
                    adj[i].push(nb.0);
                }
            }
            coverage[i].sort_unstable();
            coverage[i].dedup();
        }

        let chosen = greedy_cds(&adj, &coverage, n_targets);

        // Re-index the chosen cores and collect edges among them.
        let mut slot = vec![u32::MAX; n_cores];
        for (new_idx, &c) in chosen.iter().enumerate() {
            slot[c as usize] = new_idx as u32;
        }
        let points: Vec<Box<[f64]>> = chosen
            .iter()
            .map(|&c| members.cores[c as usize].clone())
            .collect();
        let mut edges = Vec::new();
        for &c in &chosen {
            for &nb in &adj[c as usize] {
                let (a, b) = (slot[c as usize], slot[nb as usize]);
                if b != u32::MAX && a < b {
                    edges.push((a, b));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();

        SkPs {
            points,
            edges,
            population: n_targets as u32,
        }
    }

    /// Number of skeletal points.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.points.len()
    }

    /// Bytes needed to archive the summary.
    pub fn archived_bytes(&self) -> usize {
        let dim = self.points.first().map_or(0, |p| p.len());
        self.points.len() * dim * 8 + self.edges.len() * 8 + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dense 1-d chain of cores spaced 0.4 apart (θr = 1.0): every core
    /// covers its two neighbors, so a CDS needs roughly every other core.
    fn chain(n: usize) -> MemberSet {
        MemberSet::new(
            (0..n).map(|i| vec![i as f64 * 0.4, 0.0].into()).collect(),
            vec![],
        )
    }

    fn coverage_holds(skps: &SkPs, members: &MemberSet, theta_r: f64) -> bool {
        members.iter_all().all(|m| {
            skps.points
                .iter()
                .any(|s| sgs_core::dist(s, m) <= theta_r + 1e-12)
        })
    }

    #[test]
    fn covers_all_members() {
        let m = chain(20);
        let s = SkPs::from_members(&m, 1.0);
        assert!(coverage_holds(&s, &m, 1.0));
        assert!(s.len() < 20, "summary should be smaller than the cluster");
    }

    #[test]
    fn skeletal_graph_is_connected() {
        let m = chain(15);
        let s = SkPs::from_members(&m, 1.0);
        // BFS over edges.
        let n = s.len();
        let mut adj = vec![Vec::new(); n];
        for (a, b) in &s.edges {
            adj[*a as usize].push(*b);
            adj[*b as usize].push(*a);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &nb in &adj[v] {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    stack.push(nb as usize);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn edges_covered_through_cores() {
        let m = MemberSet::new(
            vec![vec![0.0, 0.0].into(), vec![0.4, 0.0].into()],
            vec![vec![0.9, 0.0].into()], // edge within 1.0 of the second core
        );
        let s = SkPs::from_members(&m, 1.0);
        assert!(coverage_holds(&s, &m, 1.0));
    }

    #[test]
    fn coreless_cluster_gives_empty_summary() {
        let m = MemberSet::new(vec![], vec![vec![1.0, 1.0].into()]);
        let s = SkPs::from_members(&m, 1.0);
        assert!(s.points.is_empty());
        assert_eq!(s.population, 1);
    }

    #[test]
    fn order_sensitivity_the_paper_criticizes() {
        // Same cluster, members permuted → potentially different skeletal
        // structure. We assert both are *valid* covers; they need not be
        // equal (that non-determinism is SkPS's documented flaw).
        let m1 = chain(12);
        let mut cores = m1.cores.clone();
        cores.reverse();
        let m2 = MemberSet::new(cores, vec![]);
        let s1 = SkPs::from_members(&m1, 1.0);
        let s2 = SkPs::from_members(&m2, 1.0);
        assert!(coverage_holds(&s1, &m1, 1.0));
        assert!(coverage_holds(&s2, &m2, 1.0));
    }
}
