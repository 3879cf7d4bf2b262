//! Extra-N (Yang, Rundensteiner, Ward — EDBT 2009): the state-of-the-art
//! sliding-window density-clustering baseline of §8.1.
//!
//! Extra-N avoids re-clustering from scratch by maintaining one **predicted
//! view** per window a point can participate in (`win/slide` views). When an
//! object arrives, a single range-query search finds its neighbors; the
//! object is then added to the view of *every* future window it will live
//! in, updating per-view neighbor counts, core statuses and cluster
//! memberships (a growing union-find — a future view only ever gains points,
//! because expiry is resolved by construction, so splits never happen inside
//! a view).
//!
//! The hallmark cost profile, which Fig. 7 of the paper leans on, falls out
//! directly: both CPU time per insertion and the retained meta-data scale
//! with the number of views `win/slide`.

use std::collections::VecDeque;

use sgs_core::{ClusterQuery, HeapSize, Point, PointId, WindowId};
use sgs_index::{FxHashMap, GridIndex, UnionFind};
use sgs_stream::WindowConsumer;

use crate::model::{Clustering, FullCluster};

/// Per-point state retained by Extra-N.
#[derive(Clone, Debug)]
struct Stored {
    /// First window in which the point no longer participates.
    expires_at: WindowId,
    /// Cell the point was indexed into (for O(1) removal).
    cell: sgs_core::CellCoord,
    /// Current neighbor ids (both directions maintained on insertion).
    neighbors: Vec<PointId>,
}

/// One predicted window view: the cluster structure of a (current or
/// future) window, restricted to the points already known to live in it.
#[derive(Clone, Debug, Default)]
struct View {
    /// Dense local slot per member point.
    local: FxHashMap<PointId, u32>,
    members: Vec<PointId>,
    /// Per-slot neighbor count within this view.
    neighbor_count: Vec<u32>,
    /// Per-slot core flag (count >= theta_c).
    core: Vec<bool>,
    /// Union-find over local slots; only cores are ever unioned.
    uf: UnionFind,
}

impl View {
    fn slot(&mut self, id: PointId) -> u32 {
        if let Some(s) = self.local.get(&id) {
            return *s;
        }
        let s = self.members.len() as u32;
        self.local.insert(id, s);
        self.members.push(id);
        self.neighbor_count.push(0);
        self.core.push(false);
        self.uf.push();
        s
    }

    fn heap_bytes(&self) -> usize {
        self.local.capacity() * (core::mem::size_of::<(PointId, u32)>() + 1)
            + self.members.capacity() * 4
            + self.neighbor_count.capacity() * 4
            + self.core.capacity()
            + self.uf.heap_bytes()
    }
}

/// The Extra-N incremental clusterer.
pub struct ExtraN {
    query: ClusterQuery,
    index: GridIndex,
    points: FxHashMap<PointId, Stored>,
    /// `views[k]` is the view of window `current + k`.
    views: VecDeque<View>,
    current: WindowId,
    /// Points to drop when each window completes: `expiry[w]`.
    expiry: FxHashMap<u64, Vec<PointId>>,
    /// Scratch buffer for range queries.
    scratch: Vec<PointId>,
    /// Lifetime statistics: number of range query searches run.
    pub rqs_count: u64,
}

impl ExtraN {
    /// New Extra-N instance for `query`.
    pub fn new(query: ClusterQuery) -> Self {
        let views = (0..query.views()).map(|_| View::default()).collect();
        ExtraN {
            index: GridIndex::new(query.basic_grid()),
            query,
            points: FxHashMap::default(),
            views,
            current: WindowId(0),
            expiry: FxHashMap::default(),
            scratch: Vec::new(),
            rqs_count: 0,
        }
    }

    /// Number of live points.
    pub fn live_len(&self) -> usize {
        self.points.len()
    }

    /// Approximate bytes of retained meta-data (views + neighbor lists +
    /// grid). Grows with `win/slide` — the memory story of Fig. 7.
    pub fn meta_bytes(&self) -> usize {
        let views: usize = self.views.iter().map(View::heap_bytes).sum();
        let pts: usize = self
            .points
            .values()
            .map(|s| s.neighbors.capacity() * 4 + s.cell.heap_size())
            .sum();
        views + pts + self.index.heap_size()
    }

    /// Mark `id` core in view `k`, unioning it with its already-core
    /// neighbors there.
    fn promote(&mut self, k: usize, id: PointId) {
        let view = &mut self.views[k];
        let slot = view.slot(id) as usize;
        if view.core[slot] {
            return;
        }
        view.core[slot] = true;
        let w = WindowId(self.current.0 + k as u64);
        // Union with every core neighbor alive in this view's window.
        let neighbors = self.points[&id].neighbors.clone();
        let view = &mut self.views[k];
        for nb in neighbors {
            let Some(stored) = self.points.get(&nb) else {
                continue;
            };
            if stored.expires_at <= w {
                continue;
            }
            let nb_slot = view.slot(nb) as usize;
            if view.core[nb_slot] {
                view.uf.union(slot, nb_slot);
            }
        }
    }
}

impl WindowConsumer for ExtraN {
    type Output = Clustering;

    fn insert(&mut self, id: PointId, point: &Point, expires_at: WindowId) {
        // 1. One range query search for the new object.
        self.scratch.clear();
        self.index
            .range_query(&point.coords, self.query.theta_r, id, &mut self.scratch);
        self.rqs_count += 1;
        let neighbors = self.scratch.clone();

        // 2. Index it and remember expiry.
        let cell = self.index.insert(id, point);
        self.expiry.entry(expires_at.0).or_default().push(id);

        // 3. Wire up bidirectional neighbor lists.
        for nb in &neighbors {
            if let Some(s) = self.points.get_mut(nb) {
                s.neighbors.push(id);
            }
        }
        self.points.insert(
            id,
            Stored {
                expires_at,
                cell,
                neighbors: neighbors.clone(),
            },
        );

        // 4. Update every view the point participates in.
        let theta_c = self.query.theta_c;
        let views_total = self.views.len();
        let last_k = ((expires_at.0 - self.current.0) as usize).min(views_total);
        for k in 0..last_k {
            let w = WindowId(self.current.0 + k as u64);
            // The new point's neighbor count in window w = neighbors alive at w.
            let mut count = 0u32;
            let mut to_promote: Vec<PointId> = Vec::new();
            {
                let view = &mut self.views[k];
                let slot = view.slot(id) as usize;
                for nb in &neighbors {
                    let stored = &self.points[nb];
                    if stored.expires_at <= w {
                        continue;
                    }
                    count += 1;
                    let nb_slot = view.slot(*nb) as usize;
                    view.neighbor_count[nb_slot] += 1;
                    if !view.core[nb_slot] && view.neighbor_count[nb_slot] >= theta_c {
                        to_promote.push(*nb);
                    }
                }
                view.neighbor_count[slot] = count;
            }
            if count >= theta_c {
                self.promote(k, id);
            }
            for nb in to_promote {
                self.promote(k, nb);
            }
        }
    }

    fn slide(&mut self, completed: WindowId) -> Clustering {
        debug_assert_eq!(completed, self.current);
        // Output clusters from the front view.
        let view = &mut self.views[0];
        let mut groups: FxHashMap<usize, FullCluster> = FxHashMap::default();
        for slot in 0..view.members.len() {
            if view.core[slot] {
                let root = view.uf.find(slot);
                groups
                    .entry(root)
                    .or_insert_with(|| FullCluster {
                        cores: Vec::new(),
                        edges: Vec::new(),
                    })
                    .cores
                    .push(view.members[slot]);
            }
        }
        // Edge attachment: non-core members with a core neighbor.
        let member_ids: Vec<PointId> = view.members.clone();
        for id in member_ids {
            let view = &self.views[0];
            let slot = view.local[&id] as usize;
            if view.core[slot] {
                continue;
            }
            let Some(stored) = self.points.get(&id) else {
                continue;
            };
            let mut roots: Vec<usize> = stored
                .neighbors
                .iter()
                .filter_map(|nb| {
                    let nb_stored = self.points.get(nb)?;
                    if nb_stored.expires_at <= completed {
                        return None;
                    }
                    let nb_slot = *view.local.get(nb)? as usize;
                    if view.core[nb_slot] {
                        Some(view.uf.find_const(nb_slot))
                    } else {
                        None
                    }
                })
                .collect();
            roots.sort_unstable();
            roots.dedup();
            for root in roots {
                if let Some(g) = groups.get_mut(&root) {
                    g.edges.push(id);
                }
            }
        }
        let out: Clustering = groups.into_values().collect();

        // Advance: drop the front view, add a fresh back view, expire points.
        self.views.pop_front();
        self.views.push_back(View::default());
        self.current = completed.next();
        if let Some(dead) = self.expiry.remove(&self.current.0) {
            for id in dead {
                if let Some(stored) = self.points.remove(&id) {
                    self.index.remove(id, &stored.cell);
                    // Lazily leave reverse references; they are filtered by
                    // liveness checks and bounded by window size.
                }
            }
        }
        // Periodically prune dead ids out of neighbor lists to bound memory.
        if self.current.0.is_multiple_of(8) {
            let live: Vec<PointId> = self.points.keys().copied().collect();
            for id in live {
                let mut nbrs = std::mem::take(&mut self.points.get_mut(&id).unwrap().neighbors);
                nbrs.retain(|nb| self.points.contains_key(nb));
                self.points.get_mut(&id).unwrap().neighbors = nbrs;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::NaiveClusterer;
    use crate::model::CanonicalClustering;
    use rand::{Rng, SeedableRng};
    use sgs_core::WindowSpec;
    use sgs_stream::replay;

    fn run_both(
        spec: WindowSpec,
        theta_r: f64,
        theta_c: u32,
        points: Vec<Point>,
    ) -> Vec<(CanonicalClustering, CanonicalClustering)> {
        let q = ClusterQuery::new(theta_r, theta_c, 2, spec).unwrap();
        let mut naive = NaiveClusterer::new(q.clone());
        let mut extra = ExtraN::new(q);
        let naive_out = replay(spec, &points, 2, &mut naive).unwrap();
        let extra_out = replay(spec, points, 2, &mut extra).unwrap();
        assert_eq!(naive_out.len(), extra_out.len());
        naive_out
            .into_iter()
            .zip(extra_out)
            .map(|((w1, a), (w2, b))| {
                assert_eq!(w1, w2);
                (CanonicalClustering::from(a), CanonicalClustering::from(b))
            })
            .collect()
    }

    #[test]
    fn matches_naive_on_static_blobs() {
        let mut pts = Vec::new();
        for i in 0..40 {
            let (bx, by) = if i % 2 == 0 { (0.0, 0.0) } else { (5.0, 5.0) };
            pts.push(Point::new(
                vec![bx + (i % 5) as f64 * 0.05, by + (i % 3) as f64 * 0.05],
                0,
            ));
        }
        let spec = WindowSpec::count(20, 5).unwrap();
        for (naive, extra) in run_both(spec, 0.3, 3, pts) {
            assert_eq!(naive, extra);
        }
    }

    #[test]
    fn matches_naive_on_random_stream() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let pts: Vec<Point> = (0..600)
            .map(|_| Point::new(vec![rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0)], 0))
            .collect();
        let spec = WindowSpec::count(100, 20).unwrap();
        for (i, (naive, extra)) in run_both(spec, 0.25, 4, pts).into_iter().enumerate() {
            assert_eq!(naive, extra, "window {i}");
        }
    }

    #[test]
    fn matches_naive_with_slide_one_tuple() {
        // Extreme view count: win/slide = 30.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let pts: Vec<Point> = (0..150)
            .map(|_| Point::new(vec![rng.gen_range(0.0..1.5), rng.gen_range(0.0..1.5)], 0))
            .collect();
        let spec = WindowSpec::count(30, 1).unwrap();
        for (i, (naive, extra)) in run_both(spec, 0.3, 3, pts).into_iter().enumerate() {
            assert_eq!(naive, extra, "window {i}");
        }
    }

    #[test]
    fn one_rqs_per_point() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new(vec![rng.gen_range(0.0..2.0), rng.gen_range(0.0..2.0)], 0))
            .collect();
        let spec = WindowSpec::count(50, 10).unwrap();
        let q = ClusterQuery::new(0.3, 3, 2, spec).unwrap();
        let mut extra = ExtraN::new(q);
        replay(spec, pts, 2, &mut extra).unwrap();
        assert_eq!(extra.rqs_count, 200);
    }

    #[test]
    fn memory_grows_with_views() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let pts: Vec<Point> = (0..400)
            .map(|_| Point::new(vec![rng.gen_range(0.0..2.0), rng.gen_range(0.0..2.0)], 0))
            .collect();
        let mut sizes = Vec::new();
        for slide in [50u64, 10, 2] {
            let spec = WindowSpec::count(100, slide).unwrap();
            let q = ClusterQuery::new(0.3, 3, 2, spec).unwrap();
            let mut extra = ExtraN::new(q);
            replay(spec, &pts, 2, &mut extra).unwrap();
            sizes.push(extra.meta_bytes());
        }
        // More views (smaller slide) → more retained meta-data.
        assert!(sizes[2] > sizes[0], "sizes: {sizes:?}");
    }
}
