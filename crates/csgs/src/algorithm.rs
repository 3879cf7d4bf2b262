//! The C-SGS algorithm (§5.4): integrated extraction + summarization in
//! one sequential pass over the stream.
//!
//! **Insertion** (the only place structural work happens):
//!
//! 1. one range-query search finds the new object's neighbors (§5.3
//!    guarantees exactly one RQS per object, ever);
//! 2. the object's core career is derived from its neighbors' lifespans
//!    (Obs. 5.4) and pushed into its cell's `core_until` watermark
//!    (status *promotion*, Fig. 6 case 1);
//! 3. each neighbor's expiry-ordered list gains the new object; careers
//!    that extend push their cells' watermarks (status *prolong* / neighbor
//!    *upgrade*, Fig. 6 case 2) and re-evaluate that neighbor's cell-pair
//!    links;
//! 4. cell-pair links between the new object's cell and each neighbor's
//!    cell are raised per Lemma 5.2.
//!
//! **Expiration** needs no structural work: all watermarks are absolute
//! window indices, so at window `w` liveness is `w < watermark`. The slide
//! handler only drops expired objects' raw data (eagerly pruning their ids
//! from neighbor lists) and emits the output.
//!
//! **Output** (§5.4 output stage; `merge::emit`): the live core cells,
//! connected through their live core-core links, form the cluster
//! skeletons; attached edge cells join their groups; the full
//! representation is listed cell by cell from the skeleton (cores by
//! career watermark, edges via their live core neighbors). A cluster none
//! of whose cells was written since the previous window is not derived
//! again: the extractor keeps the previous output, each cluster with its
//! cells' ids, and carries it over; the new core cells are found among
//! the cells the window wrote.
//!
//! The extractor is one sequential pass per query; the query is the unit
//! of parallelism (`DESIGN.md` §6, §8).

use std::sync::Arc;

use sgs_core::{ClusterQuery, GridGeometry, HeapSize, Point, PointId, WindowId};
use sgs_index::ReachWalker;
use sgs_stream::WindowConsumer;

use crate::cell_store::{CellId, CellStore};
use crate::merge::{self, Held};
use crate::output::WindowOutput;
use crate::point_store::{raise_pairs, Found, PointStore};

/// The integrated C-SGS extractor. Implements [`WindowConsumer`]; each
/// slide returns the window's clusters in full + SGS representation.
pub struct CSgs {
    query: ClusterQuery,
    geometry: GridGeometry,
    /// The live objects: grid index, point states, expiry lists.
    points: PointStore,
    /// The skeletal cells and their watermarks.
    cells: CellStore,
    current: WindowId,
    /// The range-query walker, reused across inserts.
    walker: ReachWalker,
    /// Scratch reused across inserts: the new point's neighbors, and
    /// those whose core career it extended.
    found: Vec<Found>,
    extended: Vec<PointId>,
    /// The previous window's output, each cluster with the ids of its
    /// skeleton cells: what the output stage carries the untouched
    /// clusters over from (`DESIGN.md` §6). It shares its clusters with
    /// the output the caller was handed.
    retained: Vec<Held>,
    /// The output stage's buffers, reused across windows.
    scratch: merge::Scratch,
    /// Number of range query searches executed (one per object, §5.3).
    pub rqs_count: u64,
    /// Clusters emitted by carrying the previous window's over unchanged.
    pub carried_count: u64,
    /// Clusters emitted by rebuilding them from the skeletal cells.
    pub rebuilt_count: u64,
}

impl CSgs {
    /// New extractor for `query`.
    pub fn new(query: ClusterQuery) -> Self {
        let geometry = query.basic_grid();
        CSgs {
            walker: ReachWalker::new(&geometry),
            points: PointStore::new(geometry.clone()),
            cells: CellStore::new(),
            found: Vec::new(),
            extended: Vec::new(),
            query,
            geometry,
            current: WindowId(0),
            retained: Vec::new(),
            scratch: merge::Scratch::default(),
            rqs_count: 0,
            carried_count: 0,
            rebuilt_count: 0,
        }
    }

    /// The query this extractor runs.
    pub fn query(&self) -> &ClusterQuery {
        &self.query
    }

    /// Number of live points.
    pub fn live_len(&self) -> usize {
        self.points.states.len()
    }

    /// Approximate bytes of retained meta-data, the previous window's
    /// output included — memory it shares with the output the caller
    /// holds, since a retained cluster is the emitted one. Unlike Extra-N
    /// this is independent of `win/slide` — no per-view state exists.
    /// The working buffers kept across calls — the range-query walker's,
    /// the insert's and the output stage's — hold no state between calls
    /// and are not counted.
    pub fn meta_bytes(&self) -> usize {
        let retained = self.retained.iter().map(|(cluster, ids)| {
            cluster.heap_size() + ids.capacity() * core::mem::size_of::<CellId>()
        });
        self.points.meta_bytes()
            + self.cells.heap_bytes()
            + self.retained.capacity() * core::mem::size_of::<Held>()
            + retained.sum::<usize>()
    }

    /// The output stage for window `w`, carrying over from `prev` and
    /// looking for new core cells among the cells stamped in `w`.
    fn emit(&mut self, w: WindowId, prev: Vec<Held>) -> (Vec<Held>, usize) {
        let seeds = self.cells.written().iter().copied();
        merge::emit(
            &self.geometry,
            &self.points,
            &self.cells,
            w,
            prev,
            seeds,
            &mut self.scratch,
        )
    }

    /// Window `w`'s output built from every stored cell, carrying nothing,
    /// in buffers of its own: the oracle a carried cluster is checked
    /// against.
    fn emit_from_scratch(&self, w: WindowId) -> Vec<Held> {
        let seeds = self.cells.iter().map(|(id, _, _)| id);
        let scratch = &mut merge::Scratch::default();
        let (points, cells) = (&self.points, &self.cells);
        merge::emit(&self.geometry, points, cells, w, Vec::new(), seeds, scratch).0
    }
}

/// §5.4 step 5: raise the pair links between new point `p` and each
/// neighbor its range query found.
fn link_new(
    points: &PointStore,
    p: PointId,
    found: &[Found],
    raise: &mut impl FnMut(CellId, CellId, u64, u64),
) {
    let nbrs = found.iter().map(|&(q, _)| points.states.state(q));
    raise_pairs(points.states.state(p), nbrs, raise);
}

/// §5.4 step 6 (connection prolong): `q`'s core career extended, so every
/// pair it belongs to is re-evaluated. Every listed id resolves: a slide
/// drops the ids of the points it expires from every list.
fn link_extended(
    points: &PointStore,
    q: PointId,
    raise: &mut impl FnMut(CellId, CellId, u64, u64),
) {
    let q = points.states.state(q);
    let nbrs = q.neighbors.iter().map(|&r| points.states.state(r));
    raise_pairs(q, nbrs, raise);
}

impl WindowConsumer for CSgs {
    type Output = WindowOutput;

    /// §5.4 steps 1–6 for one arrival.
    fn insert(&mut self, id: PointId, point: &Point, expires_at: WindowId) {
        let CSgs {
            ref query,
            ref mut points,
            ref mut cells,
            ref mut walker,
            ref mut found,
            ref mut extended,
            ref mut rqs_count,
            current: now,
            ..
        } = *self;
        let theta_c = query.theta_c;

        // 1 + 2. Load, then the one range query search.
        let cell = points.load(cells, id, point, expires_at);
        found.clear();
        walker.for_each_neighbor(
            &points.index,
            cells.coord(cell),
            &point.coords,
            query.theta_r_sq(),
            id,
            |q, q_exp| found.push((q, q_exp)),
        );
        *rqs_count += 1;

        // 3. The new object's own career → status promotion.
        points.install(cells, id, found, now, theta_c);

        // 4. Neighbors gain the new object; extended careers prolong.
        extended.clear();
        for &(q, _) in found.iter() {
            if points.gain_neighbor(cells, q, id, expires_at, now, theta_c) {
                extended.push(q);
            }
        }

        // 5 + 6. With every career final, raise the pair links of the new
        // object and of each extended neighbor.
        let mut raise = |at, other, core_core, attach| {
            cells.raise_link(at, other, core_core, attach);
        };
        link_new(points, id, found, &mut raise);
        for &q in extended.iter() {
            link_extended(points, q, &mut raise);
        }
    }

    fn slide(&mut self, completed: WindowId) -> WindowOutput {
        debug_assert_eq!(completed, self.current);
        let prev = std::mem::take(&mut self.retained);
        let (held, carried) = self.emit(completed, prev);
        // Release builds trust a carried cluster; debug builds — every
        // test suite — rebuild the window from the cells and compare,
        // the cell ids the next carry-over check reads included.
        debug_assert_eq!(
            held,
            self.emit_from_scratch(completed),
            "carried clusters diverged from a from-scratch emit at {completed}"
        );
        self.carried_count += carried as u64;
        self.rebuilt_count += (held.len() - carried) as u64;
        let out = held
            .iter()
            .map(|(cluster, _)| Arc::clone(cluster))
            .collect();
        self.retained = held;

        // Advance and drop expired raw data (no watermark maintenance —
        // the paper's zero-cost expiration property). Dead points' ids are
        // pruned from their neighbors' lists eagerly, so lists stay
        // bounded by the live population, and the cells written since the
        // last slide are collected. From here on every write to a cell is
        // stamped with the new window.
        self.current = completed.next();
        let now = self.current;
        self.cells.set_window(now);
        let listed_by = self.points.remove_expired(&mut self.cells, now);
        self.points.prune_dead(&listed_by);
        self.cells.gc(now);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell_store::CellState;
    use crate::counting::allocations;
    use crate::ExtractedCluster;
    use rand::{Rng, SeedableRng};
    use sgs_cluster::{CanonicalClustering, ExtraN, FullCluster, NaiveClusterer};
    use sgs_core::{CellCoord, WindowSpec};
    use sgs_stream::replay;
    use sgs_summarize::{CellStatus, MemberSet, Sgs};
    use std::sync::Arc;

    fn to_canonical(out: &WindowOutput) -> CanonicalClustering {
        CanonicalClustering::from(
            out.iter()
                .map(|c| FullCluster {
                    cores: c.cores.clone(),
                    edges: c.edges.clone(),
                })
                .collect(),
        )
    }

    #[test]
    fn matches_naive_dbscan_per_window() {
        let spec = WindowSpec::count(100, 20).unwrap();
        let q = ClusterQuery::new(0.25, 4, 2, spec).unwrap();
        let pts = random_points(42, 600, 2, 3.0);
        let mut naive = NaiveClusterer::new(q.clone());
        let mut csgs = CSgs::new(q);
        let naive_out = replay(spec, &pts, 2, &mut naive).unwrap();
        let csgs_out = replay(spec, pts, 2, &mut csgs).unwrap();
        assert_eq!(naive_out.len(), csgs_out.len());
        for ((w1, a), (w2, b)) in naive_out.iter().zip(csgs_out.iter()) {
            assert_eq!(w1, w2);
            assert_eq!(
                CanonicalClustering::from(a.clone()),
                to_canonical(b),
                "window {w1}"
            );
        }
    }

    #[test]
    fn matches_extra_n_with_many_views() {
        let spec = WindowSpec::count(60, 2).unwrap(); // 30 views
        let q = ClusterQuery::new(0.3, 3, 2, spec).unwrap();
        let pts = random_points(7, 300, 2, 2.0);
        let mut extra = ExtraN::new(q.clone());
        let mut csgs = CSgs::new(q);
        let extra_out = replay(spec, &pts, 2, &mut extra).unwrap();
        let csgs_out = replay(spec, pts, 2, &mut csgs).unwrap();
        for ((w, a), (_, b)) in extra_out.iter().zip(csgs_out.iter()) {
            assert_eq!(
                CanonicalClustering::from(a.clone()),
                to_canonical(b),
                "window {w}"
            );
        }
    }

    #[test]
    fn incremental_sgs_matches_offline_construction() {
        let spec = WindowSpec::count(80, 16).unwrap();
        let q = ClusterQuery::new(0.3, 3, 2, spec).unwrap();
        let pts = random_points(13, 400, 2, 2.5);
        let geometry = q.basic_grid();
        let mut csgs = CSgs::new(q);
        let mut engine = sgs_stream::WindowEngine::new(spec, 2);
        let mut outs = Vec::new();
        let mut coords_of: std::collections::HashMap<PointId, Box<[f64]>> = Default::default();
        for (next_id, p) in pts.into_iter().enumerate() {
            coords_of.insert(PointId(next_id as u32), p.coords.clone());
            engine.push(p, &mut csgs, &mut outs).unwrap();
            // Compare at each completed window.
            for (_, clusters) in outs.drain(..) {
                for cluster in &clusters {
                    let members = MemberSet::new(
                        cluster
                            .cores
                            .iter()
                            .map(|id| coords_of[id].clone())
                            .collect(),
                        cluster
                            .edges
                            .iter()
                            .map(|id| coords_of[id].clone())
                            .collect(),
                    );
                    let offline = Sgs::from_members(&members, &geometry);
                    let inc = &cluster.sgs;
                    inc.validate().unwrap();
                    assert_eq!(inc.cells.len(), offline.cells.len(), "cell sets differ");
                    for (a, b) in inc.cells.iter().zip(offline.cells.iter()) {
                        assert_eq!(a.coord, b.coord);
                        assert_eq!(a.status, b.status);
                        assert_eq!(a.connections, b.connections, "cell {:?}", a.coord);
                        if a.status == CellStatus::Core {
                            assert_eq!(a.population, b.population, "cell {:?}", a.coord);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_rqs_per_object_ever() {
        let spec = WindowSpec::count(50, 10).unwrap();
        let q = ClusterQuery::new(0.3, 3, 2, spec).unwrap();
        let pts = random_points(1, 200, 2, 2.0);
        let mut csgs = CSgs::new(q);
        replay(spec, pts, 2, &mut csgs).unwrap();
        assert_eq!(csgs.rqs_count, 200);

        // A 4-d stream pushed in uneven chunks, cut at window boundaries
        // and between them.
        let spec = WindowSpec::count(120, 30).unwrap();
        let q = ClusterQuery::new(0.25, 3, 4, spec).unwrap();
        let pts = random_points(2, 700, 4, 1.2);
        let mut csgs = CSgs::new(q);
        let mut engine = sgs_stream::WindowEngine::new(spec, 4);
        let mut outs = Vec::new();
        let mut rest = &pts[..];
        for chunk in [1, 7, 64, 33, 150].into_iter().cycle() {
            let (batch, tail) = rest.split_at(chunk.min(rest.len()));
            engine.push_batch(batch, &mut csgs, &mut outs).unwrap();
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        assert!(outs.iter().any(|(_, o)| !o.is_empty()), "4-d clusters");
        assert_eq!(csgs.rqs_count, 700);
    }

    #[test]
    fn meta_bytes_independent_of_views() {
        let pts = random_points(5, 400, 2, 2.0);
        let mut sizes = Vec::new();
        for slide in [50u64, 10, 2] {
            let spec = WindowSpec::count(100, slide).unwrap();
            let q = ClusterQuery::new(0.3, 3, 2, spec).unwrap();
            let mut csgs = CSgs::new(q);
            replay(spec, &pts, 2, &mut csgs).unwrap();
            sizes.push(csgs.meta_bytes() as f64);
        }
        // C-SGS meta-data must not grow with view count (Fig. 7): allow
        // noise, reject any per-view state (2 → 50 views).
        assert!(
            sizes[2] < sizes[0] * 1.25,
            "meta bytes grew with views: {sizes:?}"
        );
    }

    #[test]
    fn empty_stream_produces_empty_windows() {
        let spec = WindowSpec::count(4, 2).unwrap();
        let q = ClusterQuery::new(0.5, 2, 2, spec).unwrap();
        let mut csgs = CSgs::new(q);
        // Far-apart singletons → no clusters.
        let pts: Vec<Point> = (0..8)
            .map(|i| Point::new(vec![i as f64 * 100.0, 0.0], 0))
            .collect();
        let outs = replay(spec, pts, 2, &mut csgs).unwrap();
        assert!(outs.iter().all(|(_, o)| o.is_empty()));
    }

    #[test]
    fn output_population_matches_live_members() {
        let spec = WindowSpec::count(30, 10).unwrap();
        let q = ClusterQuery::new(0.5, 2, 2, spec).unwrap();
        // One tight blob that persists across windows.
        let pts: Vec<Point> = (0..60)
            .map(|i| Point::new(vec![(i % 5) as f64 * 0.1, (i % 7) as f64 * 0.1], 0))
            .collect();
        let mut csgs = CSgs::new(q);
        let outs = replay(spec, pts, 2, &mut csgs).unwrap();
        for (w, clusters) in &outs {
            assert_eq!(clusters.len(), 1, "window {w}");
            let c = &clusters[0];
            assert_eq!(c.population(), 30, "window {w}");
            assert_eq!(c.sgs.population(), 30, "window {w}");
        }
    }

    /// The extractor, handed every id shifted by a fixed offset (wrapping).
    struct Shifted(CSgs, u32);

    impl WindowConsumer for Shifted {
        type Output = WindowOutput;

        fn insert(&mut self, id: PointId, point: &Point, expires_at: WindowId) {
            self.0
                .insert(PointId(id.0.wrapping_add(self.1)), point, expires_at);
        }

        fn slide(&mut self, completed: WindowId) -> WindowOutput {
            self.0.slide(completed)
        }
    }

    /// Ids that run past `u32::MAX` and wrap to 0 in mid-window label the
    /// same clusters as ids from 0: the point table finds a point by its
    /// id's wrapping offset from the oldest live one.
    #[test]
    fn ids_across_the_u32_wrap_give_the_clusters_of_ids_from_zero() {
        let spec = WindowSpec::count(60, 10).unwrap();
        let q = ClusterQuery::new(0.25, 4, 2, spec).unwrap();
        let pts = random_points(23, 400, 2, 2.0);
        let plain = replay(spec, &pts, 2, &mut CSgs::new(q.clone())).unwrap();
        let offset = u32::MAX - 50;
        let mut shifted = Shifted(CSgs::new(q), offset);
        let wrapped = replay(spec, pts, 2, &mut shifted).unwrap();
        assert!(plain.iter().filter(|(_, out)| !out.is_empty()).count() > 20);
        let relabel = |ids: &[PointId]| {
            let mut ids: Vec<PointId> = ids
                .iter()
                .map(|id| PointId(id.0.wrapping_sub(offset)))
                .collect();
            ids.sort_unstable();
            ids
        };
        let relabelled: Vec<(WindowId, WindowOutput)> = wrapped
            .into_iter()
            .map(|(w, out)| {
                let out = out
                    .into_iter()
                    .map(|c| {
                        Arc::new(ExtractedCluster {
                            cores: relabel(&c.cores),
                            edges: relabel(&c.edges),
                            sgs: c.sgs.clone(),
                        })
                    })
                    .collect();
                (w, out)
            })
            .collect();
        assert_eq!(relabelled, plain);
        // The live ids straddled the wrap and then left it behind.
        let live: Vec<u32> = shifted.0.points.states.iter().map(|(id, _)| id.0).collect();
        assert!(!live.is_empty() && live.iter().all(|&id| id < 400));
    }

    /// Run a 2-d stream through the extractor via batched pushes,
    /// collecting every window's output.
    fn run_batched(
        pts: &[Point],
        spec: WindowSpec,
        chunk: usize,
    ) -> (Vec<(WindowId, WindowOutput)>, CSgs) {
        let q = ClusterQuery::new(0.25, 4, 2, spec).unwrap();
        let mut csgs = CSgs::new(q);
        let mut engine = sgs_stream::WindowEngine::new(spec, 2);
        let mut outs = Vec::new();
        for c in pts.chunks(chunk) {
            engine.push_batch(c, &mut csgs, &mut outs).unwrap();
        }
        (outs, csgs)
    }

    #[test]
    fn neighbor_lists_stay_bounded_by_live_population() {
        // Eager pruning: after any number of windows, no point's neighbor
        // list may reference an expired point or exceed the live count.
        let spec = WindowSpec::count(40, 8).unwrap();
        let pts = random_points(17, 800, 2, 1.2); // dense → large neighbor lists
        let (_, csgs) = run_batched(&pts, spec, 57);
        let live = csgs.live_len();
        assert!(live > 0);
        let states = &csgs.points.states;
        for (id, st) in states.iter() {
            assert!(
                st.neighbors.len() < live,
                "point {id:?} holds {} neighbor ids with only {live} live points",
                st.neighbors.len()
            );
            for &nb in &st.neighbors {
                assert!(
                    states.get(nb).is_some(),
                    "point {id:?} references expired neighbor {nb:?}"
                );
            }
        }
    }

    /// Every point's neighbor list is in non-decreasing expiry order, no
    /// listed neighbor is dead at the current window, and the career read
    /// off the list is the one-shot one (Obs. 5.4) — or over, when fewer
    /// than θc neighbors are listed.
    fn assert_lists_in_expiry_order(csgs: &CSgs) {
        let (now, theta_c) = (csgs.current, csgs.query.theta_c);
        let states = &csgs.points.states;
        for (id, st) in states.iter() {
            let expiries: Vec<WindowId> = st
                .neighbors
                .iter()
                .map(|&nb| states.get(nb).expect("listed neighbors live").expires_at)
                .collect();
            assert!(expiries.is_sorted(), "{id:?} at {now}: {expiries:?}");
            assert!(expiries.first().is_none_or(|&e| e > now), "{id:?} at {now}");
            if expiries.len() >= theta_c as usize {
                let oneshot = sgs_stream::core_until(st.expires_at, &expiries, theta_c);
                assert_eq!(st.core_until, oneshot.0, "{id:?} at {now}: {expiries:?}");
            } else {
                assert!(st.core_until <= now.0, "{id:?} at {now}: {expiries:?}");
            }
        }
    }

    /// The store holds the cells a full sweep over it would keep — `gc`
    /// visits the written cells only — and no cell more links than it has
    /// cells within the range-query reach.
    fn assert_gc_keeps_what_a_sweep_keeps(csgs: &CSgs) {
        let now = csgs.current.0;
        let width = 2 * csgs.geometry.reach() as usize + 1;
        let bound = width.pow(csgs.geometry.dim() as u32) - 1;
        let store = &csgs.cells;
        let cells = |keep: &dyn Fn(&CellState) -> bool| {
            let kept = store.iter().filter(|(_, _, cell)| keep(cell));
            let mut cells: Vec<&CellCoord> = kept.map(|(_, c, _)| c).collect();
            cells.sort_unstable();
            cells
        };
        let swept = cells(&|cell| cell.population > 0 || cell.core_until > now);
        assert_eq!(cells(&|_| true), swept, "at {now}");
        for (_, coord, cell) in store.iter() {
            assert!(cell.links.len() <= bound, "{coord:?}: {}", cell.links.len());
        }
    }

    /// The extractor, checked after every slide.
    struct Checked(CSgs);

    impl WindowConsumer for Checked {
        type Output = WindowOutput;

        fn insert(&mut self, id: PointId, point: &Point, expires_at: WindowId) {
            self.0.insert(id, point, expires_at);
        }

        fn slide(&mut self, completed: WindowId) -> WindowOutput {
            let out = self.0.slide(completed);
            assert_lists_in_expiry_order(&self.0);
            assert_gc_keeps_what_a_sweep_keeps(&self.0);
            out
        }
    }

    fn random_points(seed: u64, n: usize, dim: usize, extent: f64) -> Vec<Point> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let coords: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..extent)).collect();
                Point::new(coords, 0)
            })
            .collect()
    }

    /// After every slide, over 2-d and 4-d streams pushed in batches: the
    /// neighbor lists are in expiry order with the careers they imply, and
    /// the store holds what a full `gc` sweep would keep.
    #[test]
    fn slides_keep_lists_in_expiry_order_and_collect_what_a_sweep_would() {
        let spec = WindowSpec::count(600, 40).unwrap();
        for (dim, extent) in [(2, 4.0), (4, 1.6)] {
            let pts = random_points(31, 1400, dim, extent);
            let q = ClusterQuery::new(0.25, 4, dim, spec).unwrap();
            let mut checked = Checked(CSgs::new(q));
            let mut engine = sgs_stream::WindowEngine::new(spec, dim);
            let mut outs = Vec::new();
            for c in pts.chunks(97) {
                engine.push_batch(c, &mut checked, &mut outs).unwrap();
            }
            assert!(outs.iter().any(|(_, o)| !o.is_empty()), "{dim}-d clusters");
            assert!(checked.0.live_len() > 0);
        }
    }

    /// A hand-driven 1-d extractor with θr = 1 — the cell of `x` is `⌊x⌋`
    /// and two objects are neighbors within distance 1 — plus a bystander
    /// cluster far away that nothing ever touches. Every slide is checked
    /// against an emit that carries nothing over: the comparison `slide`
    /// makes itself in debug builds, made here in release builds too. And
    /// the clusters it carried are the previous window's own, the rebuilt
    /// ones new.
    struct Driven {
        csgs: CSgs,
        next_id: u32,
        /// The previous window's clusters, the bystander among them.
        prev: WindowOutput,
        /// The allocations of the last slide, less those of the
        /// from-scratch emit a debug build checks it against.
        slide_allocations: usize,
    }

    /// Expiry of the objects a scenario does not let expire.
    const LATE: u64 = 40;

    impl Driven {
        fn new(theta_c: u32) -> Self {
            let spec = WindowSpec::count(100, 10).unwrap();
            let q = ClusterQuery::new(1.0, theta_c, 1, spec).unwrap();
            let mut driven = Driven {
                csgs: CSgs::new(q),
                next_id: 0,
                prev: Vec::new(),
                slide_allocations: 0,
            };
            for x in [50.1, 50.2, 50.3, 50.4, 50.5] {
                driven.put(x, LATE);
            }
            driven
        }

        /// Insert an object at `x` that is dropped when window `expires`
        /// becomes current.
        fn put(&mut self, x: f64, expires: u64) -> PointId {
            let id = PointId(self.next_id);
            self.next_id += 1;
            self.csgs
                .insert(id, &Point::new(vec![x], 0), WindowId(expires));
            id
        }

        /// Complete the current window. Returns its clusters but the
        /// bystander (always the last), and how many of the others were
        /// carried over; the bystander must have been, once it exists.
        fn slide(&mut self) -> (WindowOutput, u64) {
            let w = self.csgs.current;
            let at = allocations();
            let fresh: WindowOutput = (self.csgs.emit_from_scratch(w).into_iter())
                .map(|(cluster, _)| cluster)
                .collect();
            // A debug build's `slide` makes this same emit, to check itself.
            let checked = usize::from(cfg!(debug_assertions)) * (allocations() - at);
            let before = self.csgs.carried_count;
            let at = allocations();
            let mut out = self.csgs.slide(w);
            self.slide_allocations = allocations() - at - checked;
            assert_eq!(out, fresh, "window {w}");
            let carried = self.csgs.carried_count - before;
            let prev = std::mem::replace(&mut self.prev, out.clone());
            let shared = out
                .iter()
                .filter(|c| prev.iter().any(|p| Arc::ptr_eq(c, p)));
            assert_eq!(shared.count() as u64, carried, "window {w}: shared");
            let bystander = out.pop().expect("the bystander cluster");
            assert_eq!(cells_of(&bystander), [(50, CellStatus::Core, 5)]);
            assert!(w.0 == 0 || carried >= 1, "bystander rebuilt at {w}");
            (out, carried.saturating_sub(1))
        }

        fn cell(&self, cell: i32) -> &crate::cell_store::CellState {
            let coord = CellCoord::new(vec![cell]);
            let cells = &self.csgs.cells;
            cells.get(cells.id_of(&coord).expect("cell exists"))
        }
    }

    /// `(cell, status, population)` of each skeletal cell of a 1-d cluster.
    fn cells_of(cluster: &crate::ExtractedCluster) -> Vec<(i32, CellStatus, u32)> {
        let cells = cluster.sgs.cells.iter();
        cells
            .map(|c| (c.coord[0], c.status, c.population))
            .collect()
    }

    fn ids(ids: &[PointId]) -> Vec<u32> {
        ids.iter().map(|id| id.0).collect()
    }

    use CellStatus::{Core, Edge};

    /// A slide that carries every cluster over allocates nothing per
    /// cell: as many times for a cluster of 40 cells as for one of 2.
    #[test]
    fn a_slide_that_carries_every_cluster_allocates_alike_whatever_their_size() {
        let carried_slide = |cells: i32| {
            let mut d = Driven::new(2);
            for c in 0..cells {
                for dx in [0.2, 0.5, 0.8] {
                    d.put(f64::from(c) + dx, LATE);
                }
            }
            let (w0, _) = d.slide();
            assert_eq!(cells_of(&w0[0]).len(), cells as usize);
            assert_eq!(d.slide(), (w0, 1));
            d.slide_allocations
        };
        assert_eq!(carried_slide(40), carried_slide(2));
    }

    /// A slide that rebuilds a cluster allocates per cluster, not per
    /// cell: as many times for a cluster of 40 core cells as for one of
    /// 2. Its summary is two blocks and its member lists are copied out
    /// at their length; every other buffer is the extractor's, sized by
    /// the windows before.
    #[test]
    fn a_slide_that_rebuilds_a_cluster_allocates_alike_whatever_its_size() {
        let rebuilt_slide = |cells: i32| {
            let mut d = Driven::new(2);
            for c in 0..cells {
                for dx in [0.2, 0.5, 0.8] {
                    d.put(f64::from(c) + dx, LATE);
                }
            }
            let (w0, _) = d.slide();
            assert_eq!(d.slide(), (w0.clone(), 1));
            d.put(0.3, LATE); // a write to the first cell
            let (w2, carried) = d.slide();
            assert_eq!((w2.len(), carried), (1, 0));
            assert_eq!(cells_of(&w2[0]).len(), cells as usize);
            assert_eq!(w2[0].cores.len(), 3 * cells as usize + 1);
            d.slide_allocations
        };
        assert_eq!(rebuilt_slide(40), rebuilt_slide(2));
    }

    /// A steady-state insert — its cell, its expiry list and its
    /// neighbors' lists all have room — allocates once: for the neighbor
    /// list the new object keeps.
    #[test]
    fn a_steady_state_insert_allocates_once_for_the_list_it_keeps() {
        let mut d = Driven::new(2);
        // Four objects that stay, and four that leave with window 1,
        // leaving room behind them in the cell and in every list.
        for x in [0.1, 0.2, 0.3, 0.4] {
            d.put(x, LATE);
        }
        for x in [0.5, 0.6, 0.7, 0.8] {
            d.put(x, 1);
        }
        d.slide();
        let (p, point) = (PointId(d.next_id), Point::new(vec![0.45], 0));
        let at = allocations();
        d.csgs.insert(p, &point, WindowId(LATE));
        assert_eq!(allocations() - at, 1);
        let list = &d.csgs.points.states.state(p).neighbors;
        assert_eq!((list.len(), list.capacity()), (4, 4));
    }

    /// A core career that ends because a neighbor expires — no write to
    /// the object's own cell, which stays a core cell — still rebuilds its
    /// cluster: the neighbor's cell is a cell of the same skeleton, and it
    /// was written (here: emptied, and collected).
    #[test]
    fn a_career_lapsing_with_a_neighbors_expiry_rebuilds_the_cluster() {
        let mut d = Driven::new(2);
        let p = d.put(1.1, LATE); // neighbors: p2, q — core while q lives
        let p2 = d.put(1.9, LATE); // p, t: core
        let q = d.put(0.15, 3); // p
        let t = d.put(2.5, LATE); // p2
        let (w0, _) = d.slide();
        assert_eq!(w0.len(), 1);
        assert_eq!(
            (ids(&w0[0].cores), ids(&w0[0].edges)),
            (vec![p.0, p2.0], vec![q.0, t.0])
        );
        assert_eq!(cells_of(&w0[0]), [(0, Edge, 1), (1, Core, 2), (2, Edge, 1)]);
        for _ in 1..3 {
            assert_eq!(d.slide(), (w0.clone(), 1), "nothing changed: carried");
        }
        let (w3, carried) = d.slide();
        assert_eq!(carried, 0);
        assert_eq!(
            [1, 2].map(|c| d.cell(c).touched),
            [0; 2],
            "the cells left are unwritten"
        );
        assert_eq!(
            (ids(&w3[0].cores), ids(&w3[0].edges)),
            (vec![p2.0], vec![p.0, t.0])
        );
        assert_eq!(cells_of(&w3[0]), [(1, Core, 2), (2, Edge, 1)]);
        assert_eq!(d.slide(), (w3, 1));
    }

    /// An object turns core by a career no longer than its cell's: the
    /// cell's watermark stays where it is, its stamp does not.
    #[test]
    fn an_object_turning_core_under_an_unmoved_cell_watermark_rebuilds() {
        let mut d = Driven::new(2);
        let p1 = d.put(0.9, LATE); // e, p2: core until e expires
        let e = d.put(0.05, 10); // p1
        let p2 = d.put(1.5, LATE); // p1
        let (w0, _) = d.slide();
        assert_eq!(
            (ids(&w0[0].cores), ids(&w0[0].edges)),
            (vec![p1.0], vec![e.0, p2.0])
        );
        assert_eq!(d.slide(), (w0, 1));
        assert_eq!(d.cell(0).core_until, 10);
        let z = d.put(-0.5, 10); // e, which turns core until 10
        assert_eq!(d.cell(0).core_until, 10);
        let (w2, carried) = d.slide();
        assert_eq!(carried, 0);
        assert_eq!(
            (ids(&w2[0].cores), ids(&w2[0].edges)),
            (vec![p1.0, e.0], vec![p2.0, z.0])
        );
        assert_eq!(
            cells_of(&w2[0]),
            [(-1, Edge, 1), (0, Core, 2), (1, Edge, 1)]
        );
    }

    /// A noise object arriving in an edge cell, or expiring there, changes
    /// nothing of the cluster but that cell's population — which the
    /// summary prints.
    #[test]
    fn noise_coming_and_going_in_an_edge_cell_rebuilds_for_its_population() {
        let mut d = Driven::new(3);
        let cores = [0.4, 0.5, 0.6, 0.7].map(|x| d.put(x, LATE).0);
        let e = d.put(1.65, LATE); // the object at 0.7
        let (w0, _) = d.slide();
        assert_eq!(cells_of(&w0[0]), [(0, Core, 4), (1, Edge, 1)]);
        assert_eq!(d.slide(), (w0.clone(), 1));
        let links = |d: &Driven| (d.cell(0).clone(), d.cell(1).links.clone());
        let before = links(&d);
        d.put(1.99, 4); // e alone: noise
        assert_eq!(links(&d), before, "one population moved, nothing else");
        let (w2, carried) = d.slide();
        assert_eq!(carried, 0);
        assert_eq!(
            (ids(&w2[0].cores), ids(&w2[0].edges)),
            (cores.to_vec(), vec![e.0])
        );
        assert_eq!(cells_of(&w2[0]), [(0, Core, 4), (1, Edge, 2)]);
        // And so does its expiry.
        assert_eq!(d.slide(), (w2, 1));
        assert_eq!(links(&d), before);
        assert_eq!(d.slide(), (w0, 0));
    }

    /// Two clusters, each carried, become one through a single new link;
    /// the expiry of the object that made the link splits them again.
    #[test]
    fn clusters_merge_through_one_new_link_and_split_on_its_expiry() {
        let mut d = Driven::new(2);
        for x in [0.1, 0.2, 0.3, 1.7, 1.8, 1.9] {
            d.put(x, LATE);
        }
        let (w0, _) = d.slide();
        assert_eq!(w0.len(), 2);
        assert_eq!(cells_of(&w0[0]), [(0, Core, 3)]);
        assert_eq!(cells_of(&w0[1]), [(1, Core, 3)]);
        assert_eq!(d.slide(), (w0.clone(), 2));
        d.put(0.95, 4); // a neighbor of all six
        let (w2, carried) = d.slide();
        assert_eq!((w2.len(), carried), (1, 0));
        assert_eq!(cells_of(&w2[0]), [(0, Core, 4), (1, Core, 3)]);
        assert_eq!(w2[0].sgs.cells.get(0).unwrap().connections, [1]);
        assert_eq!(w2[0].cores.len(), 7);
        assert_eq!(d.slide(), (w2, 1));
        // Window 4: the bridge is gone.
        assert_eq!(d.slide(), (w0.clone(), 0));
        assert_eq!(d.slide(), (w0, 2));
    }

    /// A rebuilt cluster's edge cell can be a core cell of a *carried*
    /// cluster, whose member pass no longer visits it: the rebuilt one has
    /// to list that cell's objects itself.
    #[test]
    fn an_edge_cell_inside_a_carried_cluster_is_still_listed() {
        let mut d = Driven::new(3);
        // Left cluster: core cells −1 and 0.
        let left = [-0.5, -0.6, -0.7, -0.8, 0.1].map(|x| d.put(x, LATE).0);
        // Right cluster: core cells 1 and 2. `e` has two neighbors, the
        // left's object at 0.1 and the right's at 1.9: an edge object
        // of both, in a core cell of the right.
        let e = d.put(1.05, LATE);
        let right = [1.9, 2.3, 2.5, 2.7].map(|x| d.put(x, LATE).0);
        let (w0, _) = d.slide();
        assert_eq!(w0.len(), 2);
        assert_eq!(
            (ids(&w0[0].cores), ids(&w0[0].edges)),
            (left.to_vec(), vec![e.0])
        );
        assert_eq!(
            cells_of(&w0[0]),
            [(-1, Core, 4), (0, Core, 1), (1, Edge, 2)]
        );
        assert_eq!(
            (ids(&w0[1].cores), ids(&w0[1].edges)),
            (right.to_vec(), vec![e.0])
        );
        assert_eq!(d.slide(), (w0.clone(), 2));
        // The left gains an edge object at its far end; the right is
        // not written.
        let x = d.put(-1.75, LATE);
        let (w2, carried) = d.slide();
        assert_eq!(carried, 1);
        assert_eq!(w2[1], w0[1]);
        assert_eq!(ids(&w2[0].edges), [e.0, x.0]);
    }

    /// The mirror image, from the carried side: the carried cluster comes
    /// first, and its core cell, which the rebuilt one holds as an edge
    /// cell, is in no dense index — its edge object is still the rebuilt
    /// one's, and the carried cluster is merged back in ahead of it.
    #[test]
    fn a_carried_clusters_core_cell_is_listed_as_a_rebuilt_ones_edge_cell() {
        let mut d = Driven::new(3);
        // Left cluster: core cells −1 and 0.
        let left = [-0.2, -0.3, -0.4, -0.5, 0.1].map(|x| d.put(x, LATE).0);
        // `e` neighbors the left's object at 0.1 and the right's at
        // 1.9 only: an edge object of both, in a core cell of the left.
        let e = d.put(0.95, LATE);
        let right = [1.9, 2.3, 2.5, 2.7].map(|x| d.put(x, LATE).0);
        let (w0, _) = d.slide();
        assert_eq!(w0.len(), 2);
        assert_eq!(
            (ids(&w0[0].cores), ids(&w0[0].edges)),
            (left.to_vec(), vec![e.0])
        );
        assert_eq!(cells_of(&w0[0]), [(-1, Core, 4), (0, Core, 2)]);
        assert_eq!(
            (ids(&w0[1].cores), ids(&w0[1].edges)),
            (right.to_vec(), vec![e.0])
        );
        assert_eq!(cells_of(&w0[1]), [(0, Edge, 2), (1, Core, 1), (2, Core, 3)]);
        assert_eq!(d.slide(), (w0.clone(), 2));
        // The right gains an edge object at its far end; the left is
        // not written.
        let x = d.put(3.6, LATE);
        let (w2, carried) = d.slide();
        assert_eq!(carried, 1);
        assert!([-1, 0].iter().all(|&c| d.cell(c).touched < 2));
        assert_eq!(w2[0], w0[0]);
        assert_eq!(ids(&w2[1].edges), [e.0, x.0]);
        assert_eq!(
            cells_of(&w2[1]),
            [(0, Edge, 2), (1, Core, 1), (2, Core, 3), (3, Edge, 1)]
        );
    }

    /// A new object in a new cell becomes core with neighbors in a carried
    /// cluster's core cell: the raise on that cell's side of the new
    /// core-core link is its only write, and it alone rebuilds the cluster.
    #[test]
    fn a_new_core_core_link_to_a_carried_core_cell_rebuilds_its_cluster() {
        let mut d = Driven::new(2);
        let left = [0.1, 0.2, 0.3].map(|x| d.put(x, LATE).0);
        let (w0, _) = d.slide();
        assert_eq!(cells_of(&w0[0]), [(0, Core, 3)]);
        assert_eq!(d.slide(), (w0.clone(), 1));
        let z = d.put(1.05, LATE); // neighbors all three: core
        assert_eq!(d.cell(0).population, 3);
        assert_eq!(d.cell(0).touched, 2, "stamped by the link raise");
        let (w2, carried) = d.slide();
        assert_eq!((w2.len(), carried), (1, 0));
        assert_eq!(cells_of(&w2[0]), [(0, Core, 3), (1, Core, 1)]);
        assert_eq!(ids(&w2[0].cores), [left.as_slice(), &[z.0]].concat());
    }

    /// A cluster of a core cell and an edge cell whose one object expires:
    /// the edge cell empties and is collected, and its vacant slot is the
    /// only trace of the change — the core cell is not written, and the
    /// attachment lapses by its watermark. The carry-over check reads the
    /// slot as changed, and the cluster is rebuilt without it. Returns the
    /// harness, the first window's cluster and the collected cell's id.
    fn an_edge_cell_collected_under_an_unwritten_cluster() -> (Driven, WindowOutput, CellId) {
        let mut d = Driven::new(2);
        let cores = [0.1, 0.2, 0.3].map(|x| d.put(x, LATE).0);
        let e = d.put(1.25, 2); // the object at 0.3 only: an edge object
        let (w0, _) = d.slide();
        assert_eq!(
            (ids(&w0[0].cores), ids(&w0[0].edges)),
            (cores.to_vec(), vec![e.0])
        );
        assert_eq!(cells_of(&w0[0]), [(0, Core, 3), (1, Edge, 1)]);
        let edge = d
            .csgs
            .cells
            .id_of(&CellCoord::new(vec![1]))
            .expect("stored");
        assert_eq!(d.slide(), (w0.clone(), 1));
        // Window 2 is current: `e` is gone, and its cell with it.
        assert!(d.csgs.cells.stored(edge).is_none(), "the slot is vacant");
        assert!(d.cell(0).touched < 2, "the core cell is not written");
        (d, w0, edge)
    }

    /// The vacant slot alone rebuilds the cluster.
    #[test]
    fn a_collected_edge_cell_rebuilds_its_cluster_by_its_vacant_slot() {
        let (mut d, w0, _) = an_edge_cell_collected_under_an_unwritten_cluster();
        let (w2, carried) = d.slide();
        assert_eq!((w2.len(), carried), (1, 0));
        assert!(!Arc::ptr_eq(&w2[0], &w0[0]));
        assert_eq!(cells_of(&w2[0]), [(0, Core, 3)]);
        assert!(w2[0].edges.is_empty());
        assert_eq!(d.slide(), (w2, 1));
    }

    /// The same, with a new cell far away taking the freed slot before
    /// the window is out: the slot is occupied again, by a cell stamped
    /// in this window, and the cluster is still rebuilt.
    #[test]
    fn a_collected_edge_cells_slot_taken_by_a_new_cell_still_rebuilds() {
        let (mut d, w0, edge) = an_edge_cell_collected_under_an_unwritten_cluster();
        d.put(20.5, LATE);
        let far = d.csgs.cells.id_of(&CellCoord::new(vec![20]));
        assert_eq!(far, Some(edge), "the new cell takes the freed slot");
        let (w2, carried) = d.slide();
        assert_eq!((w2.len(), carried), (1, 0));
        assert!(!Arc::ptr_eq(&w2[0], &w0[0]));
        assert_eq!(cells_of(&w2[0]), [(0, Core, 3)]);
        assert!(w2[0].edges.is_empty());
    }

    /// Neighbors arriving with expiries out of order are inserted inside
    /// the list, not appended; two neighbors dying together leave each
    /// other's lists as the prefix they are, and every slide leaves every
    /// list in expiry order with the career it implies.
    #[test]
    fn out_of_order_expiries_keep_neighbor_lists_in_expiry_order() {
        let mut d = Driven::new(2);
        let list = |d: &Driven, id: PointId| d.csgs.points.states.state(id).neighbors.clone();
        let q = d.put(0.5, LATE);
        let a = d.put(0.6, 6);
        let b = d.put(0.7, 4); // before `a` in `q`'s list
        let c = d.put(0.8, 4); // after `b`, before `a`: dies with `b`
        let e = d.put(0.9, 2); // at the front of every list
        assert_eq!(list(&d, q), [e, b, c, a]);
        assert_eq!(list(&d, a), [e, b, c, q]);
        assert_eq!(list(&d, b), [e, c, a, q]);
        assert_eq!(list(&d, e)[2..], [a, q]);
        assert_lists_in_expiry_order(&d.csgs);
        // Per window: clusters besides the bystander, and `q`'s list
        // once the next window is current.
        let windows = [
            (1, vec![e, b, c, a]),
            (1, vec![b, c, a]), // `e` died: a one-entry prefix
            (1, vec![b, c, a]),
            (1, vec![a]), // `b` and `c` died together
            (0, vec![a]),
            (0, vec![]),
        ];
        for (w, (clusters, q_list)) in windows.into_iter().enumerate() {
            if w == 3 {
                assert_eq!(list(&d, b), [c, a, q], "`c` dies with `b`");
            }
            let (out, _) = d.slide();
            assert_lists_in_expiry_order(&d.csgs);
            assert_eq!((out.len(), list(&d, q)), (clusters, q_list), "window {w}");
        }
    }
}
