//! The C-SGS algorithm (§5.4): integrated extraction + summarization,
//! sharded by grid region.
//!
//! **Insertion** (the only place structural work happens):
//!
//! 1. one range-query search finds the new object's neighbors (§5.3
//!    guarantees exactly one RQS per object, ever);
//! 2. the object's core career is derived from its neighbors' lifespans
//!    (Obs. 5.4) and pushed into its cell's `core_until` watermark
//!    (status *promotion*, Fig. 6 case 1);
//! 3. each neighbor's expiry histogram gains the new object; careers that
//!    extend push their cells' watermarks (status *prolong* / neighbor
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
//! again: the extractor keeps the previous output and carries it over.
//!
//! **Sharding** (`DESIGN.md` §6): the extraction state is partitioned by
//! hashed grid region across `S` shards ([`ClusterQuery::shards`]), and
//! the steps above are written once, over routed shards
//! (`shards[owner]`, `cell_stores[owner]`), as [`WindowConsumer::insert`].
//! That one sequential rendering serves `S = 1` (every point routes to
//! shard 0), single-point insertion, and small batches. A between-boundary
//! batch that is worth forking — `S > 1` and at least `PAR_BATCH_MIN`
//! arrivals — instead runs the same steps as five fork-join phases on the
//! shared [`sgs_exec::Pool`] (`DESIGN.md` §8; persistent workers, no
//! per-batch thread spawns) —
//! load, discover (the RQS, read-only across shards), apply (career and
//! histogram updates, shard-local plus a histogram mailbox), link (pair
//! watermark events, read-only), raise (link mailbox drain). Because every
//! watermark update is a monotone max-raise and all of a point's derived
//! quantities depend only on its final within-batch neighbor set, the
//! phased execution reaches exactly the observable state of sequential
//! insertion — which is why [`WindowOutput`] is byte-identical for every
//! shard count and batch size, and each object still costs exactly one
//! range-query search.

use sgs_core::{CellCoord, ClusterQuery, GridGeometry, HeapSize, Point, PointId, WindowId};
use sgs_exec::Pool;
use sgs_index::{ReachWalker, ShardRouter};
use sgs_stream::{ExpiryHistogram, WindowConsumer};

use crate::cell_store::CellStore;
use crate::merge;
use crate::output::WindowOutput;
use crate::shard::{
    fork_each, raise_pairs, resolve, Found, HistMsg, LinkMsg, NewPointPlan, PointState, Shard,
};

/// Batches smaller than this are inserted point by point on the calling
/// thread: the observable state is identical, but the phases' bucketing,
/// mailboxes and pool fork-join are not worth paying for a handful of
/// points.
const PAR_BATCH_MIN: usize = 32;

/// Adaptive sharding ([`ShardCount::Auto`]): one shard per this many live
/// points. Below it, a shard's batch slices are too small for the phase
/// fork-join to pay for itself.
const POINTS_PER_SHARD: usize = 256;

/// Adaptive sharding: one shard per this many occupied grid cells. Cells
/// are the unit of routing (via their regions), so fewer occupied cells
/// than this per shard cannot balance load no matter how many points the
/// cells hold.
const CELLS_PER_SHARD: usize = 16;

/// The integrated C-SGS extractor. Implements [`WindowConsumer`]; each
/// slide returns the window's clusters in full + SGS representation.
///
/// The extractor is sharded by grid region when the query asks for more
/// than one shard (see [`ClusterQuery::shards`] and the module docs); the
/// per-window output is byte-identical across shard counts.
pub struct CSgs {
    query: ClusterQuery,
    geometry: GridGeometry,
    router: ShardRouter,
    /// Scheduler the parallel phases fork onto (`DESIGN.md` §8); shared
    /// with every other extractor on the same pool.
    pool: Pool,
    shards: Vec<Shard>,
    /// Per-shard skeletal cell stores, index-aligned with `shards` (kept
    /// outside [`Shard`] so the link phase can write its own store while
    /// reading every shard's points).
    cell_stores: Vec<CellStore>,
    current: WindowId,
    /// Adaptive mode ([`ShardCount::Auto`]): re-partition at window
    /// boundaries from observed grid occupancy instead of holding a
    /// static shard count.
    adaptive: bool,
    /// Upper bound for adaptive shard counts (derived from the pool's
    /// worker count at construction).
    max_shards: usize,
    /// Range-query walker of the sequential path (each parallel discover
    /// task builds its own).
    walker: ReachWalker,
    /// Scratch of the sequential path, reused across inserts: the new
    /// point's neighbors, and those whose core career it extended, each
    /// with its owning shard.
    found: Vec<Found>,
    extended: Vec<(PointId, u32)>,
    /// The previous window's output: what the output stage carries the
    /// untouched clusters over from (`DESIGN.md` §6).
    retained: WindowOutput,
    /// Number of range query searches executed (one per object, §5.3 —
    /// regardless of shard count).
    pub rqs_count: u64,
    /// Clusters emitted by carrying the previous window's over unchanged.
    pub carried_count: u64,
    /// Clusters emitted by rebuilding them from the skeletal cells.
    pub rebuilt_count: u64,
}

impl CSgs {
    /// New extractor for `query`, scheduling its parallel phases on the
    /// process-wide [`sgs_exec::global`] pool.
    pub fn new(query: ClusterQuery) -> Self {
        Self::with_pool(query, sgs_exec::global().clone())
    }

    /// New extractor for `query` on an explicit scheduler pool (the
    /// runtime passes its own so every query's phases share one set of
    /// workers).
    pub fn with_pool(query: ClusterQuery, pool: Pool) -> Self {
        let geometry = query.basic_grid();
        // Adaptive mode starts single-sharded: a cold extractor has no
        // occupancy to partition by, and S = 1 is the cheapest
        // configuration for a small live set. `maybe_reshard` raises S
        // once the observed grid justifies it.
        let (s, adaptive) = match query.shards {
            sgs_core::ShardCount::Fixed(n) => ((n as usize).max(1), false),
            sgs_core::ShardCount::Auto => (1, true),
        };
        // Mild over-sharding (2× the worker count of the pool the phases
        // fork onto) improves fork-join load balance; the floor of 4 keeps
        // adaptation observable — and useful for balance — even on small
        // pools.
        let max_shards = (pool.threads() * 2).max(4);
        // Region width ≥ the range-query reach, so a point's neighborhood
        // spans at most the regions adjacent to its own. Using a full
        // block width (2·reach + 1) keeps most of a point's neighborhood
        // in one region: discovery routes fewer regions per search and
        // most pair raises stay shard-local.
        let router = ShardRouter::new(2 * geometry.reach().max(1) + 1, s);
        let shards = (0..s).map(|_| Shard::new(geometry.clone())).collect();
        CSgs {
            walker: ReachWalker::new(&geometry, &router),
            found: Vec::new(),
            extended: Vec::new(),
            query,
            geometry,
            router,
            pool,
            shards,
            cell_stores: (0..s).map(|_| CellStore::new()).collect(),
            current: WindowId(0),
            adaptive,
            max_shards,
            retained: Vec::new(),
            rqs_count: 0,
            carried_count: 0,
            rebuilt_count: 0,
        }
    }

    /// The shard count the adaptive policy wants for the current grid
    /// occupancy: enough live points *and* enough occupied cells per
    /// shard to keep every phase slice worth forking, capped by the
    /// host's parallelism budget.
    fn adaptive_target(&self) -> usize {
        let live: usize = self.shards.iter().map(|sh| sh.points.len()).sum();
        let cells: usize = self.shards.iter().map(|sh| sh.index.cell_count()).sum();
        (live / POINTS_PER_SHARD)
            .min(cells / CELLS_PER_SHARD)
            .clamp(1, self.max_shards)
    }

    /// Re-partition all live extraction state onto `new_s` shards.
    ///
    /// Every watermark, histogram, and neighbor list is independent of
    /// which shard holds it — sharding is pure routing — so the move is
    /// wholesale: points re-index under the new router in id order
    /// (matching the arrival order a fixed-`new_s` run would have used),
    /// and each cell's state transfers untouched to its new owning
    /// store. The observable output stays byte-identical to every fixed
    /// shard count (the `shard_invariance` contract).
    fn reshard(&mut self, new_s: usize) {
        let dim = self.query.dim;
        let old_shards = std::mem::take(&mut self.shards);
        let old_stores = std::mem::take(&mut self.cell_stores);
        self.router = ShardRouter::new(2 * self.geometry.reach().max(1) + 1, new_s);
        self.walker = ReachWalker::new(&self.geometry, &self.router);
        self.shards = (0..new_s)
            .map(|_| Shard::new(self.geometry.clone()))
            .collect();
        self.cell_stores = (0..new_s).map(|_| CellStore::new()).collect();
        for store in &mut self.cell_stores {
            store.set_window(self.current);
        }

        let mut moving: Vec<(PointId, PointState, usize)> = Vec::new();
        let mut coords: Vec<f64> = Vec::new();
        for mut sh in old_shards {
            for (id, st) in sh.points.drain() {
                let at = coords.len();
                coords.extend_from_slice(sh.arena.get(st.slot));
                moving.push((id, st, at));
            }
        }
        moving.sort_unstable_by_key(|(id, _, _)| *id);
        for (id, st, at) in moving {
            let home = self.router.shard_of(&st.cell);
            self.shards[home].adopt(id, &coords[at..at + dim], st);
        }
        for mut store in old_stores {
            for (coord, state) in store.drain() {
                let home = self.router.shard_of(&coord);
                self.cell_stores[home].insert_state(coord, state);
            }
        }
    }

    /// The query this extractor runs.
    pub fn query(&self) -> &ClusterQuery {
        &self.query
    }

    /// The number of extraction shards in use.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of live points.
    pub fn live_len(&self) -> usize {
        self.shards.iter().map(|sh| sh.points.len()).sum()
    }

    /// Coordinates of a live point (for building member sets from output).
    pub fn coords_of(&self, id: PointId) -> Option<&[f64]> {
        self.shards
            .iter()
            .find_map(|sh| sh.points.get(&id).map(|p| sh.arena.get(p.slot)))
    }

    /// Approximate bytes of retained meta-data, the previous window's
    /// output included. Unlike Extra-N this is independent of `win/slide`
    /// — no per-view state exists.
    pub fn meta_bytes(&self) -> usize {
        self.shards.iter().map(Shard::meta_bytes).sum::<usize>()
            + self
                .cell_stores
                .iter()
                .map(CellStore::heap_bytes)
                .sum::<usize>()
            + self.retained.iter().map(HeapSize::heap_size).sum::<usize>()
    }

    /// The output stage for window `w`, carrying over from `prev`.
    fn emit(&self, w: WindowId, prev: WindowOutput) -> (WindowOutput, usize) {
        merge::emit(
            &self.geometry,
            &self.router,
            &self.pool,
            &self.shards,
            &self.cell_stores,
            w,
            prev,
        )
    }

    /// Phased parallel insertion of one between-boundary batch (`S > 1`,
    /// at least [`PAR_BATCH_MIN`] points). `items` arrive in id order, with
    /// ids greater than every previously inserted id (the window engine's
    /// arrival numbering).
    fn sharded_batch(&mut self, items: &[(PointId, Point, WindowId)]) {
        let CSgs {
            ref query,
            ref geometry,
            ref router,
            ref pool,
            ref mut shards,
            ref mut cell_stores,
            current: now,
            ..
        } = *self;
        let s = shards.len();
        let theta_c = query.theta_c;
        let theta_sq = query.theta_r_sq();
        let batch_first = items[0].0;

        // Bucket the batch by owning shard (allocation-free routing).
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); s];
        for (ix, (_, point, _)) in items.iter().enumerate() {
            buckets[router.shard_of_coords(&point.coords, geometry)].push(ix as u32);
        }

        // Phase A — load: each shard enters its own points.
        fork_each(
            pool,
            shards.iter_mut().zip(cell_stores.iter_mut()),
            |i, (sh, cells)| {
                for &ix in &buckets[i] {
                    let (id, ref point, expires) = items[ix as usize];
                    sh.load(cells, id, point, expires);
                }
            },
        );

        // Phase B — discover (read-only over all shards): the one range
        // query search per new point, across its own and adjacent regions'
        // grids. Produces each point's full within-batch neighbor set,
        // histogram, and final core career, plus histogram messages for
        // pre-existing neighbors (new neighbors discover each other
        // symmetrically and need no message).
        struct Discover {
            plans: Vec<NewPointPlan>,
            out: Vec<Vec<HistMsg>>,
        }
        let mut disc: Vec<Discover> = (0..s)
            .map(|_| Discover {
                plans: Vec::new(),
                out: vec![Vec::new(); s],
            })
            .collect();
        {
            let shards = &*shards;
            fork_each(pool, disc.iter_mut(), |i, sc| {
                let mut walker = ReachWalker::new(geometry, router);
                for &ix in &buckets[i] {
                    let (p_id, ref point, p_exp) = items[ix as usize];
                    let center = &shards[i].points[&p_id].cell;
                    let mut hist = ExpiryHistogram::new();
                    let mut neighbors = Vec::new();
                    walker.for_each_neighbor(
                        |o| &shards[o].index,
                        center,
                        &point.coords,
                        theta_sq,
                        p_id,
                        |owner, q, q_exp| {
                            hist.add(q_exp);
                            neighbors.push((q, owner as u32, q_exp));
                            if q < batch_first {
                                sc.out[owner].push(HistMsg {
                                    q,
                                    p: p_id,
                                    p_expires: p_exp,
                                });
                            }
                        },
                    );
                    let core_until = hist.core_until(p_exp, now, theta_c).0;
                    sc.plans.push(NewPointPlan {
                        id: p_id,
                        neighbors,
                        hist,
                        core_until,
                    });
                }
            });
        }
        // Route the histogram mailboxes (senders in shard order, each
        // sender's messages in discovery order — deterministic).
        struct Apply {
            plans: Vec<NewPointPlan>,
            inbox: Vec<HistMsg>,
            /// Pre-existing points whose core career extended (phase C
            /// output, consumed by phase D).
            extended: Vec<PointId>,
        }
        let mut apply: Vec<Apply> = (0..s)
            .map(|_| Apply {
                plans: Vec::new(),
                inbox: Vec::new(),
                extended: Vec::new(),
            })
            .collect();
        for sc in &mut disc {
            for (dst, msgs) in sc.out.iter_mut().enumerate() {
                apply[dst].inbox.append(msgs);
            }
        }
        for (i, sc) in disc.into_iter().enumerate() {
            apply[i].plans = sc.plans;
        }

        // Phase C — apply (shard-local writes): install the new points'
        // career state, drain the histogram inbox, record extensions.
        fork_each(
            pool,
            shards
                .iter_mut()
                .zip(cell_stores.iter_mut())
                .zip(apply.iter_mut()),
            |_, ((sh, cells), ap)| {
                ap.extended = sh.apply_batch(cells, &mut ap.plans, &mut ap.inbox, now, theta_c);
            },
        );

        // Phase D — link: with every career now final, raise the pair
        // watermarks for all new pairs and all extended points' pairs.
        // Each task owns its shard's cell store and applies locally-owned
        // sides in place (allocation-free for established links); only
        // sides owned by *other* shards become mailbox messages. Raises
        // are idempotent max-updates, so symmetric double-discovery of a
        // new-new pair is harmless.
        let mut link_out: Vec<Vec<Vec<LinkMsg>>> = vec![Vec::new(); s];
        {
            let shards = &*shards;
            let apply = &apply;
            fork_each(
                pool,
                cell_stores.iter_mut().zip(link_out.iter_mut()),
                |i, (cells, out)| {
                    out.resize_with(s, Vec::new);
                    let mut raise =
                        |owner: usize, at: &CellCoord, other: &CellCoord, core_core, attach| {
                            if owner == i {
                                cells.raise_link(at, other, core_core, attach);
                            } else if core_core > now.0 || attach > now.0 {
                                // (What `raise_link` would drop is not sent.)
                                out[owner].push(LinkMsg {
                                    at: at.clone(),
                                    other: other.clone(),
                                    core_core,
                                    attach,
                                });
                            }
                        };
                    for plan in &apply[i].plans {
                        link_new(shards, i, plan.id, &plan.neighbors, &mut raise);
                    }
                    for &q in &apply[i].extended {
                        link_extended(shards, i, q, &mut raise);
                    }
                },
            );
        }
        let mut link_in: Vec<Vec<LinkMsg>> = vec![Vec::new(); s];
        for out in &mut link_out {
            for (dst, msgs) in out.iter_mut().enumerate() {
                link_in[dst].append(msgs);
            }
        }

        // Phase E — raise: drain the cross-shard link mailboxes.
        fork_each(
            pool,
            cell_stores.iter_mut().zip(link_in.iter_mut()),
            |_, (cells, inbox)| {
                for msg in inbox.drain(..) {
                    cells.raise_link(&msg.at, &msg.other, msg.core_core, msg.attach);
                }
            },
        );

        self.rqs_count += items.len() as u64;
    }
}

/// §5.4 step 5: raise the pair links between new point `p` (owned by shard
/// `home`) and each neighbor its range query found.
fn link_new(
    shards: &[Shard],
    home: usize,
    p: PointId,
    found: &[Found],
    raise: &mut impl FnMut(usize, &CellCoord, &CellCoord, u64, u64),
) {
    let nbrs = found
        .iter()
        .map(|&(q, owner, _)| (owner as usize, &shards[owner as usize].points[&q]));
    raise_pairs(home, &shards[home].points[&p], nbrs, raise);
}

/// §5.4 step 6 (connection prolong): `q`'s core career extended, so every
/// pair it belongs to is re-evaluated. Every listed id resolves: a slide
/// drops the ids of the points it expires from every list.
fn link_extended(
    shards: &[Shard],
    owner: usize,
    q: PointId,
    raise: &mut impl FnMut(usize, &CellCoord, &CellCoord, u64, u64),
) {
    let q = &shards[owner].points[&q];
    let nbrs = q
        .neighbors
        .iter()
        .map(|&r| resolve(shards, r).expect("a listed neighbor is live between slides"));
    raise_pairs(owner, q, nbrs, raise);
}

impl WindowConsumer for CSgs {
    type Output = WindowOutput;

    /// §5.4 steps 1–6 for one arrival, each touched point and cell
    /// resolved to its owning shard.
    fn insert(&mut self, id: PointId, point: &Point, expires_at: WindowId) {
        let CSgs {
            ref query,
            ref geometry,
            ref router,
            ref mut shards,
            ref mut cell_stores,
            ref mut walker,
            ref mut found,
            ref mut extended,
            ref mut rqs_count,
            current: now,
            ..
        } = *self;
        let theta_c = query.theta_c;
        let home = router.shard_of_coords(&point.coords, geometry);

        // 1 + 2. Load, then the one range query search across shards.
        shards[home].load(&mut cell_stores[home], id, point, expires_at);
        let mut hist = ExpiryHistogram::new();
        found.clear();
        {
            let shards = &*shards;
            walker.for_each_neighbor(
                |o| &shards[o].index,
                &shards[home].points[&id].cell,
                &point.coords,
                query.theta_r_sq(),
                id,
                |owner, q, q_exp| {
                    hist.add(q_exp);
                    found.push((q, owner as u32, q_exp));
                },
            );
        }
        *rqs_count += 1;

        // 3. The new object's own career → status promotion.
        let p_cu = hist.core_until(expires_at, now, theta_c).0;
        shards[home].install(&mut cell_stores[home], id, found, hist, p_cu, now);

        // 4. Neighbors gain the new object; extended careers prolong.
        extended.clear();
        for &(q, owner, _) in found.iter() {
            let (sh, cells) = (
                &mut shards[owner as usize],
                &mut cell_stores[owner as usize],
            );
            if sh.gain_neighbor(cells, q, id, expires_at, now, theta_c) {
                extended.push((q, owner));
            }
        }

        // 5 + 6. With every career final, raise the pair links of the new
        // object and of each extended neighbor, both sides routed.
        let mut raise = |owner: usize, at: &CellCoord, other: &CellCoord, core_core, attach| {
            cell_stores[owner].raise_link(at, other, core_core, attach);
        };
        link_new(shards, home, id, found, &mut raise);
        for &(q, owner) in extended.iter() {
            link_extended(shards, owner as usize, q, &mut raise);
        }
    }

    fn insert_batch(&mut self, items: &[(PointId, Point, WindowId)]) {
        if self.shards.len() > 1 && items.len() >= PAR_BATCH_MIN {
            self.sharded_batch(items);
        } else {
            for (id, point, expires_at) in items {
                self.insert(*id, point, *expires_at);
            }
        }
    }

    fn slide(&mut self, completed: WindowId) -> WindowOutput {
        debug_assert_eq!(completed, self.current);
        let prev = std::mem::take(&mut self.retained);
        let (out, carried) = self.emit(completed, prev);
        // Release builds trust a carried cluster; debug builds — every
        // test suite — rebuild the window from the cells and compare.
        debug_assert_eq!(
            out,
            self.emit(completed, Vec::new()).0,
            "carried clusters diverged from a from-scratch emit at {completed}"
        );
        self.carried_count += carried as u64;
        self.rebuilt_count += (out.len() - carried) as u64;
        self.retained = out.clone();

        // Advance and drop expired raw data (no watermark maintenance —
        // the paper's zero-cost expiration property). Dead points' ids are
        // pruned from their neighbors' lists eagerly, across shards, so
        // lists stay bounded by the live population, and the cells written
        // since the last slide are collected. From here on every write to
        // a cell is stamped with the new window.
        self.current = completed.next();
        let now = self.current;
        for store in &mut self.cell_stores {
            store.set_window(now);
        }
        let mut listed_by: Vec<Vec<PointId>> = vec![Vec::new(); self.shards.len()];
        fork_each(
            &self.pool,
            self.shards
                .iter_mut()
                .zip(self.cell_stores.iter_mut())
                .zip(listed_by.iter_mut()),
            |_, ((sh, cells), l)| *l = sh.remove_expired(cells, now),
        );
        let listed_by: Vec<PointId> = listed_by.concat();
        fork_each(
            &self.pool,
            self.shards.iter_mut().zip(self.cell_stores.iter_mut()),
            |_, (sh, cells)| {
                sh.prune_dead(&listed_by, now);
                cells.gc(now);
            },
        );

        // Adaptive mode: with the window's churn settled, re-partition if
        // the observed occupancy asks for a different shard count.
        if self.adaptive {
            let target = self.adaptive_target();
            if target != self.shards.len() {
                self.reshard(target);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell_store::CellState;
    use rand::{Rng, SeedableRng};
    use sgs_cluster::{CanonicalClustering, ExtraN, FullCluster, NaiveClusterer};
    use sgs_core::{ShardCount, WindowSpec};
    use sgs_stream::replay;
    use sgs_summarize::{CellStatus, MemberSet, Sgs};

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

    fn random_stream(seed: u64, n: usize, extent: f64) -> Vec<Point> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point::new(
                    vec![rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)],
                    0,
                )
            })
            .collect()
    }

    #[test]
    fn matches_naive_dbscan_per_window() {
        let spec = WindowSpec::count(100, 20).unwrap();
        let q = ClusterQuery::new(0.25, 4, 2, spec).unwrap();
        let pts = random_stream(42, 600, 3.0);
        let mut naive = NaiveClusterer::new(q.clone());
        let mut csgs = CSgs::new(q);
        let naive_out = replay(spec, pts.clone(), 2, &mut naive).unwrap();
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
        let pts = random_stream(7, 300, 2.0);
        let mut extra = ExtraN::new(q.clone());
        let mut csgs = CSgs::new(q);
        let extra_out = replay(spec, pts.clone(), 2, &mut extra).unwrap();
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
        let pts = random_stream(13, 400, 2.5);
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
        let pts = random_stream(1, 200, 2.0);
        let mut csgs = CSgs::new(q);
        replay(spec, pts, 2, &mut csgs).unwrap();
        assert_eq!(csgs.rqs_count, 200);
    }

    #[test]
    fn meta_bytes_independent_of_views() {
        let pts = random_stream(5, 400, 2.0);
        let mut sizes = Vec::new();
        for slide in [50u64, 10, 2] {
            let spec = WindowSpec::count(100, slide).unwrap();
            let q = ClusterQuery::new(0.3, 3, 2, spec).unwrap();
            let mut csgs = CSgs::new(q);
            replay(spec, pts.clone(), 2, &mut csgs).unwrap();
            sizes.push(csgs.meta_bytes() as f64);
        }
        // C-SGS meta-data must not blow up with view count: allow noise but
        // reject the Extra-N-style multiplicative growth (50/2 = 25 views).
        assert!(
            sizes[2] < sizes[0] * 3.0,
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

    /// Run a stream through the extractor with `shards`, via batched
    /// pushes, collecting every window's output.
    fn run_sharded(
        pts: &[Point],
        spec: WindowSpec,
        shards: ShardCount,
        chunk: usize,
    ) -> (Vec<(WindowId, WindowOutput)>, CSgs) {
        let q = ClusterQuery::new(0.25, 4, 2, spec)
            .unwrap()
            .with_shards(shards);
        let mut csgs = CSgs::new(q);
        let mut engine = sgs_stream::WindowEngine::new(spec, 2);
        let mut outs = Vec::new();
        for c in pts.chunks(chunk) {
            engine
                .push_batch(c.iter().cloned(), &mut csgs, &mut outs)
                .unwrap();
        }
        (outs, csgs)
    }

    #[test]
    fn sharded_output_is_byte_identical_to_single_shard() {
        let spec = WindowSpec::count(120, 30).unwrap();
        let pts = random_stream(99, 700, 3.0);
        let (base, base_csgs) = run_sharded(&pts, spec, ShardCount::Fixed(1), 64);
        assert!(base.iter().any(|(_, o)| !o.is_empty()), "workload clusters");
        for s in [2usize, 3, 5] {
            let (out, csgs) = run_sharded(&pts, spec, ShardCount::Fixed(s as u32), 64);
            assert_eq!(csgs.shard_count(), s);
            assert_eq!(base, out, "S = {s} diverged from S = 1");
            assert_eq!(csgs.rqs_count, base_csgs.rqs_count);
            assert_eq!(csgs.live_len(), base_csgs.live_len());
        }
    }

    #[test]
    fn sharded_per_point_inserts_match_batched() {
        // The trait `insert` path (batch of one) must agree with segments.
        let spec = WindowSpec::count(60, 20).unwrap();
        let pts = random_stream(3, 240, 2.0);
        let q = ClusterQuery::new(0.25, 4, 2, spec)
            .unwrap()
            .with_shards(ShardCount::Fixed(3));
        let mut csgs = CSgs::new(q);
        let per_point = replay(spec, pts.clone(), 2, &mut csgs).unwrap();
        let (batched, _) = run_sharded(&pts, spec, ShardCount::Fixed(3), 31);
        assert_eq!(per_point, batched);
    }

    #[test]
    fn neighbor_lists_stay_bounded_by_live_population() {
        // Eager pruning: after any number of windows, no point's neighbor
        // list may reference an expired point or exceed the live count.
        let spec = WindowSpec::count(40, 8).unwrap();
        let pts = random_stream(17, 800, 1.2); // dense → large neighbor lists
        for shards in [ShardCount::Fixed(1), ShardCount::Fixed(3)] {
            let (_, csgs) = run_sharded(&pts, spec, shards, 57);
            let live = csgs.live_len();
            assert!(live > 0);
            let all_live: std::collections::HashSet<PointId> = csgs
                .shards
                .iter()
                .flat_map(|sh| sh.points.keys().copied())
                .collect();
            for sh in &csgs.shards {
                for (id, st) in &sh.points {
                    assert!(
                        st.neighbors.len() < live,
                        "point {id:?} holds {} neighbor ids with only {live} live points",
                        st.neighbors.len()
                    );
                    for nb in &st.neighbors {
                        assert!(
                            all_live.contains(nb),
                            "point {id:?} references expired neighbor {nb:?}"
                        );
                    }
                }
            }
        }
    }

    /// Every point's neighbor list is in non-decreasing expiry order, its
    /// histogram counts exactly the list's expiries, and no listed
    /// neighbor is dead at the current window.
    fn assert_lists_in_expiry_order(csgs: &CSgs) {
        let now = csgs.current;
        for sh in &csgs.shards {
            for (id, st) in &sh.points {
                let expiries: Vec<WindowId> = st
                    .neighbors
                    .iter()
                    .map(|&nb| {
                        let (_, nb) = resolve(&csgs.shards, nb).expect("listed neighbors live");
                        nb.expires_at
                    })
                    .collect();
                assert!(expiries.is_sorted(), "{id:?} at {now}: {expiries:?}");
                assert!(expiries.first().is_none_or(|&e| e > now), "{id:?} at {now}");
                assert_eq!(st.hist.total() as usize, expiries.len(), "{id:?} at {now}");
                for run in expiries.chunk_by(|a, b| a == b) {
                    let count = st.hist.expiring_at(run[0]) as usize;
                    assert_eq!(count, run.len(), "{id:?} at {now}, expiry {}", run[0]);
                }
            }
        }
    }

    /// Each store holds the cells a full sweep over it would keep — `gc`
    /// visits the written cells only — and no cell more links than it has
    /// cells within the range-query reach.
    fn assert_gc_keeps_what_a_sweep_keeps(csgs: &CSgs) {
        let now = csgs.current.0;
        let width = 2 * csgs.geometry.reach() as usize + 1;
        let bound = width.pow(csgs.geometry.dim() as u32) - 1;
        for store in &csgs.cell_stores {
            let cells = |keep: &dyn Fn(&CellState) -> bool| {
                let kept = store.iter().filter(|(_, cell)| keep(cell));
                let mut cells: Vec<&CellCoord> = kept.map(|(c, _)| c).collect();
                cells.sort_unstable();
                cells
            };
            let swept = cells(&|cell| cell.population > 0 || cell.core_until > now);
            assert_eq!(cells(&|_| true), swept, "at {now}");
            for (coord, cell) in store.iter() {
                assert!(cell.links.len() <= bound, "{coord:?}: {}", cell.links.len());
            }
        }
    }

    /// The extractor, checked after every slide.
    struct Checked(CSgs);

    impl WindowConsumer for Checked {
        type Output = WindowOutput;

        fn insert(&mut self, id: PointId, point: &Point, expires_at: WindowId) {
            self.0.insert(id, point, expires_at);
        }

        fn insert_batch(&mut self, items: &[(PointId, Point, WindowId)]) {
            self.0.insert_batch(items);
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

    /// After every slide, for one, three and adaptive shards over 2-d and
    /// 4-d streams (slides of 40 take the phased path where S > 1): the
    /// neighbor lists are in expiry order with exact histograms, and the
    /// stores hold what a full `gc` sweep would keep.
    #[test]
    fn slides_keep_lists_in_expiry_order_and_collect_what_a_sweep_would() {
        let spec = WindowSpec::count(600, 40).unwrap();
        for (dim, extent) in [(2, 4.0), (4, 1.6)] {
            let pts = random_points(31, 1400, dim, extent);
            for shards in [ShardCount::Fixed(1), ShardCount::Fixed(3), ShardCount::Auto] {
                let q = ClusterQuery::new(0.25, 4, dim, spec)
                    .unwrap()
                    .with_shards(shards);
                let mut checked = Checked(CSgs::new(q));
                let mut engine = sgs_stream::WindowEngine::new(spec, dim);
                let mut outs = Vec::new();
                for c in pts.chunks(97) {
                    engine
                        .push_batch(c.iter().cloned(), &mut checked, &mut outs)
                        .unwrap();
                }
                assert!(outs.iter().any(|(_, o)| !o.is_empty()), "{dim}-d clusters");
                let lists: usize = checked.0.shards.iter().map(|sh| sh.points.len()).sum();
                assert!(lists > 0);
                if shards == ShardCount::Auto {
                    assert!(checked.0.shard_count() > 1, "{dim}-d: the stream re-shards");
                }
            }
        }
    }

    #[test]
    fn arena_slots_track_live_points_exactly() {
        let spec = WindowSpec::count(50, 10).unwrap();
        let pts = random_stream(23, 600, 2.0);
        for shards in [ShardCount::Fixed(1), ShardCount::Fixed(4)] {
            let (_, csgs) = run_sharded(&pts, spec, shards, 64);
            for sh in &csgs.shards {
                assert_eq!(
                    sh.arena.live(),
                    sh.points.len(),
                    "arena live slots must equal live points"
                );
                // Recycling bounds total slots by the shard's peak
                // population, far below the 600 points streamed through.
                assert!(sh.arena.slots() <= 2 * 50 + 10);
            }
        }
    }

    /// A hand-driven 1-d extractor with θr = 1 — the cell of `x` is `⌊x⌋`
    /// and two objects are neighbors within distance 1 — plus a bystander
    /// cluster far away that nothing ever touches. Every slide is checked
    /// against an emit that carries nothing over: the comparison `slide`
    /// makes itself in debug builds, made here in release builds too.
    struct Driven {
        csgs: CSgs,
        next_id: u32,
    }

    /// Expiry of the objects a scenario does not let expire.
    const LATE: u64 = 40;

    impl Driven {
        fn new(theta_c: u32, shards: ShardCount) -> Self {
            let spec = WindowSpec::count(100, 10).unwrap();
            let q = ClusterQuery::new(1.0, theta_c, 1, spec)
                .unwrap()
                .with_shards(shards);
            let mut driven = Driven {
                csgs: CSgs::new(q),
                next_id: 0,
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
            let fresh = self.csgs.emit(w, Vec::new()).0;
            let before = self.csgs.carried_count;
            let mut out = self.csgs.slide(w);
            assert_eq!(out, fresh, "window {w}");
            let bystander = out.pop().expect("the bystander cluster");
            assert_eq!(cells_of(&bystander), [(50, CellStatus::Core, 5)]);
            let carried = self.csgs.carried_count - before;
            assert!(w.0 == 0 || carried >= 1, "bystander rebuilt at {w}");
            (out, carried.saturating_sub(1))
        }

        fn cell(&self, cell: i32) -> &crate::cell_store::CellState {
            let coord = CellCoord::new(vec![cell]);
            let found = self.csgs.cell_stores.iter().find_map(|s| s.get(&coord));
            found.expect("cell exists")
        }
    }

    /// `(cell, status, population)` of each skeletal cell of a 1-d cluster.
    fn cells_of(cluster: &crate::ExtractedCluster) -> Vec<(i32, CellStatus, u32)> {
        let cells = cluster.sgs.cells.iter();
        cells
            .map(|c| (c.coord.0[0], c.status, c.population))
            .collect()
    }

    fn ids(ids: &[PointId]) -> Vec<u32> {
        ids.iter().map(|id| id.0).collect()
    }

    const BOTH: [ShardCount; 2] = [ShardCount::Fixed(1), ShardCount::Fixed(3)];
    use CellStatus::{Core, Edge};

    /// A core career that ends because a neighbor expires — no write to
    /// the object's own cell, which stays a core cell — still rebuilds its
    /// cluster: the neighbor's cell is a cell of the same skeleton, and it
    /// was written (here: emptied, and collected).
    #[test]
    fn a_career_lapsing_with_a_neighbors_expiry_rebuilds_the_cluster() {
        for shards in BOTH {
            let mut d = Driven::new(2, shards);
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
    }

    /// An object turns core by a career no longer than its cell's: the
    /// cell's watermark stays where it is, its stamp does not.
    #[test]
    fn an_object_turning_core_under_an_unmoved_cell_watermark_rebuilds() {
        for shards in BOTH {
            let mut d = Driven::new(2, shards);
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
    }

    /// A noise object arriving in an edge cell, or expiring there, changes
    /// nothing of the cluster but that cell's population — which the
    /// summary prints.
    #[test]
    fn noise_coming_and_going_in_an_edge_cell_rebuilds_for_its_population() {
        for shards in BOTH {
            let mut d = Driven::new(3, shards);
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
    }

    /// Two clusters, each carried, become one through a single new link;
    /// the expiry of the object that made the link splits them again.
    #[test]
    fn clusters_merge_through_one_new_link_and_split_on_its_expiry() {
        for shards in BOTH {
            let mut d = Driven::new(2, shards);
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
            assert_eq!(w2[0].sgs.cells[0].connections, [1]);
            assert_eq!(w2[0].cores.len(), 7);
            assert_eq!(d.slide(), (w2, 1));
            // Window 4: the bridge is gone.
            assert_eq!(d.slide(), (w0.clone(), 0));
            assert_eq!(d.slide(), (w0, 2));
        }
    }

    /// A rebuilt cluster's edge cell can be a core cell of a *carried*
    /// cluster, whose member pass no longer visits it: the rebuilt one has
    /// to list that cell's objects itself.
    #[test]
    fn an_edge_cell_inside_a_carried_cluster_is_still_listed() {
        for shards in BOTH {
            let mut d = Driven::new(3, shards);
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
    }

    /// The mirror image, from the carried side: the carried cluster comes
    /// first, and its core cell, which the rebuilt one holds as an edge
    /// cell, is in no dense index — its edge object is still the rebuilt
    /// one's, and the carried cluster is merged back in ahead of it.
    #[test]
    fn a_carried_clusters_core_cell_is_listed_as_a_rebuilt_ones_edge_cell() {
        for shards in BOTH {
            let mut d = Driven::new(3, shards);
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
    }

    /// A new object in a new cell becomes core with neighbors in a carried
    /// cluster's core cell: the raise on that cell's side of the new
    /// core-core link is its only write, and it alone rebuilds the cluster.
    #[test]
    fn a_new_core_core_link_to_a_carried_core_cell_rebuilds_its_cluster() {
        for shards in BOTH {
            let mut d = Driven::new(2, shards);
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
    }

    /// Neighbors arriving with expiries out of order are inserted inside
    /// the list, not appended; two neighbors dying together leave each
    /// other's lists as the prefix they are, and every slide leaves every
    /// list in expiry order with an exact histogram.
    #[test]
    fn out_of_order_expiries_keep_neighbor_lists_in_expiry_order() {
        for shards in BOTH {
            let mut d = Driven::new(2, shards);
            let list = |d: &Driven, id: PointId| {
                let (_, st) = resolve(&d.csgs.shards, id).expect("live");
                st.neighbors.clone()
            };
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
}
