//! The merge layer of sharded C-SGS: per-shard output DFS plus border
//! merge (`DESIGN.md` §6).
//!
//! The output stage (§5.4 of the paper) forms cluster skeletons by DFS
//! over live core cells through live core-core links. Under sharding that
//! graph is distributed: each shard owns the cells of its regions, and
//! pair links can cross region borders. The merge layer therefore runs in
//! three steps:
//!
//! 1. **Local DFS** (parallel, read-only): each shard forms the connected
//!    components of *its own* live core cells, recording every live
//!    core-core link whose far endpoint is a core cell of another shard
//!    (a *border edge*).
//! 2. **Border merge** (sequential): all shards' components are unioned
//!    through the border edges with [`sgs_index::UnionFind`], and the
//!    merged clusters are numbered **by their smallest core cell** in the
//!    global cell ordering — exactly the numbering the unsharded DFS
//!    produces, which is what makes `WindowOutput` byte-identical across
//!    shard counts.
//! 3. **Classification + assembly** (parallel, then sequential): each
//!    shard classifies its own cells and points into the numbered
//!    clusters; the partial results are concatenated, sorted, and
//!    deduplicated into the final [`WindowOutput`].

use sgs_core::{CellCoord, PointId, WindowId};
use sgs_exec::Pool;
use sgs_index::{FxHashMap, ShardRouter, UnionFind};
use sgs_summarize::{CellStatus, Sgs, SkeletalCell};

use crate::cell_store::{CellState, CellStore};
use crate::output::{ExtractedCluster, WindowOutput};
use crate::shard::{fork_each, Shard};

/// Routed cell lookup across the per-shard cell stores.
fn cell_state<'a>(
    stores: &'a [CellStore],
    router: &ShardRouter,
    coord: &CellCoord,
) -> Option<&'a CellState> {
    stores[router.shard_of(coord)].get(coord)
}

/// Per-shard result of the local DFS step.
#[derive(Default)]
struct LocalDfs<'a> {
    /// This shard's live core cells, sorted.
    core: Vec<&'a CellCoord>,
    /// Local component representative (index into `core`) per core cell.
    comp: Vec<u32>,
    /// Live core-core links to core cells owned by other shards, as
    /// (local core index, remote coordinate).
    border: Vec<(u32, &'a CellCoord)>,
}

/// Build the window's output from the live watermarks of all shards.
pub(crate) fn emit(
    dim: usize,
    side: f64,
    router: &ShardRouter,
    pool: &Pool,
    shards: &[Shard],
    stores: &[CellStore],
    w: WindowId,
) -> WindowOutput {
    let s = shards.len();

    // ---- 1. Local DFS per shard (read-only over all shards).
    let mut locals: Vec<LocalDfs> = (0..s).map(|_| LocalDfs::default()).collect();
    fork_each(pool, locals.iter_mut(), |i, loc| {
        let store = &stores[i];
        loc.core = store
            .iter()
            .filter(|(_, c)| c.is_core_at(w))
            .map(|(coord, _)| coord)
            .collect();
        loc.core.sort_unstable();
        let index_of: FxHashMap<&CellCoord, u32> = loc
            .core
            .iter()
            .enumerate()
            .map(|(k, c)| (*c, k as u32))
            .collect();
        loc.comp = vec![u32::MAX; loc.core.len()];
        let mut stack = Vec::new();
        for start in 0..loc.core.len() {
            if loc.comp[start] != u32::MAX {
                continue;
            }
            loc.comp[start] = start as u32;
            stack.push(start);
            while let Some(k) = stack.pop() {
                let state = store.get(loc.core[k]).expect("core cell exists");
                for (other, link) in &state.links {
                    if link.core_core_until <= w.0 {
                        continue;
                    }
                    if let Some(&j) = index_of.get(other) {
                        if loc.comp[j as usize] == u32::MAX {
                            loc.comp[j as usize] = start as u32;
                            stack.push(j as usize);
                        }
                    } else if s > 1 {
                        // Not one of our core cells: a border edge iff it
                        // is a live core cell of another shard.
                        let owner = router.shard_of(other);
                        if owner != i && stores[owner].get(other).is_some_and(|st| st.is_core_at(w))
                        {
                            loc.border.push((k as u32, other));
                        }
                    }
                }
            }
        }
    });

    // ---- 2. Border merge: global ordering + union-find + deterministic
    // cluster numbering by smallest member cell.
    let mut all: Vec<(&CellCoord, u32, u32)> = Vec::new(); // (coord, shard, local idx)
    for (i, loc) in locals.iter().enumerate() {
        for (k, c) in loc.core.iter().enumerate() {
            all.push((c, i as u32, k as u32));
        }
    }
    all.sort_unstable_by(|a, b| a.0.cmp(b.0));
    if all.is_empty() {
        return Vec::new();
    }
    let gidx: FxHashMap<&CellCoord, u32> = all
        .iter()
        .enumerate()
        .map(|(g, (c, _, _))| (*c, g as u32))
        .collect();
    let mut uf = UnionFind::with_len(all.len());
    for (g, (_, i, k)) in all.iter().enumerate() {
        let loc = &locals[*i as usize];
        let rep = loc.core[loc.comp[*k as usize] as usize];
        uf.union(g, gidx[rep] as usize);
    }
    for loc in &locals {
        for (k, other) in &loc.border {
            uf.union(gidx[loc.core[*k as usize]] as usize, gidx[*other] as usize);
        }
    }
    // First-seen roots in global cell order number the merged clusters —
    // the id of a cluster is set by its lowest member cell.
    let mut gid = vec![usize::MAX; all.len()];
    let mut n_groups = 0usize;
    for g in 0..all.len() {
        let root = uf.find(g);
        if gid[root] == usize::MAX {
            gid[root] = n_groups;
            n_groups += 1;
        }
        gid[g] = gid[root];
    }
    let gid_of: FxHashMap<&CellCoord, usize> = all
        .iter()
        .enumerate()
        .map(|(g, (c, _, _))| (*c, gid[g]))
        .collect();
    // Live core objects and their cluster, across all shards: one lookup
    // per neighbor reference during edge classification instead of a
    // liveness-and-career check against the owning shard's point map.
    let mut core_gid: FxHashMap<PointId, u32> = FxHashMap::default();
    for shard in shards {
        for (&id, p) in &shard.points {
            if p.expires_at > w && p.core_until > w.0 {
                if let Some(&g) = gid_of.get(&p.cell) {
                    core_gid.insert(id, g as u32);
                }
            }
        }
    }

    // ---- 3. Per-shard classification: cells and member objects of each
    // numbered cluster (read-only over all shards).
    struct Partial<'a> {
        cells: Vec<Vec<(&'a CellCoord, CellStatus)>>,
        cores: Vec<Vec<PointId>>,
        edges: Vec<Vec<PointId>>,
    }
    let mut partials: Vec<Partial> = (0..s)
        .map(|_| Partial {
            cells: vec![Vec::new(); n_groups],
            cores: vec![Vec::new(); n_groups],
            edges: vec![Vec::new(); n_groups],
        })
        .collect();
    fork_each(pool, partials.iter_mut(), |i, part| {
        let shard = &shards[i];
        // Cells: own core cells plus their attached edge cells. Status is
        // cluster-relative (Def. 4.2): a cell holding cores of another
        // cluster can still be an edge cell of this one.
        for coord in &locals[i].core {
            let g = gid_of[*coord];
            part.cells[g].push((*coord, CellStatus::Core));
            let state = stores[i].get(coord).unwrap();
            for (other, link) in &state.links {
                if link.attach_until <= w.0 {
                    continue;
                }
                let Some(other_state) = cell_state(stores, router, other) else {
                    continue;
                };
                if other_state.population == 0 || gid_of.get(other) == Some(&g) {
                    continue;
                }
                part.cells[g].push((other, CellStatus::Edge));
            }
        }
        // Members: own live points, object-level.
        for (&id, p) in &shard.points {
            if p.expires_at <= w {
                continue;
            }
            if p.core_until > w.0 {
                // Core object: its cell is a live core cell by Lemma 5.1.
                if let Some(&g) = gid_of.get(&p.cell) {
                    part.cores[g].push(id);
                }
            } else {
                // Edge object iff it has a live core neighbor; may attach
                // to several groups.
                let mut gs: Vec<u32> = p
                    .neighbors
                    .iter()
                    .filter_map(|nb| core_gid.get(nb).copied())
                    .collect();
                gs.sort_unstable();
                gs.dedup();
                for g in gs {
                    part.edges[g as usize].push(id);
                }
            }
        }
    });

    // ---- 4. Assembly: concatenate the partials, normalize ordering, and
    // derive each cluster's SGS.
    let mut out = Vec::with_capacity(n_groups);
    for g in 0..n_groups {
        let mut cells: Vec<(CellCoord, CellStatus)> = partials
            .iter()
            .flat_map(|p| p.cells[g].iter().map(|(c, st)| ((*c).clone(), *st)))
            .collect();
        cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        cells.dedup_by(|a, b| a.0 == b.0);
        let local: FxHashMap<&CellCoord, u32> = cells
            .iter()
            .enumerate()
            .map(|(i, (c, _))| (c, i as u32))
            .collect();
        let skeletal: Vec<SkeletalCell> = cells
            .iter()
            .map(|(coord, status)| {
                let state = cell_state(stores, router, coord).unwrap();
                let connections = if *status == CellStatus::Core {
                    let mut conns: Vec<u32> = state
                        .links
                        .iter()
                        .filter_map(|(other, link)| {
                            let &j = local.get(other)?;
                            // Group-relative status: core-core liveness
                            // applies only to cells of this group; every
                            // other in-summary cell is an edge cell here
                            // and connects through its attachment.
                            let live = if gid_of.get(other) == Some(&g) {
                                link.core_core_until > w.0
                            } else {
                                link.attach_until > w.0
                            };
                            live.then_some(j)
                        })
                        .collect();
                    conns.sort_unstable();
                    conns.dedup();
                    conns
                } else {
                    Vec::new()
                };
                SkeletalCell {
                    coord: coord.clone(),
                    population: state.population,
                    status: *status,
                    connections,
                }
            })
            .collect();
        let mut cores: Vec<PointId> = partials
            .iter()
            .flat_map(|p| p.cores[g].iter().copied())
            .collect();
        let mut edges: Vec<PointId> = partials
            .iter()
            .flat_map(|p| p.edges[g].iter().copied())
            .collect();
        cores.sort_unstable();
        edges.sort_unstable();
        out.push(ExtractedCluster {
            cores,
            edges,
            sgs: Sgs {
                dim,
                side,
                level: 0,
                cells: skeletal,
            },
        });
    }
    out
}
