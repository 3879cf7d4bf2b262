//! The output stage of C-SGS (§5.4 of the paper; `DESIGN.md` §6): a read
//! of the skeletal cells whose work follows what the clusters hold and
//! what changed since the previous window, not what the window holds.
//!
//! 1. **Carry-over**: a cluster of the previous window each of whose
//!    skeleton cells, core or edge, still sits in its slot unstamped
//!    since ([`CellState::touched`]) *is* a cluster of this one, and is
//!    moved to the output as it stands — the same shared value, not a
//!    copy. The previous output holds each cluster with its cells' ids
//!    ([`Held`]), so the check reads slots, never a coordinate. Nothing
//!    below sees a carried cluster's core cells.
//! 2. **Live core cells** of the rest, found from what changed: the
//!    previous core cells of the clusters that are not carried, and the
//!    cells stamped in this window, kept if they are core at `w` and not
//!    carried; sorted, they are the window's *dense index* — a core cell
//!    is a position from here on, and a per-slot vector maps a cell's id
//!    to it. (A from-scratch emit seeds the search with every stored
//!    cell instead.)
//! 3. **Link resolution** (once): every live link of every indexed core
//!    cell is read exactly once and its far end's position read off the
//!    per-slot vector, into a flat per-cell list of [`Resolved`] entries.
//! 4. **Components**: union-find over the resolved core-core edges; the
//!    clusters are numbered **by their smallest core cell** — the
//!    numbering a DFS in cell order produces, whatever order the store
//!    iterates in.
//! 5. **Skeletons**: a cluster's cell list is its core cells merged with
//!    its sorted attached cells; every connection index falls out of that
//!    one sort, and the list is built once, in place, as the summary's
//!    shared [`Cells`].
//! 6. **Members**, cell by cell through the grid index: core objects
//!    from the clusters' core cells, edge candidates from those and from
//!    the attached cells. Lemma 4.1 and the `attach_until` watermark put
//!    every edge object of a cluster in one of its skeletal cells, so no
//!    other point is looked at. A candidate joins the cluster of each
//!    core neighbor whose cell is in the dense index.
//! 7. **Assembly**: the carried clusters are merged back in among the
//!    rebuilt ones by smallest core cell.

use std::sync::Arc;

use sgs_core::{CellCoord, GridGeometry, PointId, WindowId};
use sgs_index::UnionFind;
use sgs_summarize::{CellStatus, Cells, Sgs, SkeletalCell};

use crate::cell_store::{CellId, CellState, CellStore};
use crate::output::ExtractedCluster;
use crate::point_store::{PointState, PointStore};

/// In place of a dense index or a cluster number: none.
const NONE: u32 = u32::MAX;

/// A live core cell of a cluster to rebuild; its position in the sorted
/// list of them is its dense index.
struct CoreCell<'a> {
    id: CellId,
    coord: &'a CellCoord,
    state: &'a CellState,
}

/// One live link of a live core cell, resolved once per window.
struct Resolved {
    other: CellId,
    /// Dense index of `other` if it is a live core cell, else [`NONE`].
    idx: u32,
    /// Both ends are core cells and the core-core watermark is live: an
    /// edge of the component graph.
    core_core: bool,
    /// The attachment watermark is live: `other` holds an object that
    /// neighbors a core object here.
    attach: bool,
    /// Position of `other` in the cell list of this cell's cluster, once
    /// the cluster's skeleton has placed it as an edge cell.
    local: u32,
}

/// A cluster of an output, with the ids of its skeleton cells in
/// `sgs.cells` order: how the next window's carry-over check finds them.
pub(crate) type Held = (Arc<ExtractedCluster>, Vec<CellId>);

/// The smallest core cell of a cluster: what numbers it among the
/// clusters of its window.
fn key_of(cluster: &ExtractedCluster) -> Option<&CellCoord> {
    let cells = cluster.sgs.cells.iter();
    cells
        .filter(|c| c.status == CellStatus::Core)
        .map(|c| &c.coord)
        .next()
}

/// Build window `w`'s output from the live watermarks of `cells`, listing
/// members from `points`. `prev` is the output of window `w − 1` (empty
/// to build every cluster from the cells), and `seeds` the cells that may
/// have become core since it: the cells stamped in `w`, or every stored
/// cell for a from-scratch emit. The second result counts the clusters
/// carried over from `prev`.
///
/// Every core cell of `w` is found. One that was core at `w − 1` sat in
/// exactly one cluster of `prev`: a carried one, whose cells stay out,
/// or one to rebuild, whose core cells are candidates. One that was not
/// has been stamped since: only an arrival (a population from 0) or
/// `raise_core_until` can make a cell core.
pub(crate) fn emit(
    geometry: &GridGeometry,
    points: &PointStore,
    cells: &CellStore,
    w: WindowId,
    prev: Vec<Held>,
    seeds: impl IntoIterator<Item = CellId>,
) -> (Vec<Held>, usize) {
    // ---- 1. Carry-over, decided by the stamps alone. A slot another cell
    // has taken since holds a cell stamped in `w` (its arrival), and one
    // left vacant was stamped when its cell emptied: either way the
    // cluster is rebuilt.
    // By slot: the carried clusters' core cells, then every core cell
    // found.
    let mut taken = vec![false; cells.slot_count()];
    let mut carried: Vec<Held> = Vec::new();
    // The previous core cells of the clusters to rebuild.
    let mut candidates: Vec<CellId> = Vec::new();
    for (cluster, ids) in prev {
        let unchanged = ids
            .iter()
            .all(|&id| cells.stored(id).is_some_and(|cell| cell.touched < w.0));
        let skeleton = cluster.sgs.cells.iter().zip(&ids);
        let cores = skeleton.filter(|(cell, _)| cell.status == CellStatus::Core);
        if unchanged {
            for (_, id) in cores {
                taken[id.index()] = true;
            }
            carried.push((cluster, ids));
        } else {
            candidates.extend(cores.map(|(_, &id)| id));
        }
    }
    let n_carried = carried.len();

    // ---- 2. Live core cells of the clusters to rebuild, in cell order.
    let mut cores: Vec<CoreCell> = Vec::new();
    for id in candidates.into_iter().chain(seeds) {
        let Some(state) = cells.stored(id) else {
            continue;
        };
        if state.is_core_at(w) && !std::mem::replace(&mut taken[id.index()], true) {
            let coord = cells.coord(id);
            cores.push(CoreCell { id, coord, state });
        }
    }
    if cores.is_empty() {
        return (carried, n_carried);
    }
    cores.sort_unstable_by(|a, b| a.coord.cmp(b.coord));
    let n = cores.len();
    // Slot → dense index.
    let mut dense = vec![NONE; cells.slot_count()];
    for (d, cell) in cores.iter().enumerate() {
        dense[cell.id.index()] = d as u32;
    }

    // ---- 3. Link resolution: `links[starts[d]..starts[d + 1]]` are the
    // live links of core cell `d`. A far end that is a carried cluster's
    // core cell is not in the dense index, and resolves as a cell that is
    // not a live core cell here: an edge cell, if attached. A link that
    // is not live may name a slot another cell has since taken; it is
    // skipped before its far end is read.
    let mut links: Vec<Resolved> = Vec::new();
    let mut starts: Vec<usize> = Vec::with_capacity(n + 1);
    starts.push(0);
    for cell in &cores {
        for (&other, link) in &cell.state.links {
            let (core_core, attach) = (link.core_core_until > w.0, link.attach_until > w.0);
            if !(core_core || attach) {
                continue;
            }
            let idx = dense[other.index()];
            links.push(Resolved {
                other,
                idx,
                core_core: core_core && idx != NONE,
                attach,
                local: NONE,
            });
        }
        starts.push(links.len());
    }
    let links_of = |d: u32| starts[d as usize]..starts[d as usize + 1];

    // ---- 4. Components, numbered by first-seen root in cell order — the
    // number of a cluster is set by its smallest core cell.
    let mut uf = UnionFind::with_len(n);
    for d in 0..n {
        for link in &links[links_of(d as u32)] {
            if link.core_core {
                uf.union(d, link.idx as usize);
            }
        }
    }
    let mut gid = vec![NONE; n];
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for d in 0..n {
        let root = uf.find(d);
        if gid[root] == NONE {
            gid[root] = groups.len() as u32;
            groups.push(Vec::new());
        }
        gid[d] = gid[root];
        groups[gid[d] as usize].push(d as u32);
    }

    // ---- 5. Skeletons of the clusters to rebuild, and their cells' ids.
    let mut skeletons: Vec<Cells> = Vec::with_capacity(groups.len());
    let mut skeleton_ids: Vec<Vec<CellId>> = vec![Vec::new(); groups.len()];
    // Dense index → position in its cluster's cell list.
    let mut local_of = vec![NONE; n];
    // The cells, beside the rebuilt clusters' own core cells, whose
    // objects the member pass has to list.
    let mut edge_cells: Vec<CellId> = Vec::new();
    // One cluster's cell list before it is built: each cell's coordinate
    // and state, and its dense index if it is a core cell of the cluster,
    // else `NONE`.
    let mut slots: Vec<(&CellCoord, &CellState, u32)> = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        // Attached cells: what a core cell of the cluster reaches through
        // a live attachment, unless it is a core cell of the same cluster.
        // Status is cluster-relative (Def. 4.2): a cell holding cores of
        // another cluster is an edge cell of this one.
        let mut attached: Vec<(&CellCoord, usize)> = Vec::new();
        for &d in group {
            for at in links_of(d) {
                let link = &links[at];
                if link.attach && (link.idx == NONE || gid[link.idx as usize] != g as u32) {
                    attached.push((cells.coord(link.other), at));
                }
            }
        }
        attached.sort_unstable_by(|a, b| a.0.cmp(b.0));

        // The cell list: core cells and attached cells merged in cell
        // order, each reference to an attached cell learning its position.
        slots.clear();
        let list_ids = &mut skeleton_ids[g];
        let mut place_core = |d: u32, slots: &mut Vec<_>, list_ids: &mut Vec<CellId>| {
            local_of[d as usize] = slots.len() as u32;
            let core = &cores[d as usize];
            slots.push((core.coord, core.state, d));
            list_ids.push(core.id);
        };
        let mut group_cells = group.iter().peekable();
        for run in attached.chunk_by(|a, b| a.0 == b.0) {
            let (coord, first) = run[0];
            while let Some(&d) = group_cells.next_if(|&&d| cores[d as usize].coord < coord) {
                place_core(d, &mut slots, list_ids);
            }
            for &(_, at) in run {
                links[at].local = slots.len() as u32;
            }
            // An attachment is live while the object it reaches is alive,
            // so the cell is stored and populated.
            let Resolved { other, idx, .. } = links[first];
            let state = if idx != NONE {
                cores[idx as usize].state
            } else {
                cells.get(other)
            };
            debug_assert!(state.population > 0);
            slots.push((coord, state, NONE));
            list_ids.push(other);
            // Its objects are edge candidates. A core cell of another
            // rebuilt cluster is listed on that cluster's account; any
            // other cell — a carried cluster's core cell among them — is
            // listed by no one unless it is listed here.
            if idx == NONE {
                edge_cells.push(other);
            }
        }
        for &d in group_cells {
            place_core(d, &mut slots, list_ids);
        }

        // The cells, built in place in the shared list. Connections of
        // each core cell: to a core cell of the cluster through a live
        // core-core link, to any other cell of the list through a live
        // attachment.
        // A core cell's list is sized by its live links, nearly all of
        // which it keeps: an archive holds the list as built here.
        let skeleton = slots.iter().map(|&(coord, state, d)| {
            let (status, connections) = if d == NONE {
                (CellStatus::Edge, Vec::new())
            } else {
                let links = &links[links_of(d)];
                let mut connections = Vec::with_capacity(links.len());
                for link in links {
                    if link.idx != NONE && gid[link.idx as usize] == g as u32 {
                        if link.core_core {
                            connections.push(local_of[link.idx as usize]);
                        }
                    } else if link.attach {
                        connections.push(link.local);
                    }
                }
                connections.sort_unstable();
                (CellStatus::Core, connections)
            };
            SkeletalCell {
                coord: coord.clone(),
                population: state.population,
                status,
                connections,
            }
        });
        skeletons.push(skeleton.collect());
    }

    // ---- 6. Members of the clusters to rebuild, cell by cell. Every
    // indexed point is live at `w`: the others were dropped when their
    // window became current. The cells listed: the core cells with their
    // cluster's number, then `edge_cells` with none.
    edge_cells.sort_unstable();
    edge_cells.dedup();
    let visit = cores
        .iter()
        .zip(&gid)
        .map(|(cell, &g)| (cell.coord, g))
        .chain(edge_cells.into_iter().map(|id| (cells.coord(id), NONE)));
    // Core objects, each with its cluster.
    let mut core_members: Vec<(u32, PointId)> = Vec::new();
    // Non-core objects: edge objects of the clusters that hold a core
    // neighbor of theirs.
    let mut candidates: Vec<(PointId, &PointState)> = Vec::new();
    for (coord, g) in visit {
        for &id in points.index.cell_points(coord).ids() {
            let p = points.states.state(id);
            if p.core_until <= w.0 {
                candidates.push((id, p));
            } else if g != NONE {
                // Core objects of a carried cluster's cell stay its.
                core_members.push((g, id));
            }
        }
    }
    // The cluster of a live core object, if it is a rebuilt one: the
    // cluster of its cell, if that is in the dense index.
    let core_gid = |nb: &PointId| {
        let q = points.states.state(*nb);
        let d = dense[q.cell.index()];
        (q.core_until > w.0 && d != NONE).then(|| gid[d as usize])
    };
    let mut members: Vec<(Vec<PointId>, Vec<PointId>)> = vec![Default::default(); groups.len()];
    for &(g, id) in &core_members {
        members[g as usize].0.push(id);
    }
    let mut gs: Vec<u32> = Vec::new();
    for (id, p) in &candidates {
        gs.clear();
        gs.extend(p.neighbors.iter().filter_map(core_gid));
        gs.sort_unstable();
        gs.dedup();
        for &g in &gs {
            members[g as usize].1.push(*id);
        }
    }

    // ---- 7. Assembly: the rebuilt clusters in component order, the
    // carried ones merged back in by smallest core cell.
    let rebuilt = skeletons.into_iter().zip(skeleton_ids).zip(members).map(
        |((cells, ids), (mut cores, mut edges))| {
            cores.sort_unstable();
            edges.sort_unstable();
            let cluster = ExtractedCluster {
                cores,
                edges,
                sgs: Sgs {
                    dim: geometry.dim(),
                    side: geometry.side(),
                    level: 0,
                    cells,
                },
            };
            (Arc::new(cluster), ids)
        },
    );
    let mut out = Vec::with_capacity(n_carried + groups.len());
    let mut carried = carried.into_iter().peekable();
    for held in rebuilt {
        while let Some(c) = carried.next_if(|c| key_of(&c.0) < key_of(&held.0)) {
            out.push(c);
        }
        out.push(held);
    }
    out.extend(carried);
    (out, n_carried)
}
