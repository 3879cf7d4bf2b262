//! The output stage of C-SGS (§5.4 of the paper; `DESIGN.md` §6): a read
//! of the skeletal cells whose work follows what the clusters hold and
//! what changed since the previous window, not what the window holds.
//!
//! 1. **Carry-over**: a cluster of the previous window each of whose
//!    skeleton cells, core or edge, still sits in its slot unstamped
//!    since ([`CellState::touched`](crate::cell_store::CellState::touched))
//!    *is* a cluster of this one, and is moved to the output as it
//!    stands — the same shared value, not a copy. The previous output
//!    holds each cluster with its cells' ids ([`Held`]), so the check
//!    reads slots, never a coordinate. Nothing below sees a carried
//!    cluster's core cells.
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
//!    one sort, and the builder puts each cell's run in ascending order.
//!    The cells and their connections are written into buffers
//!    kept across windows ([`Scratch`]) and copied once into the
//!    summary's shared [`Cells`](sgs_summarize::Cells): two blocks
//!    whatever the cluster's size.
//! 6. **Members**, cell by cell through the grid index: core objects
//!    from the clusters' core cells, edge candidates from those and from
//!    the attached cells. Lemma 4.1 and the `attach_until` watermark put
//!    every edge object of a cluster in one of its skeletal cells, so no
//!    other point is looked at. A candidate joins the cluster of each
//!    core neighbor whose cell is in the dense index.
//! 7. **Assembly**: each rebuilt cluster's members are copied out at
//!    their exact length, and the carried clusters are merged back in
//!    among the rebuilt ones by smallest core cell.

use std::sync::Arc;

use sgs_core::{GridGeometry, PointId, WindowId};
use sgs_index::UnionFind;
use sgs_summarize::{CellStatus, CellsBuilder, Sgs};

use crate::cell_store::{CellId, CellStore};
use crate::output::ExtractedCluster;
use crate::point_store::PointStore;

/// In place of a dense index or a cluster number: none.
const NONE: u32 = u32::MAX;

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

/// The output stage's buffers, kept by the extractor across windows so
/// that a window allocates per cluster it emits, not per cell or per
/// buffer. [`emit`] empties each before use; only their room carries
/// over. They hold cell and point ids, never a reference into a store.
#[derive(Default)]
pub(crate) struct Scratch {
    /// By slot: the carried clusters' core cells, then every core cell
    /// found.
    taken: Vec<bool>,
    /// By slot: the dense index of a live core cell, else [`NONE`].
    dense: Vec<u32>,
    /// The live core cells of the clusters to rebuild, in cell order
    /// once found: dense index → cell.
    cores: Vec<CellId>,
    /// `links[starts[d]..starts[d + 1]]` are the live links of core cell
    /// `d`.
    links: Vec<Resolved>,
    starts: Vec<usize>,
    components: UnionFind,
    /// Dense index → cluster number.
    gid: Vec<u32>,
    /// The dense indexes, cluster by cluster.
    grouped: Vec<u32>,
    /// Dense index → position in its cluster's cell list.
    local_of: Vec<u32>,
    /// The cells, beside the rebuilt clusters' own core cells, whose
    /// objects the member pass has to list.
    edge_cells: Vec<CellId>,
    /// One cluster's attached cells, each with the link that reaches it.
    attached: Vec<(CellId, usize)>,
    /// One cluster's cell list before it is built: each cell, and its
    /// dense index if it is a core cell of the cluster, else [`NONE`].
    slots: Vec<(CellId, u32)>,
    /// One cluster's cells, connections included, before they are
    /// copied into its summary.
    list: CellsBuilder,
    /// The rebuilt clusters' summaries and their cells' ids.
    skeletons: Vec<(Sgs, Vec<CellId>)>,
    /// The clusters carried over, in the previous window's order.
    carried: Vec<Held>,
    /// Objects with their cluster's number: core objects, and edge
    /// objects with each cluster that holds a core neighbor of theirs.
    core_members: Vec<(u32, PointId)>,
    edge_members: Vec<(u32, PointId)>,
    /// The non-core objects of the cells listed.
    candidates: Vec<PointId>,
    /// One candidate's clusters.
    gs: Vec<u32>,
}

/// The smallest core cell of a cluster: what numbers it among the
/// clusters of its window.
fn key_of(cluster: &ExtractedCluster) -> Option<&[i32]> {
    let cells = cluster.sgs.cells.iter();
    cells
        .filter(|c| c.status == CellStatus::Core)
        .map(|c| c.coord)
        .next()
}

/// The objects of cluster `g`, listed at `*at` in `members` (sorted by
/// cluster, then object), at exact length; advances `*at` past them.
fn members_of(members: &[(u32, PointId)], at: &mut usize, g: u32) -> Vec<PointId> {
    let run = &members[*at..];
    let run = &run[..run.partition_point(|&(h, _)| h == g)];
    *at += run.len();
    run.iter().map(|&(_, id)| id).collect()
}

/// Build window `w`'s output from the live watermarks of `cells`, listing
/// members from `points`. `prev` is the output of window `w − 1` (empty
/// to build every cluster from the cells), and `seeds` the cells that may
/// have become core since it: the cells stamped in `w`, or every stored
/// cell for a from-scratch emit. The second result counts the clusters
/// carried over from `prev`. `scratch` lends its buffers.
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
    mut prev: Vec<Held>,
    seeds: impl IntoIterator<Item = CellId>,
    scratch: &mut Scratch,
) -> (Vec<Held>, usize) {
    let Scratch {
        taken,
        dense,
        cores,
        links,
        starts,
        components,
        gid,
        grouped,
        local_of,
        edge_cells,
        attached,
        slots,
        list,
        skeletons,
        carried,
        core_members,
        edge_members,
        candidates,
        gs,
    } = scratch;

    // ---- 1. Carry-over, decided by the stamps alone. A slot another cell
    // has taken since holds a cell stamped in `w` (its arrival), and one
    // left vacant was stamped when its cell emptied: either way the
    // cluster is rebuilt. The previous core cells of the clusters to
    // rebuild are the first candidates for step 2.
    taken.clear();
    taken.resize(cells.slot_count(), false);
    cores.clear();
    for (cluster, ids) in prev.drain(..) {
        let unchanged = ids
            .iter()
            .all(|&id| cells.stored(id).is_some_and(|cell| cell.touched < w.0));
        let skeleton = cluster.sgs.cells.iter().zip(&ids);
        let core_ids = skeleton
            .filter(|(cell, _)| cell.status == CellStatus::Core)
            .map(|(_, &id)| id);
        if unchanged {
            for id in core_ids {
                taken[id.index()] = true;
            }
            carried.push((cluster, ids));
        } else {
            cores.extend(core_ids);
        }
    }
    let n_carried = carried.len();
    // From here on `prev` is the output, empty and with its room.
    let mut out = prev;

    // ---- 2. Live core cells of the clusters to rebuild, in cell order:
    // the candidates that are, then the seeds that are.
    let mut live_core = |id: CellId| {
        cells.stored(id).is_some_and(|state| state.is_core_at(w))
            && !std::mem::replace(&mut taken[id.index()], true)
    };
    cores.retain(|&id| live_core(id));
    cores.extend(seeds.into_iter().filter(|&id| live_core(id)));
    if cores.is_empty() {
        out.append(carried);
        return (out, n_carried);
    }
    cores.sort_unstable_by(|&a, &b| cells.coord(a).cmp(cells.coord(b)));
    let n = cores.len();
    dense.clear();
    dense.resize(cells.slot_count(), NONE);
    for (d, id) in cores.iter().enumerate() {
        dense[id.index()] = d as u32;
    }

    // ---- 3. Link resolution. A far end that is a carried cluster's core
    // cell is not in the dense index, and resolves as a cell that is not a
    // live core cell here: an edge cell, if attached. A link that is not
    // live may name a slot another cell has since taken; it is skipped
    // before its far end is read.
    links.clear();
    starts.clear();
    starts.push(0);
    for &id in cores.iter() {
        for (&other, link) in &cells.get(id).links {
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
    // number of a cluster is set by its smallest core cell — and the core
    // cells listed cluster by cluster, each cluster's in cell order.
    components.reset(n);
    for d in 0..n {
        for link in &links[links_of(d as u32)] {
            if link.core_core {
                components.union(d, link.idx as usize);
            }
        }
    }
    gid.clear();
    gid.resize(n, NONE);
    let mut n_groups = 0;
    for d in 0..n {
        let root = components.find(d);
        if gid[root] == NONE {
            gid[root] = n_groups;
            n_groups += 1;
        }
        gid[d] = gid[root];
    }
    grouped.clear();
    grouped.extend(0..n as u32);
    grouped.sort_unstable_by_key(|&d| (gid[d as usize], d));

    // ---- 5. Skeletons of the clusters to rebuild, and their cells' ids.
    local_of.clear();
    local_of.resize(n, NONE);
    edge_cells.clear();
    let groups = grouped.chunk_by(|&a, &b| gid[a as usize] == gid[b as usize]);
    for (g, group) in groups.enumerate() {
        let g = g as u32;
        // Attached cells: what a core cell of the cluster reaches through
        // a live attachment, unless it is a core cell of the same cluster.
        // Status is cluster-relative (Def. 4.2): a cell holding cores of
        // another cluster is an edge cell of this one.
        attached.clear();
        for &d in group {
            for at in links_of(d) {
                let link = &links[at];
                if link.attach && (link.idx == NONE || gid[link.idx as usize] != g) {
                    attached.push((link.other, at));
                }
            }
        }
        attached.sort_unstable_by(|a, b| cells.coord(a.0).cmp(cells.coord(b.0)));

        // The cell list: core cells and attached cells merged in cell
        // order, each reference to an attached cell learning its position.
        slots.clear();
        let mut group_cells = group.iter().peekable();
        for run in attached.chunk_by(|a, b| a.0 == b.0) {
            let (other, first) = run[0];
            let coord = cells.coord(other);
            while let Some(&d) = group_cells.next_if(|&&d| cells.coord(cores[d as usize]) < coord) {
                local_of[d as usize] = slots.len() as u32;
                slots.push((cores[d as usize], d));
            }
            for &(_, at) in run {
                links[at].local = slots.len() as u32;
            }
            // An attachment is live while the object it reaches is alive,
            // so the cell is stored and populated.
            debug_assert!(cells.get(other).population > 0);
            slots.push((other, NONE));
            // Its objects are edge candidates. A core cell of another
            // rebuilt cluster is listed on that cluster's account; any
            // other cell — a carried cluster's core cell among them — is
            // listed by no one unless it is listed here.
            if links[first].idx == NONE {
                edge_cells.push(other);
            }
        }
        for &d in group_cells {
            local_of[d as usize] = slots.len() as u32;
            slots.push((cores[d as usize], d));
        }

        // The cells, connections of each core cell included: to a core
        // cell of the cluster through a live core-core link, to any other
        // cell of the list through a live attachment. They are built in
        // the kept buffers and copied into the summary once.
        for &(id, d) in slots.iter() {
            let (coord, population) = (&cells.coord(id).0, cells.get(id).population);
            if d == NONE {
                list.push(coord, population, CellStatus::Edge, []);
                continue;
            }
            let connections = links[links_of(d)].iter().filter_map(|link| {
                if link.idx != NONE && gid[link.idx as usize] == g {
                    link.core_core.then(|| local_of[link.idx as usize])
                } else {
                    link.attach.then_some(link.local)
                }
            });
            list.push(coord, population, CellStatus::Core, connections);
        }
        let sgs = Sgs {
            dim: geometry.dim(),
            side: geometry.side(),
            level: 0,
            cells: list.build(),
        };
        skeletons.push((sgs, slots.iter().map(|&(id, _)| id).collect()));
    }

    // ---- 6. Members of the clusters to rebuild, cell by cell. Every
    // indexed point is live at `w`: the others were dropped when their
    // window became current. The cells listed: the core cells with their
    // cluster's number, then `edge_cells` with none.
    edge_cells.sort_unstable();
    edge_cells.dedup();
    let visit = cores.iter().zip(gid.iter());
    let visit = visit.chain(edge_cells.iter().zip(std::iter::repeat(&NONE)));
    core_members.clear();
    candidates.clear();
    for (&cell, &g) in visit {
        for &id in points.index.cell_points(cells.coord(cell)).ids() {
            if points.states.state(id).core_until <= w.0 {
                candidates.push(id);
            } else if g != NONE {
                // Core objects of a carried cluster's cell stay its.
                core_members.push((g, id));
            }
        }
    }
    core_members.sort_unstable();
    // The cluster of a live core object, if it is a rebuilt one: the
    // cluster of its cell, if that is in the dense index.
    let core_gid = |nb: &PointId| {
        let q = points.states.state(*nb);
        let d = dense[q.cell.index()];
        (q.core_until > w.0 && d != NONE).then(|| gid[d as usize])
    };
    edge_members.clear();
    for &id in candidates.iter() {
        gs.clear();
        gs.extend(
            points
                .states
                .state(id)
                .neighbors
                .iter()
                .filter_map(core_gid),
        );
        gs.sort_unstable();
        gs.dedup();
        edge_members.extend(gs.iter().map(|&g| (g, id)));
    }
    edge_members.sort_unstable();

    // ---- 7. Assembly: the rebuilt clusters in component order, each
    // member list at its exact length, the carried ones merged back in by
    // smallest core cell.
    out.reserve(n_carried + skeletons.len());
    let (mut at_core, mut at_edge) = (0, 0);
    let mut carried = carried.drain(..).peekable();
    for (g, (sgs, ids)) in skeletons.drain(..).enumerate() {
        let g = g as u32;
        let cluster = ExtractedCluster {
            cores: members_of(core_members, &mut at_core, g),
            edges: members_of(edge_members, &mut at_edge, g),
            sgs,
        };
        let held = (Arc::new(cluster), ids);
        while let Some(c) = carried.next_if(|c| key_of(&c.0) < key_of(&held.0)) {
            out.push(c);
        }
        out.push(held);
    }
    out.extend(carried);
    (out, n_carried)
}
