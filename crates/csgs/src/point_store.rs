//! The point side of C-SGS's extraction state: the live objects.
//!
//! A [`PointStore`] holds the grid index the range query searches (the
//! one copy of each live point's coordinates, in its cell's slab), each
//! live point's state, and the expiry lists; the [`CellStore`] beside it
//! in the extractor holds the skeletal cells. The methods here are the
//! *steps* of §5.4 insertion and of expiry; the extractor sequences them.
//!
//! Point states sit in a [`PointTable`], in arrival order: a point is
//! found by its id's offset from the oldest slot, and a point that has
//! expired leaves a vacant slot until every older one has gone too.

use std::collections::VecDeque;

use sgs_core::{GridGeometry, HeapSize, Point, PointId, WindowId};
use sgs_index::{FxHashMap, GridIndex};

use crate::cell_store::{CellId, CellStore};

/// Per-point state retained by C-SGS.
#[derive(Clone, Debug)]
pub(crate) struct PointState {
    pub cell: CellId,
    pub expires_at: WindowId,
    /// End of the core career (absolute window index); only ever raised.
    pub core_until: u64,
    /// Current neighbor ids, in non-decreasing order of expiry: the one
    /// record of who the point's neighbors are and when they die (each
    /// expiry is read from the neighbor's own state). Between slides every
    /// listed id is live: at a slide the ids dying with it form the list's
    /// prefix, which is dropped *eagerly* — the expiring point's own list
    /// names exactly the live points that list it, since neighborship is
    /// symmetric — so the list is bounded by the live population at all
    /// times.
    pub neighbors: Vec<PointId>,
}

/// A neighbor a range query found, with its expiry (so the finder's list
/// can be put in expiry order).
pub(crate) type Found = (PointId, WindowId);

/// The live points' states, by id. Ids are handed out consecutively
/// (wrapping past `u32::MAX`), so slot `i` holds point `base + i`: the
/// oldest slot is the front, and an arrival is pushed at the back. A slot
/// is vacant once its point has expired; vacant slots at the front are
/// dropped. Any id outside the table, or in a vacant slot, is dead.
#[derive(Debug, Default)]
pub(crate) struct PointTable {
    /// The id of the front slot.
    base: u32,
    slots: VecDeque<Option<PointState>>,
    /// Occupied slots.
    live: usize,
}

impl PointTable {
    /// Number of live points.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The slot of `id`, if it is inside the table.
    #[inline]
    fn offset(&self, id: PointId) -> Option<usize> {
        let at = id.0.wrapping_sub(self.base) as usize;
        (at < self.slots.len()).then_some(at)
    }

    /// The state of `id`, if it is live.
    #[inline]
    pub(crate) fn get(&self, id: PointId) -> Option<&PointState> {
        self.slots.get(self.offset(id)?)?.as_ref()
    }

    /// The state of live point `id`.
    #[inline]
    pub(crate) fn state(&self, id: PointId) -> &PointState {
        self.get(id).expect("the point is live")
    }

    /// The state of live point `id`, to write.
    #[inline]
    fn state_mut(&mut self, id: PointId) -> &mut PointState {
        let at = self.offset(id);
        let slot = at.and_then(|at| self.slots[at].as_mut());
        slot.expect("the point is live")
    }

    /// Enter arriving point `id`: the id after the newest slot's, or any
    /// id when the table is empty.
    fn push(&mut self, id: PointId, state: PointState) {
        if self.slots.is_empty() {
            self.base = id.0;
        }
        assert_eq!(
            id.0.wrapping_sub(self.base) as usize,
            self.slots.len(),
            "point ids arrive consecutively"
        );
        self.slots.push_back(Some(state));
        self.live += 1;
    }

    /// Vacate the slot of live point `id`, returning its state.
    fn take(&mut self, id: PointId) -> PointState {
        let at = self.offset(id);
        let state = at.and_then(|at| self.slots[at].take());
        let state = state.expect("the point is live");
        self.live -= 1;
        state
    }

    /// Drop the vacant slots at the front.
    fn trim(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base = self.base.wrapping_add(1);
        }
    }

    /// The live points, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PointId, &PointState)> {
        let base = self.base;
        let slots = self.slots.iter().enumerate();
        slots.filter_map(move |(i, slot)| {
            let id = PointId(base.wrapping_add(i as u32));
            Some((id, slot.as_ref()?))
        })
    }
}

/// The live points of one query's window.
#[derive(Debug)]
pub(crate) struct PointStore {
    pub index: GridIndex,
    pub states: PointTable,
    /// Points to drop when each window becomes current.
    pub expiry: FxHashMap<u64, Vec<PointId>>,
    /// Where [`install`](Self::install) puts an arrival's neighbors in
    /// expiry order, kept across arrivals.
    by_expiry: Vec<(WindowId, PointId)>,
}

impl PointStore {
    pub(crate) fn new(geometry: GridGeometry) -> Self {
        PointStore {
            index: GridIndex::new(geometry),
            states: PointTable::default(),
            expiry: FxHashMap::default(),
            by_expiry: Vec::new(),
        }
    }

    /// Retained meta-data bytes (the cell store is accounted separately
    /// by the extractor).
    pub(crate) fn meta_bytes(&self) -> usize {
        use core::mem::size_of;
        let states = &self.states;
        let lists: usize = states.iter().map(|(_, p)| p.neighbors.capacity() * 4).sum();
        let expiry: usize = self.expiry.values().map(|ids| ids.capacity() * 4).sum();
        lists
            + states.slots.capacity() * size_of::<Option<PointState>>()
            + expiry
            + self.expiry.capacity() * (size_of::<(u64, Vec<PointId>)>() + 1)
            + HeapSize::heap_size(&self.index)
    }

    /// §5.4 step 1 (load): enter the point into the grid bucket, cell
    /// population and expiry list, with placeholder career state that
    /// [`install`](Self::install) fills in after discovery. Returns the
    /// point's cell.
    pub(crate) fn load(
        &mut self,
        cells: &mut CellStore,
        id: PointId,
        point: &Point,
        expires_at: WindowId,
    ) -> CellId {
        let cell = cells.arrive(&self.index.insert_expiring(id, point, expires_at));
        self.expiry.entry(expires_at.0).or_default().push(id);
        self.states.push(
            id,
            PointState {
                cell,
                expires_at,
                core_until: 0,
                neighbors: Vec::new(),
            },
        );
        cell
    }

    /// §5.4 step 3: install a loaded point's discovery results — neighbor
    /// list (put in expiry order) and the core career read off it — and
    /// promote its cell's status if the career is live. The list is the
    /// one allocation: it is sorted in a buffer the store keeps, and
    /// copied out at its exact length.
    pub(crate) fn install(
        &mut self,
        cells: &mut CellStore,
        id: PointId,
        neighbors: &[Found],
        now: WindowId,
        theta_c: u32,
    ) {
        let by_expiry = &mut self.by_expiry;
        by_expiry.clear();
        by_expiry.extend(neighbors.iter().map(|&(q, expires)| (expires, q)));
        by_expiry.sort_unstable_by_key(|&(expires, _)| expires);
        let st = self.states.state_mut(id);
        let kth = by_expiry.len().checked_sub(theta_c as usize);
        let kth = kth.map(|i| by_expiry[i].0);
        st.core_until = career(st.expires_at, kth, now);
        st.neighbors = by_expiry.iter().map(|&(_, q)| q).collect();
        if st.core_until > now.0 {
            cells.raise_core_until(st.cell, st.core_until);
        }
    }

    /// §5.4 step 4: live point `q` gains new neighbor `p`. Returns whether
    /// `q`'s core career extended — its cell's status is prolonged here;
    /// the caller re-evaluates its pair links.
    pub(crate) fn gain_neighbor(
        &mut self,
        cells: &mut CellStore,
        q: PointId,
        p: PointId,
        p_expires: WindowId,
        now: WindowId,
        theta_c: u32,
    ) -> bool {
        let st = self.states.state_mut(q);
        let (own, mut nbrs) = (st.expires_at, std::mem::take(&mut st.neighbors));
        let expiry = |r: &PointId| self.states.state(*r).expires_at;
        // After every listed neighbor that expires no later: at the end,
        // unless `p` expires before the last one (the engine hands out
        // expiries in arrival order, so only hand-driven streams do that).
        let at = if nbrs.last().is_some_and(|last| expiry(last) > p_expires) {
            nbrs.partition_point(|r| expiry(r) <= p_expires)
        } else {
            nbrs.len()
        };
        nbrs.insert(at, p);
        let kth = nbrs.len().checked_sub(theta_c as usize);
        let new_cu = career(own, kth.map(|i| expiry(&nbrs[i])), now);
        let st = self.states.state_mut(q);
        st.neighbors = nbrs;
        // `new_cu == now` says "not core even now": no career to extend,
        // however stale the recorded end is.
        let extended = new_cu > st.core_until.max(now.0);
        if extended {
            st.core_until = new_cu;
            cells.raise_core_until(st.cell, new_cu);
        }
        extended
    }

    /// Slide: drop the points expiring at `now`. Returns the live points
    /// that listed them (the input to eager neighbor pruning; a point with
    /// several dead neighbors appears once per each). Every dead point's
    /// slot is vacated first, so a neighbor is dead exactly when its slot
    /// is vacant: a dead point's neighbors dying with it are its list's
    /// prefix of vacant slots, and are skipped.
    pub(crate) fn remove_expired(&mut self, cells: &mut CellStore, now: WindowId) -> Vec<PointId> {
        let Some(dead) = self.expiry.remove(&now.0) else {
            return Vec::new();
        };
        let dead: Vec<(PointId, PointState)> = dead
            .into_iter()
            .map(|id| (id, self.states.take(id)))
            .collect();
        let mut listed_by = Vec::new();
        for (id, p) in &dead {
            let indexed = self.index.remove(*id, cells.coord(p.cell));
            assert!(indexed, "an expiring point is indexed in its cell");
            cells.decrement_population(p.cell);
            let co_dying = self.dead_prefix(&p.neighbors);
            debug_assert!(
                p.neighbors[co_dying..]
                    .iter()
                    .all(|&r| self.states.get(r).is_some()),
                "only the prefix dies at {now}"
            );
            listed_by.extend_from_slice(&p.neighbors[co_dying..]);
        }
        self.states.trim();
        listed_by
    }

    /// Eagerly drop the dead ids from the neighbor lists of the points in
    /// `listed_by` ([`remove_expired`]'s result): in each list they are
    /// the prefix. Every listed point outlives the slide — it was past the
    /// dead point's co-dying prefix — and a point visited again has
    /// nothing left to drop.
    ///
    /// [`remove_expired`]: Self::remove_expired
    pub(crate) fn prune_dead(&mut self, listed_by: &[PointId]) {
        for &nb in listed_by {
            let prefix = self.dead_prefix(&self.states.state(nb).neighbors);
            self.states.state_mut(nb).neighbors.drain(..prefix);
        }
    }

    /// Length of the prefix of an expiry-ordered neighbor list that is
    /// dead: whose slots are vacant.
    fn dead_prefix(&self, neighbors: &[PointId]) -> usize {
        let states = &self.states;
        neighbors
            .iter()
            .take_while(|&&r| states.get(r).is_none())
            .count()
    }
}

/// Obs. 5.4 read off an expiry-ordered neighbor list: a point is core
/// while θc of its neighbors live, so its career ends at the θc-th latest
/// expiry `kth` (index `len − θc`), capped by its own — or at `now`, not
/// core even now, when fewer than θc are listed.
fn career(own: WindowId, kth: Option<WindowId>, now: WindowId) -> u64 {
    kth.map_or(now.0, |kth| kth.0.min(own.0).max(now.0))
}

/// Lemma 5.2, the one place it is written: for each neighbor pair
/// `(a, b)`, `b ∈ nbrs`, in distinct cells (intra-cell pairs are connected
/// by Lemma 4.1 and carry no link), hand `raise(at, other, core_core,
/// attach)` the watermarks of both sides of the cell-pair link —
///
/// * core-core: live while both are core → `min(core, core)`, both sides;
/// * attachment `at → other`: live while the point in `at` is core and
///   the point in `other` alive.
///
/// `raise` applies one side to the cell store; raises are monotone
/// max-updates, so re-evaluating a pair is harmless — and a *run* of
/// consecutive neighbors in one cell (a range query reports its matches
/// cell by cell) folds into one raise per side carrying the run's maxima.
/// Non-adjacent runs of the same cell are raised separately.
pub(crate) fn raise_pairs<'a>(
    a: &PointState,
    nbrs: impl Iterator<Item = &'a PointState>,
    raise: &mut impl FnMut(CellId, CellId, u64, u64),
) {
    // One pair's [core-core, attach a → b, attach b → a].
    let marks = |b: &PointState| {
        let (a_cu, b_cu) = (a.core_until, b.core_until);
        [
            a_cu.min(b_cu),
            a_cu.min(b.expires_at.0),
            b_cu.min(a.expires_at.0),
        ]
    };
    let mut nbrs = nbrs.peekable();
    while let Some(b) = nbrs.next() {
        let mut run = marks(b);
        while let Some(next) = nbrs.next_if(|next| next.cell == b.cell) {
            for (mark, pair) in run.iter_mut().zip(marks(next)) {
                *mark = (*mark).max(pair);
            }
        }
        if b.cell != a.cell {
            let [cc, a_attach, b_attach] = run;
            raise(a.cell, b.cell, cc, a_attach);
            raise(b.cell, a.cell, cc, b_attach);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::CellCoord;

    /// A store holding the six cells `[0, 3) × [0, 2)`, and their ids in
    /// row-major order.
    fn six_cells() -> (CellStore, Vec<CellId>) {
        let mut store = CellStore::new();
        let ids = (0..2)
            .flat_map(|y| (0..3).map(move |x| CellCoord::new(vec![x, y])))
            .map(|coord| store.arrive(&coord))
            .collect();
        (store, ids)
    }

    fn state(cell: CellId, core_until: u64, expires_at: u64) -> PointState {
        PointState {
            cell,
            expires_at: WindowId(expires_at),
            core_until,
            neighbors: Vec::new(),
        }
    }

    /// Folding a run of same-cell neighbors into one raise per side
    /// leaves the store exactly as raising pair by pair does — for runs,
    /// for a cell that comes back after another (x, y, x: three runs), and
    /// for neighbors in `a`'s own cell — in fewer calls whenever a run
    /// exists.
    #[test]
    fn raise_pairs_folds_runs_to_the_pair_by_pair_result() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (_, cells) = six_cells();
        let point = |rng: &mut rand::rngs::StdRng| {
            state(
                cells[rng.gen_range(0..cells.len())],
                rng.gen_range(0..10),
                rng.gen_range(0..10),
            )
        };
        let (mut with_run, mut interleaved) = (0, 0);
        for _ in 0..200 {
            let a = point(&mut rng);
            let len = rng.gen_range(0..12);
            let nbrs: Vec<PointState> = (0..len).map(|_| point(&mut rng)).collect();

            let (mut reference, _) = six_cells();
            let mut pairs = 0;
            for b in nbrs.iter().filter(|b| b.cell != a.cell) {
                let cc = a.core_until.min(b.core_until);
                let a_attach = a.core_until.min(b.expires_at.0);
                let b_attach = b.core_until.min(a.expires_at.0);
                reference.raise_link(a.cell, b.cell, cc, a_attach);
                reference.raise_link(b.cell, a.cell, cc, b_attach);
                pairs += 1;
            }

            let (mut folded, _) = six_cells();
            let mut calls = 0;
            raise_pairs(
                &a,
                nbrs.iter(),
                &mut |at: CellId, other: CellId, cc, attach| {
                    folded.raise_link(at, other, cc, attach);
                    calls += 1;
                },
            );
            assert_eq!(folded, reference);

            let foreign = |b: &PointState| b.cell != a.cell;
            let runs = nbrs
                .windows(2)
                .filter(|w| w[0].cell == w[1].cell && foreign(&w[0]))
                .count();
            assert_eq!(calls, 2 * (pairs - runs), "one raise per side per run");
            with_run += usize::from(runs > 0);
            interleaved += usize::from(
                nbrs.windows(3)
                    .any(|w| w[0].cell == w[2].cell && w[0].cell != w[1].cell && foreign(&w[0])),
            );
        }
        assert!(with_run > 20 && interleaved > 20, "the cases cover both");
    }

    #[test]
    fn raise_pairs_computes_both_sides_and_skips_intra_cell_pairs() {
        // a: core until 4, expires 6; b: core until 2, expires 9; c shares
        // a's cell.
        let (_, cells) = six_cells();
        let (a, b, c) = (
            state(cells[0], 4, 6),
            state(cells[1], 2, 9),
            state(cells[0], 9, 9),
        );
        let mut raised = Vec::new();
        raise_pairs(
            &a,
            [&b, &c].into_iter(),
            &mut |at: CellId, other: CellId, cc, attach| {
                raised.push((at, other, cc, attach));
            },
        );
        assert_eq!(
            raised,
            vec![
                // core-core min(4, 2); a core (4) ∧ b alive (9).
                (a.cell, b.cell, 2, 4),
                // b core (2) ∧ a alive (6).
                (b.cell, a.cell, 2, 2),
            ]
        );
    }
}
