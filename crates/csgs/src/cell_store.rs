//! The skeletal grid cell store: per-cell lifespan watermarks.
//!
//! Each touched cell keeps its population, a `core_until` watermark
//! (Lemma 5.1: the max of its members' core careers) and per-neighbor-cell
//! link watermarks (Lemma 5.2). All watermarks are absolute window indices
//! and only ever move *later* on insertion; a cell attribute is live at
//! window `w` iff `w < watermark`. Nothing is updated on expiration —
//! that is the heart of C-SGS.
//!
//! A cell is addressed by a [`CellId`]: the index of the slot it lives in.
//! Its coordinate is looked up once, when an object arrives in it
//! ([`CellStore::arrive`]); every later write — a population change, a
//! career, a link, each link keyed by the other cell's id — indexes the
//! slot. The coordinate is held twice, in the slot and as the map key,
//! both inline up to four dimensions ([`sgs_core::Coords`]): a new cell of
//! the paper's 2-d and 4-d streams allocates nothing of its own.
//!
//! A slot that [`CellStore::gc`] frees is handed to the next new cell. A
//! link keyed by the freed id may outlive it, in a cell `gc` did not
//! visit, and then names the new cell. That is harmless: a cell is
//! collected at window `W` only when it is empty and its core career is
//! over, so every object it held has expired by `W`, and every link into
//! it — a minimum of careers and expiries that included one of those
//! objects' — has both watermarks `≤ W`. Watermarks only rise and the
//! window only moves on, so the stale link never reads live; a raise to
//! the new cell folds into it by `max` and reads exactly as a new link.
//!
//! The store knows the current window ([`CellStore::set_window`]) for two
//! reasons. A link raise whose watermarks do not reach past it is dropped
//! before it costs a lookup — such a link could never be live. And every
//! mutator stamps the cell it writes with it ([`CellState::touched`]), so
//! the output stage can tell which clusters it has to rebuild and which
//! it can carry over from the previous window (`DESIGN.md` §6).
//!
//! The first stamp a cell takes in a window also lists it
//! ([`CellStore::written`]): the list is the cells the window changed,
//! which the output stage reads to find new core cells without a pass
//! over the store. [`CellStore::set_window`] drops the lapsed links of
//! the ending window's listed cells and starts the list afresh;
//! [`CellStore::gc`], after the new window's expiries, visits the listed
//! cells only and keeps listed those it does not collect. A cell empties
//! by an expiry, which stamps it, so every empty cell is collected at the
//! slide it empties; every written cell has its links visited once its
//! window is over, while a link that lapses in a cell nobody writes waits
//! for that cell's next write.

use sgs_core::{CellCoord, HeapSize, WindowId};
use sgs_index::FxHashMap;

/// The handle of a stored cell: the index of its slot. It names the cell
/// from the arrival that creates it to the [`CellStore::gc`] that
/// collects it; after that the slot may hold another cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(u32);

impl CellId {
    /// The slot index, for vectors kept per slot.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Watermarks for the relation between two cells (stored on each side).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Link {
    /// Core-core connection (Def. 4.3 / Lemma 5.2): live at `w` while some
    /// neighbor pair is core-core, i.e. `w < core_core_until`.
    pub core_core_until: u64,
    /// Attachment *from this cell's cores to the other cell's objects*:
    /// live while some core object here neighbors some (alive) object
    /// there. Used when the other cell is an edge cell at output time.
    pub attach_until: u64,
}

impl Link {
    /// Raise the core-core watermark.
    #[inline]
    pub fn raise_core_core(&mut self, until: u64) {
        self.core_core_until = self.core_core_until.max(until);
    }

    /// Raise the attachment watermark.
    #[inline]
    pub fn raise_attach(&mut self, until: u64) {
        self.attach_until = self.attach_until.max(until);
    }
}

/// Mutable state of one skeletal grid cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellState {
    /// Objects currently in the cell (all live objects, not only cluster
    /// members — noise objects count until they expire).
    pub population: u32,
    /// First window in which the cell stops being a core cell
    /// (Lemma 5.1 watermark).
    pub core_until: u64,
    /// Link watermarks to other cells this cell's objects have neighbors
    /// in, by the other cell's id. A link that is not live may name a
    /// collected cell's slot (see the module docs).
    pub links: FxHashMap<CellId, Link>,
    /// The window that was current when the cell was last written.
    pub touched: u64,
}

impl CellState {
    /// Whether the cell is a core cell at window `w`.
    #[inline]
    pub fn is_core_at(&self, w: WindowId) -> bool {
        self.population > 0 && w.0 < self.core_until
    }
}

/// One occupied slot.
#[derive(Clone, Debug, PartialEq)]
struct Slot {
    coord: CellCoord,
    state: CellState,
}

/// The store of all touched cells.
#[derive(Clone, Debug, Default)]
pub struct CellStore {
    /// The id of each stored cell, by coordinate.
    ids: FxHashMap<CellCoord, CellId>,
    /// Slot `i` holds the cell `CellId(i)`, or nothing once it is
    /// collected and until a new cell takes it.
    slots: Vec<Option<Slot>>,
    /// The vacant slots.
    free: Vec<CellId>,
    /// The cells stamped in the current window, each listed when its
    /// stamp moved to it, less those [`gc`](Self::gc) has collected.
    written: Vec<CellId>,
    /// The current window: the stamp of every write, and the bar a link
    /// watermark has to pass to be worth storing.
    now: u64,
}

/// Two stores are equal when they hold the same cells in the same slots,
/// in the same states; the order in which they were written is not part
/// of it.
impl PartialEq for CellStore {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
    }
}

/// Stamp `cell`, the cell `id`, with window `now`, listing it in
/// `written` if this is its first stamp of the window.
#[inline]
fn stamp(cell: &mut CellState, id: CellId, written: &mut Vec<CellId>, now: u64) {
    if cell.touched != now {
        cell.touched = now;
        written.push(id);
    }
}

impl CellStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored cells.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// One past the largest slot index: every [`CellId`] handed out so far
    /// indexes a vector of this length.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Move to window `now` (the extractor calls this as soon as the
    /// previous window's output is out). The cells the ending window
    /// wrote drop their links that lapse by `now`, and the list of
    /// written cells starts afresh.
    pub fn set_window(&mut self, now: WindowId) {
        for &id in &self.written {
            if let Some(slot) = &mut self.slots[id.index()] {
                drop_lapsed_links(&mut slot.state, now);
            }
        }
        self.written.clear();
        self.now = now.0;
    }

    /// The cells stamped in the current window, in the order of their
    /// first stamp: every cell whose state moved since the previous
    /// window's output, the cells `gc` collected aside.
    pub fn written(&self) -> &[CellId] {
        &self.written
    }

    /// An object arrives in the cell at `coord`: the one lookup by
    /// coordinate an arrival makes. Creates the cell, in a vacant slot if
    /// there is one, if it is not stored; increments its population and
    /// stamps it. Returns its id. The coordinate is copied only when the
    /// cell is created, and allocates only above four dimensions.
    pub fn arrive(&mut self, coord: &CellCoord) -> CellId {
        let CellStore {
            ids,
            slots,
            free,
            written,
            now,
        } = self;
        let id = match ids.get(coord) {
            Some(&id) => id,
            None => {
                let slot = Some(Slot {
                    coord: coord.clone(),
                    state: CellState {
                        touched: *now,
                        ..CellState::default()
                    },
                });
                let id = match free.pop() {
                    Some(id) => {
                        slots[id.index()] = slot;
                        id
                    }
                    None => {
                        let id = u32::try_from(slots.len()).expect("fewer than 2^32 cells");
                        slots.push(slot);
                        CellId(id)
                    }
                };
                ids.insert(coord.clone(), id);
                written.push(id);
                id
            }
        };
        let cell = state_mut(slots, id);
        cell.population += 1;
        stamp(cell, id, written, *now);
        id
    }

    /// The id of the cell at `coord`, if it is stored. The extractor
    /// never needs it: it holds the ids of the cells it reads again.
    pub fn id_of(&self, coord: &CellCoord) -> Option<CellId> {
        self.ids.get(coord).copied()
    }

    /// The state of the cell in slot `id`, if one is stored there.
    pub fn stored(&self, id: CellId) -> Option<&CellState> {
        let slot = self.slots.get(id.index())?.as_ref()?;
        Some(&slot.state)
    }

    /// The state of cell `id`, which is stored.
    pub fn get(&self, id: CellId) -> &CellState {
        &slot(&self.slots, id).state
    }

    /// The coordinate of cell `id`, which is stored.
    pub fn coord(&self, id: CellId) -> &CellCoord {
        &slot(&self.slots, id).coord
    }

    /// Raise the cell's core watermark (status promotion / prolong,
    /// Fig. 6 of the paper).
    ///
    /// Stamps the cell even when its maximum does not move: a member
    /// turned core, or stays core longer, either way.
    pub fn raise_core_until(&mut self, id: CellId, until: u64) {
        let cell = state_mut(&mut self.slots, id);
        cell.core_until = cell.core_until.max(until);
        stamp(cell, id, &mut self.written, self.now);
    }

    /// Raise one *side* of a pair link: the watermarks stored at `at` for
    /// its relation to `other` (Lemma 5.2; the values come from
    /// `point_store::raise_pairs`). A neighbor pair in distinct cells
    /// raises both sides, one call each.
    ///
    /// A raise that reaches no window past the current one (a pair of
    /// non-core objects: `min(0, ·) = 0`) is dropped outright — it can
    /// make nothing live, now or later, and most raises are of that kind.
    pub fn raise_link(&mut self, at: CellId, other: CellId, core_core: u64, attach: u64) {
        debug_assert_ne!(at, other, "intra-cell pairs carry no link");
        let now = self.now;
        if core_core <= now && attach <= now {
            return;
        }
        let cell = state_mut(&mut self.slots, at);
        let link = cell.links.entry(other).or_default();
        link.raise_core_core(core_core);
        link.raise_attach(attach);
        stamp(cell, at, &mut self.written, now);
    }

    /// Decrement a cell's population (object expiry). The cell of an
    /// expiring object is stored: it has been populated since the object's
    /// arrival, and `gc` collects empty cells only.
    pub fn decrement_population(&mut self, id: CellId) {
        let cell = state_mut(&mut self.slots, id);
        debug_assert!(cell.population > 0);
        cell.population -= 1;
        stamp(cell, id, &mut self.written, self.now);
    }

    /// Drop dead watermarks and empty cells among the cells written in
    /// the current window, freeing the slots of the collected cells and
    /// keeping the others listed. `now` is the current window; links whose
    /// two watermarks are both `<= now` can never fire again, and empty
    /// cells with no future core career hold no information.
    ///
    /// An empty cell is always visited — the expiry that emptied it
    /// stamped it in the current window, and ended its core career with
    /// it. A cell written in the previous window dropped its lapsed links
    /// when [`set_window`](Self::set_window) moved on, so every cell
    /// written since the last `gc` has had its links visited. A cell that
    /// is not visited keeps its links as they are: a lapsed one is dead
    /// weight, not a wrong answer (every reader tests liveness), and a
    /// cell holds at most one link per other cell within the range-query
    /// reach.
    pub fn gc(&mut self, now: WindowId) {
        let CellStore {
            ids,
            slots,
            free,
            written,
            ..
        } = self;
        written.retain(|&id| {
            let Some(slot) = &mut slots[id.index()] else {
                return false; // listed twice, and collected at the first
            };
            drop_lapsed_links(&mut slot.state, now);
            let collect = slot.state.population == 0 && slot.state.core_until <= now.0;
            if collect {
                let slot = slots[id.index()].take().expect("visited just now");
                ids.remove(&slot.coord);
                free.push(id);
            }
            !collect
        });
    }

    /// Iterate over all stored cells.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &CellCoord, &CellState)> {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            let slot = slot.as_ref()?;
            Some((CellId(i as u32), &slot.coord, &slot.state))
        })
    }

    /// Approximate retained heap bytes.
    pub fn heap_bytes(&self) -> usize {
        use core::mem::size_of;
        let mut bytes = self.ids.capacity() * (size_of::<(CellCoord, CellId)>() + 1)
            + self.slots.capacity() * size_of::<Option<Slot>>()
            + (self.free.capacity() + self.written.capacity()) * size_of::<CellId>();
        for (_, coord, cell) in self.iter() {
            // The coordinate is held twice, by its slot and as its map
            // key; on the heap only when it spills.
            bytes += 2 * coord.heap_size();
            bytes += cell.links.capacity() * (size_of::<(CellId, Link)>() + 1);
        }
        bytes
    }
}

/// Drop the links of `cell` whose two watermarks are both `<= now`: they
/// can never fire again.
fn drop_lapsed_links(cell: &mut CellState, now: WindowId) {
    cell.links
        .retain(|_, l| l.core_core_until > now.0 || l.attach_until > now.0);
}

/// The occupied slot of cell `id`.
#[inline]
fn slot(slots: &[Option<Slot>], id: CellId) -> &Slot {
    slots[id.index()].as_ref().expect("the cell is stored")
}

/// The state of cell `id`, which is stored.
#[inline]
fn state_mut(slots: &mut [Option<Slot>], id: CellId) -> &mut CellState {
    &mut slots[id.index()]
        .as_mut()
        .expect("the cell is stored")
        .state
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc(x: i32, y: i32) -> CellCoord {
        CellCoord::new(vec![x, y])
    }

    #[test]
    fn core_watermark_semantics() {
        let mut store = CellStore::new();
        let a = store.arrive(&cc(0, 0));
        store.raise_core_until(a, 5);
        let cell = store.get(a);
        assert!(cell.is_core_at(WindowId(4)));
        assert!(!cell.is_core_at(WindowId(5)));
        // Watermarks only move later.
        store.raise_core_until(a, 3);
        assert_eq!(store.get(a).core_until, 5);
    }

    #[test]
    fn empty_cell_is_never_core() {
        let mut store = CellStore::new();
        let a = store.arrive(&cc(0, 0));
        store.decrement_population(a);
        store.raise_core_until(a, 10);
        assert!(!store.get(a).is_core_at(WindowId(1)));
    }

    #[test]
    fn raise_link_writes_one_side_only() {
        let mut store = CellStore::new();
        let (a, b) = (store.arrive(&cc(0, 0)), store.arrive(&cc(1, 0)));
        store.raise_link(a, b, 2, 4);
        let ab = store.get(a).links[&b];
        assert_eq!((ab.core_core_until, ab.attach_until), (2, 4));
        assert!(
            store.get(b).links.is_empty(),
            "the far side is its own call's"
        );
    }

    #[test]
    fn raise_link_is_monotone_per_watermark() {
        let mut store = CellStore::new();
        let (a, b) = (store.arrive(&cc(0, 0)), store.arrive(&cc(1, 0)));
        store.raise_link(a, b, 2, 4);
        store.raise_link(a, b, 1, 1);
        let ab = store.get(a).links[&b];
        assert_eq!(
            (ab.core_core_until, ab.attach_until),
            (2, 4),
            "must not regress"
        );
        store.raise_link(a, b, 7, 3);
        let ab = store.get(a).links[&b];
        assert_eq!((ab.core_core_until, ab.attach_until), (7, 4));
    }

    #[test]
    fn gc_drops_dead_state() {
        let mut store = CellStore::new();
        let (a, b) = (store.arrive(&cc(0, 0)), store.arrive(&cc(1, 0)));
        store.raise_link(a, b, 3, 3);
        store.raise_link(b, a, 3, 3);
        store.decrement_population(a);
        store.decrement_population(b);
        store.gc(WindowId(5));
        assert!(store.is_empty(), "dead cells should be collected");
        assert_eq!(store.iter().count(), 0);
    }

    #[test]
    fn gc_keeps_live_state() {
        let mut store = CellStore::new();
        let (a, b) = (store.arrive(&cc(0, 0)), store.arrive(&cc(1, 0)));
        store.raise_link(a, b, 9, 9);
        store.raise_link(b, a, 9, 9);
        store.decrement_population(b);
        store.gc(WindowId(5));
        // The populated cell survives with its live link; the empty cell
        // with no core career is dropped (its watermarks are provably dead:
        // an empty cell cannot host a live pair endpoint).
        assert_eq!(store.len(), 1);
        assert_eq!(store.id_of(&cc(1, 0)), None);
        assert!(store.get(a).links.contains_key(&b));
    }

    /// A collected cell's slot goes to the next new cell, and a link left
    /// keyed by it in a cell `gc` did not visit reads dead for the newcomer
    /// until a raise to the newcomer makes it live.
    #[test]
    fn a_freed_slot_is_reused_and_a_stale_link_to_it_reads_dead() {
        let mut store = CellStore::new();
        let (a, b) = (store.arrive(&cc(0, 0)), store.arrive(&cc(1, 0)));
        store.gc(WindowId(0));
        // a's cores reach b's object until 4. The link is live when
        // window 1 drops window 0's lapsed links, and a is not written
        // again.
        store.raise_link(a, b, 0, 4);
        store.set_window(WindowId(1));
        assert!(store.get(a).links.contains_key(&b));
        store.set_window(WindowId(4));
        store.decrement_population(b); // b's object expires at 4
        store.gc(WindowId(4));
        assert_eq!(store.id_of(&cc(1, 0)), None);
        let c = store.arrive(&cc(5, 5));
        assert_eq!(c, b, "the freed slot is reused");
        assert_eq!(store.coord(c), &cc(5, 5));
        let stale = store.get(a).links[&c];
        assert!(stale.attach_until <= 4 && stale.core_core_until <= 4);
        store.raise_link(a, c, 0, 6);
        assert_eq!(store.get(a).links[&c].attach_until, 6);
        // And the old coordinate comes back in a slot of its own.
        let b2 = store.arrive(&cc(1, 0));
        assert_ne!(b2, c);
        assert_eq!(store.slot_count(), 3);
    }

    /// The written list holds the cells stamped in the current window: a
    /// cell first stamped by an expiry stays on it through `gc` (a raise
    /// to core later in the window lists it no second time), a collected
    /// one leaves it, and the cell that takes its slot joins it.
    /// `set_window` starts it afresh once the ending window's cells have
    /// dropped their lapsed links.
    #[test]
    fn the_written_list_is_the_cells_stamped_this_window() {
        let mut store = CellStore::new();
        let [a, b, c] = [cc(0, 0), cc(1, 0), cc(2, 0)].map(|coord| store.arrive(&coord));
        store.arrive(&cc(0, 0));
        store.raise_link(a, b, 0, 3);
        store.raise_link(c, b, 0, 9);
        assert_eq!(store.written(), [a, b, c]);

        store.set_window(WindowId(3));
        assert!(store.written().is_empty());
        assert!(store.get(a).links.is_empty(), "lapsed at 3");
        assert!(store.get(c).links.contains_key(&b), "live until 9");
        store.decrement_population(a);
        store.decrement_population(b);
        store.gc(WindowId(3));
        assert_eq!(store.written(), [a], "b is collected");
        store.raise_core_until(a, 8);
        let d = store.arrive(&cc(7, 7));
        assert_eq!(d, b, "the freed slot is reused");
        assert_eq!(store.written(), [a, d]);
    }

    #[test]
    fn population_counting() {
        let mut store = CellStore::new();
        let a = store.arrive(&cc(2, 2));
        assert_eq!(store.arrive(&cc(2, 2)), a);
        store.decrement_population(a);
        assert_eq!(store.get(a).population, 1);
    }

    /// The store as it was before cells had slots: keyed by coordinate,
    /// collected by a sweep over every cell.
    #[derive(Default)]
    struct Model {
        cells: std::collections::BTreeMap<CellCoord, ModelCell>,
        now: u64,
    }

    #[derive(Default)]
    struct ModelCell {
        population: u32,
        core_until: u64,
        links: std::collections::BTreeMap<CellCoord, Link>,
        touched: u64,
    }

    impl Model {
        fn write(&mut self, coord: &CellCoord) -> &mut ModelCell {
            let now = self.now;
            let cell = self.cells.entry(coord.clone()).or_insert(ModelCell {
                touched: now,
                ..ModelCell::default()
            });
            cell.touched = now;
            cell
        }

        fn sweep(&mut self) {
            let now = self.now;
            self.cells
                .retain(|_, cell| cell.population > 0 || cell.core_until > now);
        }
    }

    /// What a reader at the current window sees of a cell: its population
    /// and stamp, and every watermark that is live now or later, links by
    /// the far cell's coordinate.
    type View = (
        u32,
        u64,
        Option<u64>,
        Vec<(CellCoord, Option<u64>, Option<u64>)>,
    );

    fn live(mark: u64, now: u64) -> Option<u64> {
        (mark > now).then_some(mark)
    }

    fn views_of_store(store: &CellStore) -> Vec<(CellCoord, View)> {
        let now = store.now;
        let mut views: Vec<(CellCoord, View)> = store
            .iter()
            .map(|(_, coord, cell)| {
                let mut links: Vec<_> = cell
                    .links
                    .iter()
                    .filter(|(_, l)| l.core_core_until > now || l.attach_until > now)
                    .map(|(&other, l)| {
                        let other = store.coord(other).clone();
                        (
                            other,
                            live(l.core_core_until, now),
                            live(l.attach_until, now),
                        )
                    })
                    .collect();
                links.sort();
                let view = (
                    cell.population,
                    cell.touched,
                    live(cell.core_until, now),
                    links,
                );
                (coord.clone(), view)
            })
            .collect();
        views.sort_by(|a, b| a.0.cmp(&b.0));
        views
    }

    fn views_of_model(model: &Model) -> Vec<(CellCoord, View)> {
        let now = model.now;
        let view = |cell: &ModelCell| -> View {
            let links = cell
                .links
                .iter()
                .filter(|(_, l)| l.core_core_until > now || l.attach_until > now)
                .map(|(other, l)| {
                    let marks = (live(l.core_core_until, now), live(l.attach_until, now));
                    (other.clone(), marks.0, marks.1)
                })
                .collect();
            (
                cell.population,
                cell.touched,
                live(cell.core_until, now),
                links,
            )
        };
        let cells = model.cells.iter();
        cells
            .map(|(coord, cell)| (coord.clone(), view(cell)))
            .collect()
    }

    proptest::proptest! {
        /// Random arrivals, expiries, career and link raises, slides and
        /// `gc`s over a few cells, against the coordinate-keyed model:
        /// after every step both hold the same cells, and every population,
        /// stamp and watermark live at the current window or later reads
        /// the same. The raises keep the algorithm's bounds — a watermark
        /// never outlives an object it was computed from — so collected
        /// slots are reused under stale links.
        #[test]
        fn slots_read_as_a_coordinate_keyed_store(
            script in proptest::prop::collection::vec(
                (0u8..8, 0usize..1000, 0usize..1000, 0u64..8, 0u64..8),
                1..200,
            ),
        ) {
            let mut store = CellStore::new();
            let mut model = Model::default();
            // The live objects: (cell, expiry).
            let mut objects: Vec<(CellCoord, u64)> = Vec::new();
            for &(op, i, j, x, y) in &script {
                let now = model.now;
                match op {
                    // Arrivals, in one of six cells.
                    0..=2 => {
                        let coord = cc((i % 3) as i32, (j % 2) as i32);
                        store.arrive(&coord);
                        model.write(&coord).population += 1;
                        objects.push((coord, now + 1 + x % 5));
                    }
                    // A career: at most the object's own expiry.
                    3 if !objects.is_empty() => {
                        let (coord, expires) = &objects[i % objects.len()];
                        let until = (now + x).saturating_sub(y).min(*expires);
                        store.raise_core_until(store.id_of(coord).unwrap(), until);
                        let cell = model.write(coord);
                        cell.core_until = cell.core_until.max(until);
                    }
                    // A pair link: at most either object's expiry.
                    4 | 5 if !objects.is_empty() => {
                        let (a, a_exp) = &objects[i % objects.len()];
                        let (b, b_exp) = &objects[j % objects.len()];
                        if a == b {
                            continue;
                        }
                        let bound = (*a_exp).min(*b_exp);
                        let mark = |r: u64| (now + r).saturating_sub(3).min(bound);
                        let (cc_mark, attach) = (mark(x), mark(y));
                        let (at, other) = (store.id_of(a).unwrap(), store.id_of(b).unwrap());
                        store.raise_link(at, other, cc_mark, attach);
                        if cc_mark > now || attach > now {
                            let link = model.write(a).links.entry(b.clone()).or_default();
                            link.raise_core_core(cc_mark);
                            link.raise_attach(attach);
                        }
                    }
                    // A slide: expire, then collect.
                    _ => {
                        let now = now + 1;
                        store.set_window(WindowId(now));
                        model.now = now;
                        for (coord, _) in objects.iter().filter(|(_, e)| *e == now) {
                            store.decrement_population(store.id_of(coord).unwrap());
                            model.write(coord).population -= 1;
                        }
                        objects.retain(|&(_, e)| e > now);
                        store.gc(WindowId(now));
                        model.sweep();
                    }
                }
                proptest::prop_assert_eq!(views_of_store(&store), views_of_model(&model));
                // Slots are reused: never more than the six cells at once.
                proptest::prop_assert!(store.slot_count() <= 6);
            }
        }
    }
}
