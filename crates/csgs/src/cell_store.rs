//! The skeletal grid cell store: per-cell lifespan watermarks.
//!
//! Each touched cell keeps its population, a `core_until` watermark
//! (Lemma 5.1: the max of its members' core careers) and per-neighbor-cell
//! link watermarks (Lemma 5.2). All watermarks are absolute window indices
//! and only ever move *later* on insertion; a cell attribute is live at
//! window `w` iff `w < watermark`. Nothing is updated on expiration —
//! that is the heart of C-SGS.
//!
//! The store knows the current window ([`CellStore::set_window`]) for two
//! reasons. A link raise whose watermarks do not reach past it is dropped
//! before it costs a lookup — such a link could never be live. And every
//! mutator stamps the cell it writes with it ([`CellState::touched`]), so
//! the output stage can tell which clusters it has to rebuild and which
//! it can carry over from the previous window (`DESIGN.md` §6).
//!
//! The first stamp a cell takes in a window also lists it, and
//! [`CellStore::gc`] visits the listed cells only: a cell empties by an
//! expiry, which stamps it, so every empty cell is collected at the slide
//! it empties, while a link that lapses in a cell nobody writes waits for
//! that cell's next write.

use sgs_core::{CellCoord, WindowId};
use sgs_index::FxHashMap;

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
    /// in.
    pub links: FxHashMap<CellCoord, Link>,
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

/// The store of all touched cells.
#[derive(Clone, Debug, Default)]
pub struct CellStore {
    cells: FxHashMap<CellCoord, CellState>,
    /// The cells [`gc`](Self::gc) visits next: each cell whose stamp moved
    /// to the current window since the last `gc`, listed when it moved.
    written: Written,
    /// The current window: the stamp of every write, and the bar a link
    /// watermark has to pass to be worth storing.
    now: u64,
}

/// Two stores are equal when they hold the same cells in the same states;
/// the order in which they were written is not part of it.
impl PartialEq for CellStore {
    fn eq(&self, other: &Self) -> bool {
        self.cells == other.cells
    }
}

/// A list of cell coordinates laid back to back in one buffer, so listing
/// a cell copies its indices and allocates nothing once the buffer has
/// grown to a window's worth.
#[derive(Clone, Debug, Default)]
struct Written {
    coords: Vec<i32>,
    /// Dimensionality of the listed coordinates (0 until the first).
    dim: usize,
}

impl Written {
    fn push(&mut self, coord: &CellCoord) {
        self.dim = coord.dim();
        self.coords.extend_from_slice(&coord.0);
    }

    /// Stamp `cell`, at `coord`, with window `now`, listing it if this is
    /// its first stamp of the window.
    #[inline]
    fn stamp(&mut self, cell: &mut CellState, coord: &CellCoord, now: u64) {
        if cell.touched != now {
            cell.touched = now;
            self.push(coord);
        }
    }
}

impl CellStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked (non-empty or not-yet-pruned) cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Move to window `now` (the extractor calls this as soon as the
    /// previous window's output is out).
    pub fn set_window(&mut self, now: WindowId) {
        self.now = now.0;
    }

    /// Get or create the state for `coord`. Established cells (every
    /// call but a cell's first) are found by reference: the key is cloned
    /// only when the cell is created. Creating a cell stamps and lists it;
    /// the mutators below are built on it and add the stamp, while a
    /// direct write through it to an established cell leaves none.
    pub fn entry(&mut self, coord: &CellCoord) -> &mut CellState {
        self.stamped_entry(coord).0
    }

    /// [`entry`](Self::entry), with the list a mutator stamps through.
    fn stamped_entry(&mut self, coord: &CellCoord) -> (&mut CellState, &mut Written) {
        let CellStore {
            cells,
            written,
            now,
        } = self;
        // `contains_key`, not `get_mut`-and-return: a borrow returned from
        // one arm would keep the map borrowed in the inserting one.
        if !cells.contains_key(coord) {
            let fresh = CellState {
                touched: *now,
                ..CellState::default()
            };
            cells.insert(coord.clone(), fresh);
            written.push(coord);
        }
        (
            cells.get_mut(coord).expect("present or just created"),
            written,
        )
    }

    /// Look up a cell.
    pub fn get(&self, coord: &CellCoord) -> Option<&CellState> {
        self.cells.get(coord)
    }

    /// Raise the cell's core watermark (status promotion / prolong,
    /// Fig. 6 of the paper).
    ///
    /// Stamps the cell even when its maximum does not move: a member
    /// turned core, or stays core longer, either way.
    pub fn raise_core_until(&mut self, coord: &CellCoord, until: u64) {
        let now = self.now;
        let (cell, written) = self.stamped_entry(coord);
        cell.core_until = cell.core_until.max(until);
        written.stamp(cell, coord, now);
    }

    /// Raise one *side* of a pair link: the watermarks stored at `at` for
    /// its relation to `other` (Lemma 5.2; the values come from
    /// `point_store::raise_pairs`). A neighbor pair in distinct cells
    /// raises both sides, one call each.
    ///
    /// A raise that reaches no window past the current one (a pair of
    /// non-core objects: `min(0, ·) = 0`) is dropped outright — it can
    /// make nothing live, now or later, and most raises are of that kind.
    pub fn raise_link(&mut self, at: &CellCoord, other: &CellCoord, core_core: u64, attach: u64) {
        debug_assert_ne!(at, other, "intra-cell pairs carry no link");
        let now = self.now;
        if core_core <= now && attach <= now {
            return;
        }
        // Fast path: both the cell and the link already exist (the common
        // case for established pairs) — no key clones.
        if let Some(cell) = self.cells.get_mut(at) {
            if let Some(link) = cell.links.get_mut(other) {
                link.raise_core_core(core_core);
                link.raise_attach(attach);
                self.written.stamp(cell, at, now);
                return;
            }
        }
        let (cell, written) = self.stamped_entry(at);
        let link = cell.links.entry(other.clone()).or_default();
        link.raise_core_core(core_core);
        link.raise_attach(attach);
        written.stamp(cell, at, now);
    }

    /// Decrement a cell's population (object expiry). The cell of an
    /// expiring object exists: it has been populated since the object's
    /// arrival, and `gc` collects empty cells only.
    pub fn decrement_population(&mut self, coord: &CellCoord) {
        let cell = self.cells.get_mut(coord).expect("a populated cell exists");
        debug_assert!(cell.population > 0);
        cell.population -= 1;
        self.written.stamp(cell, coord, self.now);
    }

    /// Increment a cell's population (object arrival).
    pub fn increment_population(&mut self, coord: &CellCoord) {
        let now = self.now;
        let (cell, written) = self.stamped_entry(coord);
        cell.population += 1;
        written.stamp(cell, coord, now);
    }

    /// Drop dead watermarks and empty cells among the cells written since
    /// the last `gc`. `now` is the current window; links whose two
    /// watermarks are both `<= now` can never fire again, and empty cells
    /// with no future core career hold no information.
    ///
    /// A cell that is not visited keeps its links as they are: a lapsed
    /// one is dead weight, not a wrong answer (every reader tests
    /// liveness), and a cell holds at most one link per other cell within
    /// the range-query reach. An empty cell is always visited — the expiry
    /// that emptied it stamped it, and ended its core career with it.
    pub fn gc(&mut self, now: WindowId) {
        let CellStore { cells, written, .. } = self;
        if written.dim > 0 {
            for coord in written.coords.chunks_exact(written.dim) {
                let Some(cell) = cells.get_mut(coord) else {
                    continue; // listed twice, and collected at the first
                };
                cell.links
                    .retain(|_, l| l.core_core_until > now.0 || l.attach_until > now.0);
                if cell.population == 0 && cell.core_until <= now.0 {
                    cells.remove(coord);
                }
            }
        }
        written.coords.clear();
    }

    /// Iterate over all cells.
    pub fn iter(&self) -> impl Iterator<Item = (&CellCoord, &CellState)> {
        self.cells.iter()
    }

    /// Approximate retained heap bytes.
    pub fn heap_bytes(&self) -> usize {
        let mut bytes = self.cells.capacity()
            * (core::mem::size_of::<(CellCoord, CellState)>() + 1)
            + self.written.coords.capacity() * core::mem::size_of::<i32>();
        for (coord, cell) in &self.cells {
            bytes += coord.0.len() * 4;
            bytes += cell.links.capacity() * (core::mem::size_of::<(CellCoord, Link)>() + 1);
            bytes += cell.links.keys().map(|c| c.0.len() * 4).sum::<usize>();
        }
        bytes
    }
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
        store.increment_population(&cc(0, 0));
        store.raise_core_until(&cc(0, 0), 5);
        let cell = store.get(&cc(0, 0)).unwrap();
        assert!(cell.is_core_at(WindowId(4)));
        assert!(!cell.is_core_at(WindowId(5)));
        // Watermarks only move later.
        store.raise_core_until(&cc(0, 0), 3);
        assert_eq!(store.get(&cc(0, 0)).unwrap().core_until, 5);
    }

    #[test]
    fn empty_cell_is_never_core() {
        let mut store = CellStore::new();
        store.raise_core_until(&cc(0, 0), 10);
        assert!(!store.get(&cc(0, 0)).unwrap().is_core_at(WindowId(1)));
    }

    #[test]
    fn raise_link_writes_one_side_only() {
        let mut store = CellStore::new();
        store.raise_link(&cc(0, 0), &cc(1, 0), 2, 4);
        let ab = store.get(&cc(0, 0)).unwrap().links[&cc(1, 0)];
        assert_eq!((ab.core_core_until, ab.attach_until), (2, 4));
        assert!(
            store.get(&cc(1, 0)).is_none(),
            "the far side is its own call's"
        );
    }

    #[test]
    fn raise_link_is_monotone_per_watermark() {
        let mut store = CellStore::new();
        store.raise_link(&cc(0, 0), &cc(1, 0), 2, 4);
        store.raise_link(&cc(0, 0), &cc(1, 0), 1, 1);
        let ab = store.get(&cc(0, 0)).unwrap().links[&cc(1, 0)];
        assert_eq!(
            (ab.core_core_until, ab.attach_until),
            (2, 4),
            "must not regress"
        );
        store.raise_link(&cc(0, 0), &cc(1, 0), 7, 3);
        let ab = store.get(&cc(0, 0)).unwrap().links[&cc(1, 0)];
        assert_eq!((ab.core_core_until, ab.attach_until), (7, 4));
    }

    #[test]
    fn gc_drops_dead_state() {
        let mut store = CellStore::new();
        store.increment_population(&cc(0, 0));
        store.raise_link(&cc(0, 0), &cc(1, 0), 3, 3);
        store.raise_link(&cc(1, 0), &cc(0, 0), 3, 3);
        store.decrement_population(&cc(0, 0));
        store.gc(WindowId(5));
        assert!(store.is_empty(), "dead cells should be collected");
    }

    #[test]
    fn gc_keeps_live_state() {
        let mut store = CellStore::new();
        store.increment_population(&cc(0, 0));
        store.raise_link(&cc(0, 0), &cc(1, 0), 9, 9);
        store.raise_link(&cc(1, 0), &cc(0, 0), 9, 9);
        store.gc(WindowId(5));
        // The populated cell survives with its live link; the empty cell
        // with no core career is dropped (its watermarks are provably dead:
        // an empty cell cannot host a live pair endpoint).
        assert_eq!(store.len(), 1);
        assert!(store.get(&cc(0, 0)).unwrap().links.contains_key(&cc(1, 0)));
    }

    #[test]
    fn population_counting() {
        let mut store = CellStore::new();
        store.increment_population(&cc(2, 2));
        store.increment_population(&cc(2, 2));
        store.decrement_population(&cc(2, 2));
        assert_eq!(store.get(&cc(2, 2)).unwrap().population, 1);
    }
}
