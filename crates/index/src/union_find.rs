//! Disjoint-set forest with path compression and union by rank.
//!
//! Extra-N forms each window view's clusters by unioning connected core
//! points; the output stage then groups by representative. The structure
//! supports growth (new elements appended) but never removal — a view only
//! ever gains points (expiry never removes from a *future* view), which is
//! the invariant that makes the per-view approach sound.

/// Disjoint sets over dense `usize` elements.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forest with `n` singleton sets.
    pub fn with_len(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Make the forest `n` singleton sets again, keeping its room.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.rank.clear();
        self.rank.resize(n, 0);
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Append a new singleton element, returning its index.
    pub fn push(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id as u32);
        self.rank.push(0);
        id
    }

    /// Ensure elements `0..n` exist.
    pub fn grow(&mut self, n: usize) {
        while self.parent.len() < n {
            self.push();
        }
    }

    /// Representative of `x`'s set, with path compression.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // compress
        let mut cur = x;
        while self.parent[cur] as usize != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Non-mutating find (no compression) for read-only contexts.
    pub fn find_const(&self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        root
    }

    /// Merge the sets containing `a` and `b`. Returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            core::cmp::Ordering::Less => self.parent[ra] = rb as u32,
            core::cmp::Ordering::Greater => self.parent[rb] = ra as u32,
            core::cmp::Ordering::Equal => {
                self.parent[rb] = ra as u32;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Heap bytes retained.
    pub fn heap_bytes(&self) -> usize {
        self.parent.capacity() * 4 + self.rank.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_distinct() {
        let mut uf = UnionFind::with_len(4);
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
        }
        assert!(!uf.connected(0, 1));
    }

    #[test]
    fn union_merges_transitively() {
        let mut uf = UnionFind::with_len(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2)); // already merged
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn reset_makes_singletons_again() {
        let mut uf = UnionFind::with_len(5);
        uf.union(0, 4);
        uf.reset(3);
        assert_eq!(uf.len(), 3);
        assert!((0..3).all(|i| uf.find(i) == i));
    }

    #[test]
    fn push_and_grow() {
        let mut uf = UnionFind::new();
        assert!(uf.is_empty());
        assert_eq!(uf.push(), 0);
        uf.grow(10);
        assert_eq!(uf.len(), 10);
        assert_eq!(uf.find(9), 9);
    }

    #[test]
    fn find_const_matches_find() {
        let mut uf = UnionFind::with_len(6);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 3);
        for i in 0..4 {
            assert_eq!(uf.find_const(i), uf.find(i));
        }
    }

    #[test]
    fn chains_compress() {
        // Build a long chain and check find flattens it.
        let mut uf = UnionFind::with_len(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        let root = uf.find(0);
        for i in 0..100 {
            assert_eq!(uf.find(i), root);
        }
    }
}
