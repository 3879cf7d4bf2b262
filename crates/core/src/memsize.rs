//! Deterministic deep-size accounting.
//!
//! Every memory-footprint number the paper reports (Fig. 7 bottom, Fig. 8
//! right, the 98 % compression rate of §8.2) is reproduced here by *counting
//! bytes of retained state* rather than sampling allocator statistics: the
//! result is exact, portable, and noise-free. [`HeapSize`] reports the heap
//! bytes owned by a value.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Bytes of heap memory transitively owned by a value (excluding the size of
/// the value itself).
pub trait HeapSize {
    /// Heap bytes owned by `self`.
    fn heap_size(&self) -> usize;
}

macro_rules! impl_heapsize_pod {
    ($($t:ty),* $(,)?) => {
        $(impl HeapSize for $t {
            #[inline]
            fn heap_size(&self) -> usize { 0 }
        })*
    };
}

impl_heapsize_pod!(
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

impl HeapSize for String {
    fn heap_size(&self) -> usize {
        self.capacity()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_size(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_size)
    }
}

impl<T: HeapSize> HeapSize for Box<T> {
    fn heap_size(&self) -> usize {
        core::mem::size_of::<T>() + (**self).heap_size()
    }
}

impl<T: HeapSize> HeapSize for Box<[T]> {
    fn heap_size(&self) -> usize {
        self.len() * core::mem::size_of::<T>() + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_size(&self) -> usize {
        self.capacity() * core::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for VecDeque<T> {
    fn heap_size(&self) -> usize {
        self.capacity() * core::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<K: HeapSize, V: HeapSize, S> HeapSize for HashMap<K, V, S> {
    fn heap_size(&self) -> usize {
        // hashbrown stores (K, V) pairs plus one control byte per bucket;
        // we account capacity * (entry + 1) as a close, deterministic model.
        self.capacity() * (core::mem::size_of::<(K, V)>() + 1)
            + self
                .iter()
                .map(|(k, v)| k.heap_size() + v.heap_size())
                .sum::<usize>()
    }
}

impl<T: HeapSize, S> HeapSize for HashSet<T, S> {
    fn heap_size(&self) -> usize {
        self.capacity() * (core::mem::size_of::<T>() + 1)
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<K: HeapSize, V: HeapSize> HeapSize for BTreeMap<K, V> {
    fn heap_size(&self) -> usize {
        // B-tree nodes hold up to 11 entries; model as len * entry * 12/11
        // rounded up, which is within a few percent of the real layout.
        let entry = core::mem::size_of::<(K, V)>();
        self.len() * entry
            + self.len() * entry / 11
            + self
                .iter()
                .map(|(k, v)| k.heap_size() + v.heap_size())
                .sum::<usize>()
    }
}

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_size(&self) -> usize {
        self.0.heap_size() + self.1.heap_size()
    }
}

impl<A: HeapSize, B: HeapSize, C: HeapSize> HeapSize for (A, B, C) {
    fn heap_size(&self) -> usize {
        self.0.heap_size() + self.1.heap_size() + self.2.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pods_own_no_heap() {
        assert_eq!(0u64.heap_size(), 0);
        assert_eq!(1.5f64.heap_size(), 0);
        assert_eq!(true.heap_size(), 0);
    }

    #[test]
    fn vec_counts_capacity() {
        let v: Vec<u32> = Vec::with_capacity(10);
        assert_eq!(v.heap_size(), 40);
        let v2 = vec![1u64, 2, 3];
        assert_eq!(v2.heap_size(), v2.capacity() * 8);
    }

    #[test]
    fn nested_vec_counts_inner_heap() {
        let v = vec![vec![1u8; 4], vec![2u8; 8]];
        let outer = v.capacity() * core::mem::size_of::<Vec<u8>>();
        assert_eq!(v.heap_size(), outer + v[0].capacity() + v[1].capacity());
    }

    #[test]
    fn string_counts_capacity() {
        let s = String::from("hello");
        assert_eq!(s.heap_size(), s.capacity());
    }

    #[test]
    fn option_and_box() {
        let b: Box<u64> = Box::new(7);
        assert_eq!(b.heap_size(), 8);
        let o: Option<Vec<u8>> = Some(vec![0; 16]);
        assert_eq!(o.heap_size(), 16);
        assert_eq!(None::<Vec<u8>>.heap_size(), 0);
    }

    #[test]
    fn hashmap_scales_with_capacity() {
        let mut m: HashMap<u32, u32> = HashMap::new();
        assert_eq!(m.heap_size(), 0);
        for i in 0..100 {
            m.insert(i, i);
        }
        assert!(m.heap_size() >= 100 * 8);
    }
}
