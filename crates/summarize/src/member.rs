//! The member set of one extracted cluster — the input to every
//! summarization format.
//!
//! A cluster's *full representation* (Def. 3.1) is its member objects with
//! their core/edge labels; summarizers only need positions and labels, not
//! stream identities, so [`MemberSet`] owns plain coordinate buffers.

/// Positions of one cluster's members, split by label.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemberSet {
    /// Positions of the core objects.
    pub cores: Vec<Box<[f64]>>,
    /// Positions of the edge objects.
    pub edges: Vec<Box<[f64]>>,
}

impl MemberSet {
    /// Build from position lists.
    pub fn new(cores: Vec<Box<[f64]>>, edges: Vec<Box<[f64]>>) -> Self {
        MemberSet { cores, edges }
    }

    /// Total member count.
    #[inline]
    pub fn population(&self) -> usize {
        self.cores.len() + self.edges.len()
    }

    /// Dimensionality (0 for an empty set).
    pub fn dim(&self) -> usize {
        self.cores
            .first()
            .or_else(|| self.edges.first())
            .map_or(0, |c| c.len())
    }

    /// Iterate over all member positions (cores first).
    pub fn iter_all(&self) -> impl Iterator<Item = &[f64]> {
        self.cores
            .iter()
            .chain(self.edges.iter())
            .map(|b| b.as_ref())
    }

    /// Bytes needed to store the full representation: one `f64` per
    /// coordinate plus a 4-byte cluster id per member — the storage model
    /// behind the paper's full-representation sizes in §8.2.
    pub fn full_repr_bytes(&self) -> usize {
        self.population() * (self.dim() * core::mem::size_of::<f64>() + 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms() -> MemberSet {
        MemberSet::new(
            vec![vec![0.0, 0.0].into(), vec![2.0, 0.0].into()],
            vec![vec![1.0, 3.0].into()],
        )
    }

    #[test]
    fn population_and_dim() {
        let m = ms();
        assert_eq!(m.population(), 3);
        assert_eq!(m.dim(), 2);
        assert_eq!(MemberSet::default().dim(), 0);
    }

    #[test]
    fn full_repr_bytes_model() {
        // 3 members × (2 dims × 8 bytes + 4 bytes id) = 60
        assert_eq!(ms().full_repr_bytes(), 60);
    }
}
