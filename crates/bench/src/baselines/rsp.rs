//! RSP — Random Sampling summarization (§8).
//!
//! Summarizes a cluster by a uniform random sample of its members. To make
//! the comparison fair, the evaluation sizes every RSP to consume **the
//! same memory as the SGS of the same cluster** (§8: "R is always
//! controlled to let its RSP have the same memory consumption with the
//! SGS"). [`Rsp::from_members_with_budget`] implements exactly that
//! contract.

use rand::seq::SliceRandom;
use rand::Rng;
use sgs_summarize::MemberSet;

/// A random-sample summary of one cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct Rsp {
    /// Sampled member positions.
    pub sample: Vec<Box<[f64]>>,
    /// Population of the cluster the sample was drawn from.
    pub population: u32,
}

impl Rsp {
    /// Sample `k` members uniformly without replacement (capped at the
    /// population).
    pub fn from_members(members: &MemberSet, k: usize, rng: &mut impl Rng) -> Rsp {
        let mut all: Vec<Box<[f64]>> = members.iter_all().map(Into::into).collect();
        all.shuffle(rng);
        all.truncate(k.min(members.population()));
        // Canonical order so equal samples compare equal irrespective of
        // shuffle order.
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Rsp {
            sample: all,
            population: members.population() as u32,
        }
    }

    /// Sample under a byte budget: the number of samples is
    /// `budget_bytes / (dim * 8)` — the paper's "same memory as SGS" rule.
    pub fn from_members_with_budget(
        members: &MemberSet,
        budget_bytes: usize,
        rng: &mut impl Rng,
    ) -> Rsp {
        let dim = members.dim().max(1);
        let k = budget_bytes / (dim * 8);
        Self::from_members(members, k.max(1), rng)
    }

    /// Bytes needed to archive the sample.
    pub fn archived_bytes(&self) -> usize {
        let dim = self.sample.first().map_or(0, |s| s.len());
        self.sample.len() * dim * 8 + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn members(n: usize) -> MemberSet {
        MemberSet::new((0..n).map(|i| vec![i as f64, 0.0].into()).collect(), vec![])
    }

    #[test]
    fn sample_size_is_min_of_k_and_population() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let m = members(10);
        assert_eq!(Rsp::from_members(&m, 4, &mut rng).sample.len(), 4);
        assert_eq!(Rsp::from_members(&m, 100, &mut rng).sample.len(), 10);
    }

    #[test]
    fn samples_come_from_members() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let m = members(20);
        let rsp = Rsp::from_members(&m, 5, &mut rng);
        for s in &rsp.sample {
            assert!(m.iter_all().any(|p| p == s.as_ref()));
        }
        assert_eq!(rsp.population, 20);
    }

    #[test]
    fn budget_controls_sample_count() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let m = members(100);
        // dim 2 → 16 bytes per sample; 160-byte budget → 10 samples.
        let rsp = Rsp::from_members_with_budget(&m, 160, &mut rng);
        assert_eq!(rsp.sample.len(), 10);
        assert!(rsp.archived_bytes() <= 160 + 4);
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let m = members(50);
        let a = Rsp::from_members(&m, 7, &mut rand::rngs::StdRng::seed_from_u64(9));
        let b = Rsp::from_members(&m, 7, &mut rand::rngs::StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn budget_always_keeps_at_least_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let rsp = Rsp::from_members_with_budget(&members(5), 1, &mut rng);
        assert_eq!(rsp.sample.len(), 1);
    }
}
