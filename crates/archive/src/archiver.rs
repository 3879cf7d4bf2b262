//! The Pattern Archiver (§6): selective archival.
//!
//! The archiver sits between the extractor and the pattern base (Fig. 4),
//! and selecting is its one job. Per §6.2 it supports sampling-based
//! selection (archive a fraction of the detected clusters) and
//! feature-based selection (archive only clusters reaching a population
//! or volume bar). What it selects is stored at full resolution (level
//! 0), and stays so: no product path coarsens an archived pattern.
//! [`choose_level`] is the §6.1 budget computation for a caller that
//! coarsens a summary itself — the space cost of any level is exactly
//! computable without materializing it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgs_core::WindowId;
use sgs_summarize::{multires, Sgs};

use crate::pattern_base::{PatternBase, PatternId};

/// Which clusters to archive (§6.2).
#[derive(Clone, Debug, PartialEq)]
pub enum ArchivePolicy {
    /// Archive every extracted cluster.
    All,
    /// Archive each cluster independently with this probability
    /// (sampling-based selection).
    Sample(f64),
    /// Archive only clusters with at least this many member objects
    /// (feature-based selection).
    MinPopulation(u32),
    /// Archive only clusters spanning at least this many skeletal cells
    /// (feature-based selection).
    MinVolume(usize),
}

impl ArchivePolicy {
    fn admits(&self, sgs: &Sgs, rng: &mut StdRng) -> bool {
        match self {
            ArchivePolicy::All => true,
            ArchivePolicy::Sample(p) => rng.gen_range(0.0..1.0) < *p,
            ArchivePolicy::MinPopulation(min) => sgs.population() >= *min,
            ArchivePolicy::MinVolume(min) => sgs.volume() >= *min,
        }
    }
}

/// Pick the finest resolution level whose archived size fits
/// `budget_bytes` (§6.1's budget-aware selection). Returns `max_level` if
/// even the coarsest does not fit — the analyst's floor on accuracy wins.
pub fn choose_level(sgs: &Sgs, theta: u32, budget_bytes: usize, max_level: u8) -> u8 {
    for level in 0..=max_level {
        if multires::archived_bytes_at_level(sgs, theta, level) <= budget_bytes {
            return level;
        }
    }
    max_level
}

/// The archiver: [`select`](Self::select) applies the selection policy to
/// a window's output and leaves storing to the caller (the runtime commits
/// a batch's selection to the shared history in one write);
/// [`observe`](Self::observe) also stores it in the archiver's own base.
#[derive(Debug)]
pub struct PatternArchiver {
    policy: ArchivePolicy,
    base: PatternBase,
    rng: StdRng,
    /// Clusters offered / archived counters.
    pub offered: u64,
    /// Clusters the policy kept (stored by `observe` or by the caller).
    pub archived: u64,
}

impl PatternArchiver {
    /// Archiver storing basic SGSs under `policy`.
    pub fn new(policy: ArchivePolicy, seed: u64) -> Self {
        PatternArchiver {
            policy,
            base: PatternBase::new(),
            rng: StdRng::seed_from_u64(seed),
            offered: 0,
            archived: 0,
        }
    }

    /// The underlying pattern base.
    pub fn base(&self) -> &PatternBase {
        &self.base
    }

    /// Consume the archiver, returning the pattern base.
    pub fn into_base(self) -> PatternBase {
        self.base
    }

    /// Offer one window's extracted summaries; returns the ones the
    /// policy keeps, in order. Empty summaries, which no base stores,
    /// are offered but never kept.
    pub fn select<'a>(&mut self, summaries: impl IntoIterator<Item = &'a Sgs>) -> Vec<&'a Sgs> {
        let mut kept = Vec::new();
        for sgs in summaries {
            self.offered += 1;
            if self.policy.admits(sgs, &mut self.rng) && !sgs.cells.is_empty() {
                self.archived += 1;
                kept.push(sgs);
            }
        }
        kept
    }

    /// [`select`](Self::select), storing what it keeps in the archiver's
    /// own base; returns the handles of the archived summaries.
    pub fn observe<'a>(
        &mut self,
        window: WindowId,
        summaries: impl IntoIterator<Item = &'a Sgs>,
    ) -> Vec<PatternId> {
        let kept = self.select(summaries);
        kept.into_iter()
            .filter_map(|sgs| self.base.insert(sgs.clone(), window))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::GridGeometry;
    use sgs_summarize::MemberSet;

    fn blob(n: usize) -> Sgs {
        let cores: Vec<Box<[f64]>> = (0..n)
            .map(|i| vec![0.05 + (i % 10) as f64 * 0.3, 0.05 + (i / 10) as f64 * 0.3].into())
            .collect();
        Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0))
    }

    #[test]
    fn policy_all_archives_everything() {
        let mut a = PatternArchiver::new(ArchivePolicy::All, 0);
        let s = blob(20);
        let ids = a.observe(WindowId(0), [&s, &s, &s]);
        assert_eq!(ids.len(), 3);
        assert_eq!(a.base().len(), 3);
        assert_eq!((a.offered, a.archived), (3, 3));
    }

    #[test]
    fn sampling_archives_a_fraction() {
        let mut a = PatternArchiver::new(ArchivePolicy::Sample(0.3), 7);
        let s = blob(20);
        for w in 0..200 {
            a.observe(WindowId(w), [&s]);
        }
        let frac = a.archived as f64 / a.offered as f64;
        assert!((0.15..0.45).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn select_draws_like_observe_and_stores_nothing() {
        let s = blob(60);
        let empty = Sgs {
            cells: Default::default(),
            ..s.clone()
        };
        let mut own = PatternArchiver::new(ArchivePolicy::Sample(0.5), 11);
        let mut selecting = PatternArchiver::new(ArchivePolicy::Sample(0.5), 11);
        let mut elsewhere = PatternBase::new();
        for w in 0..40 {
            let a = own.observe(WindowId(w), [&s, &empty, &s]);
            let b: Vec<PatternId> = selecting
                .select([&s, &empty, &s])
                .into_iter()
                .filter_map(|sgs| elsewhere.insert(sgs.clone(), WindowId(w)))
                .collect();
            assert_eq!(a, b, "window {w}: the same draws admit the same clusters");
        }
        assert_eq!(
            (own.offered, own.archived),
            (selecting.offered, selecting.archived)
        );
        assert!(0 < own.archived && own.archived < own.offered);
        assert!(selecting.base().is_empty(), "select stores nothing");
        assert_eq!(own.base().len() as u64, own.archived);
        assert_eq!(elsewhere.len() as u64, selecting.archived);
        for (a, b) in own.base().iter().zip(elsewhere.iter()) {
            assert_eq!((a.window, a.sgs.level), (b.window, 0));
            assert_eq!(a.sgs, b.sgs);
        }
    }

    #[test]
    fn feature_selection_filters_small_clusters() {
        let mut a = PatternArchiver::new(ArchivePolicy::MinPopulation(15), 0);
        let big = blob(30);
        let small = blob(5);
        let ids = a.observe(WindowId(0), [&big, &small]);
        assert_eq!(ids.len(), 1);
        assert_eq!(a.base().get(ids[0]).unwrap().sgs.population(), 30);

        let mut v = PatternArchiver::new(ArchivePolicy::MinVolume(4), 0);
        let ids = v.observe(WindowId(0), [&big, &blob(2)]);
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn budget_selection_picks_finest_fitting() {
        let s = blob(60);
        let level0 = multires::archived_bytes_at_level(&s, 3, 0);
        // Budget just below level 0 forces level ≥ 1.
        assert_eq!(choose_level(&s, 3, level0, 3), 0);
        let picked = choose_level(&s, 3, level0 - 1, 3);
        assert!(picked >= 1);
        // Hopeless budget falls back to the coarsest allowed level.
        assert_eq!(choose_level(&s, 3, 1, 2), 2);
    }
}
