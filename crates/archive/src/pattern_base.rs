//! The Pattern Base (§7.1) and the cluster matching query execution (§7.2).
//!
//! Each archived SGS keeps its two search keys beside it: its MBR (the
//! locational feature) and its 4-d feature vector (volume, core-cell
//! count, avg density, avg connectivity). The filter phase is one scan
//! over them. A position-sensitive MATCH keeps the patterns whose MBR
//! overlaps the query's; a position-insensitive one keeps those whose
//! features all lie in the per-dimension admissible ranges of §7.2. The
//! scan's cost is in proportion to the base, whatever the threshold
//! (DESIGN.md §3 item 2).
//!
//! A matching query runs **filter-and-refine**: the scan narrows the base
//! to candidates, the cluster-level feature metric (on the cached feature
//! vectors) discards most of them, and only the survivors pay for the
//! grid-cell-level match. When position-insensitive, a survivor first
//! meets [`AlignmentFilter`]: a sound lower bound on the grid-level
//! distance over every alignment, from the cell counts and the histogram
//! of cell offsets. A candidate whose bound exceeds the threshold cannot
//! match at any shift, so it skips the anytime alignment search and the
//! answer is the one the search would give. [`MatchOutcome`] reports how
//! many candidates reached each phase — the statistic behind the "only
//! 6 % needed the grid-level match" claim of §8.2.

use sgs_core::{HeapSize, WindowId};
use sgs_index::Rect;
use sgs_matching::metric::feature_distance;
use sgs_matching::{
    best_alignment, feature_ranges, grid_level_distance, AlignmentFilter, MatchConfig,
};
use sgs_summarize::{packed, Sgs};

/// Handle of an archived pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternId(pub u64);

/// One archived cluster summary.
#[derive(Clone, Debug)]
pub struct ArchivedPattern {
    /// Stable handle.
    pub id: PatternId,
    /// Window the cluster was extracted from.
    pub window: WindowId,
    /// The archived summary (basic or coarsened resolution).
    pub sgs: Sgs,
    /// Cached feature vector (volume, cores, density, connectivity).
    pub features: [f64; 4],
}

/// One match found by a cluster matching query.
#[derive(Clone, Debug, PartialEq)]
pub struct MatchResult {
    /// The archived pattern.
    pub id: PatternId,
    /// Final (grid-level) distance to the query cluster.
    pub distance: f64,
}

/// Result of a matching query, with filter-phase statistics.
#[derive(Clone, Debug, Default)]
pub struct MatchOutcome {
    /// Matches with distance ≤ threshold, sorted ascending by distance.
    pub matches: Vec<MatchResult>,
    /// Candidates produced by the filter scan.
    pub candidates: usize,
    /// Candidates that survived the cluster-level filter and paid for the
    /// grid-level match: position-insensitive ones also survived the
    /// alignment bound and paid for the alignment search.
    pub refined: usize,
}

/// The archive of extracted cluster summaries with their MBRs.
#[derive(Debug, Default)]
pub struct PatternBase {
    patterns: Vec<ArchivedPattern>,
    /// Data-space MBR of each pattern, indexed by pattern id.
    mbrs: Vec<Rect>,
    /// Packed bytes of every archived summary, summed on insert.
    archived_bytes: usize,
}

impl PatternBase {
    /// Empty base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of archived patterns.
    #[inline]
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the base is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Archive a summary; returns its handle. Empty summaries are rejected.
    pub fn insert(&mut self, sgs: Sgs, window: WindowId) -> Option<PatternId> {
        let mbr = sgs.mbr()?;
        let id = PatternId(self.patterns.len() as u64);
        let features = sgs.features();
        self.mbrs.push(mbr);
        self.archived_bytes += packed::archived_bytes(&sgs);
        self.patterns.push(ArchivedPattern {
            id,
            window,
            sgs,
            features,
        });
        Some(id)
    }

    /// Look up an archived pattern.
    pub fn get(&self, id: PatternId) -> Option<&ArchivedPattern> {
        self.patterns.get(id.0 as usize)
    }

    /// Iterate over all archived patterns.
    pub fn iter(&self) -> impl Iterator<Item = &ArchivedPattern> {
        self.patterns.iter()
    }

    /// Total bytes of the archived summaries in packed form (the §8.2
    /// storage accounting).
    pub fn archived_bytes(&self) -> usize {
        self.archived_bytes
    }

    /// Heap bytes the filter scan keeps beside the patterns: the MBR
    /// column (the feature vectors live in the patterns themselves).
    pub fn index_bytes(&self) -> usize {
        self.mbrs.heap_size()
    }

    /// Execute a cluster matching query (§7.2) for `query` under `config`.
    pub fn match_query(&self, query: &Sgs, config: &MatchConfig) -> MatchOutcome {
        let mut outcome = MatchOutcome::default();
        let Some(query_mbr) = query.mbr() else {
            return outcome;
        };
        let query_features = query.features();
        let ranges = feature_ranges(&query_features, &config.weights, config.threshold);
        let zero = vec![0i32; query.dim];
        let mut alignments = AlignmentFilter::default();
        for (pattern, mbr) in self.patterns.iter().zip(&self.mbrs) {
            // ---- Filter phase: the MBR overlaps the query's, or every
            // feature lies in its closed admissible range (an unbounded
            // range admits every value).
            let candidate = if config.position_sensitive {
                mbr.intersects(&query_mbr)
            } else {
                pattern
                    .features
                    .iter()
                    .zip(&ranges)
                    .all(|(x, (lo, hi))| lo <= x && x <= hi)
            };
            if !candidate {
                continue;
            }
            outcome.candidates += 1;

            // ---- Cluster-level filter, the alignment bound, then
            // grid-level refine. A position-sensitive candidate already
            // overlaps the query, so only the features are compared.
            let coarse = feature_distance(&pattern.features, &query_features, &config.weights);
            if coarse > config.threshold {
                continue;
            }
            if !config.position_sensitive
                && !alignments.may_match(
                    query,
                    &query_features,
                    &pattern.sgs,
                    &pattern.features,
                    config,
                )
            {
                continue;
            }
            outcome.refined += 1;
            let distance = if config.position_sensitive {
                grid_level_distance(query, &pattern.sgs, &zero)
            } else {
                best_alignment(query, &pattern.sgs, config.alignment_budget).distance
            };
            if distance <= config.threshold {
                outcome.matches.push(MatchResult {
                    id: pattern.id,
                    distance,
                });
            }
        }
        outcome
            .matches
            .sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        outcome
    }

    /// Brute-force matching (no filter, no alignment bound, every pattern
    /// refined) — the correctness oracle for `match_query` and the
    /// baseline that shows what the filter saves.
    pub fn match_query_exhaustive(&self, query: &Sgs, config: &MatchConfig) -> MatchOutcome {
        let mut outcome = MatchOutcome {
            candidates: self.patterns.len(),
            ..Default::default()
        };
        for pattern in &self.patterns {
            outcome.refined += 1;
            let distance = if config.position_sensitive {
                if sgs_matching::metric::location_distance(query, &pattern.sgs) > 0.0 {
                    continue;
                }
                let zero = vec![0i32; query.dim];
                grid_level_distance(query, &pattern.sgs, &zero)
            } else {
                best_alignment(query, &pattern.sgs, config.alignment_budget).distance
            };
            if distance <= config.threshold {
                outcome.matches.push(MatchResult {
                    id: pattern.id,
                    distance,
                });
            }
        }
        outcome
            .matches
            .sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::{CellCoord, GridGeometry};
    use sgs_matching::cluster_distance;
    use sgs_summarize::{CellStatus, MemberSet, SkeletalCell};

    fn blob(x0: f64, y0: f64, n: usize) -> Sgs {
        let cores: Vec<Box<[f64]>> = (0..n)
            .map(|i| {
                vec![
                    x0 + 0.05 + (i % 6) as f64 * 0.3,
                    y0 + 0.05 + (i / 6) as f64 * 0.3,
                ]
                .into()
            })
            .collect();
        Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0))
    }

    fn base_with(patterns: Vec<Sgs>) -> PatternBase {
        let mut base = PatternBase::new();
        for (i, p) in patterns.into_iter().enumerate() {
            base.insert(p, WindowId(i as u64));
        }
        base
    }

    #[test]
    fn insert_and_get() {
        let mut base = PatternBase::new();
        let id = base.insert(blob(0.0, 0.0, 10), WindowId(3)).unwrap();
        assert_eq!(base.len(), 1);
        let p = base.get(id).unwrap();
        assert_eq!(p.window, WindowId(3));
        assert_eq!(p.features, p.sgs.features());
    }

    #[test]
    fn empty_summary_rejected() {
        let mut base = PatternBase::new();
        let empty = Sgs {
            dim: 2,
            side: 1.0,
            level: 0,
            cells: vec![],
        };
        assert!(base.insert(empty, WindowId(0)).is_none());
    }

    #[test]
    fn position_sensitive_match_finds_overlapping_twin() {
        let side = GridGeometry::basic(2, 1.0).side();
        let base = base_with(vec![
            blob(0.0, 0.0, 12),
            blob(50.0 * side, 0.0, 12), // same shape far away
            blob(0.0, 40.0 * side, 30), // different shape far away
        ]);
        let query = blob(0.0, 0.0, 12);
        let cfg = MatchConfig::equal_weights(true, 0.2);
        let out = base.match_query(&query, &cfg);
        assert_eq!(out.matches.len(), 1);
        assert_eq!(out.matches[0].id, PatternId(0));
        assert!(out.matches[0].distance < 1e-9);
    }

    #[test]
    fn non_position_sensitive_finds_translated_twin() {
        let side = GridGeometry::basic(2, 1.0).side();
        let base = base_with(vec![
            blob(50.0 * side, 17.0 * side, 12), // translated twin
            blob(0.0, 40.0 * side, 30),         // decoy, different size
        ]);
        let query = blob(0.0, 0.0, 12);
        let cfg = MatchConfig::equal_weights(false, 0.2);
        let out = base.match_query(&query, &cfg);
        assert_eq!(out.matches.len(), 1);
        assert_eq!(out.matches[0].id, PatternId(0));
        assert!(out.matches[0].distance < 1e-9);
    }

    #[test]
    fn filter_agrees_with_exhaustive_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let side = GridGeometry::basic(2, 1.0).side();
        let patterns: Vec<Sgs> = (0..60)
            .map(|_| {
                blob(
                    rng.gen_range(0..60) as f64 * side,
                    rng.gen_range(0..60) as f64 * side,
                    rng.gen_range(6..40),
                )
            })
            .collect();
        let base = base_with(patterns);
        let query = blob(12.0 * side, 9.0 * side, 18);
        for ps in [true, false] {
            let cfg = MatchConfig::equal_weights(ps, 0.25);
            let fast = base.match_query(&query, &cfg);
            let slow = base.match_query_exhaustive(&query, &cfg);
            let fast_ids: Vec<PatternId> = fast.matches.iter().map(|m| m.id).collect();
            let slow_ids: Vec<PatternId> = slow.matches.iter().map(|m| m.id).collect();
            assert_eq!(fast_ids, slow_ids, "ps={ps}");
            assert!(fast.candidates <= slow.candidates);
        }
    }

    #[test]
    fn filter_reduces_refine_load() {
        let side = GridGeometry::basic(2, 1.0).side();
        let mut patterns = vec![blob(0.0, 0.0, 12)];
        // Many decoys with very different volume.
        for i in 0..50 {
            patterns.push(blob(i as f64 * 3.0, 30.0 * side, 60));
        }
        let base = base_with(patterns);
        let query = blob(0.0, 0.0, 12);
        let cfg = MatchConfig::equal_weights(false, 0.1);
        let out = base.match_query(&query, &cfg);
        assert!(
            out.refined < base.len() / 2,
            "refined {} of {}",
            out.refined,
            base.len()
        );
        assert_eq!(out.matches[0].id, PatternId(0));
    }

    #[test]
    fn archived_bytes_accounting() {
        let base = base_with(vec![blob(0.0, 0.0, 12), blob(5.0, 5.0, 12)]);
        let expect: usize = base
            .iter()
            .map(|p| sgs_summarize::packed::archived_bytes(&p.sgs))
            .sum();
        assert_eq!(base.archived_bytes(), expect);
        assert!(base.index_bytes() > 0);
    }

    /// What `insert` maintains, recomputed by the scan it replaced.
    fn scanned_bytes(base: &PatternBase) -> usize {
        base.iter().map(|p| packed::archived_bytes(&p.sgs)).sum()
    }

    proptest::proptest! {
        /// After any insert script — and again after `base_of` rebuilds
        /// it, which is how recovery and retention build a base — the
        /// maintained byte total equals a fresh scan of the patterns.
        #[test]
        fn maintained_bytes_and_caps_equal_a_fresh_scan(
            script in proptest::prop::collection::vec((0u8..40, 0u8..40, 0usize..50), 0..40),
        ) {
            let side = GridGeometry::basic(2, 1.0).side();
            let mut base = PatternBase::new();
            for (k, (x, y, n)) in script.iter().enumerate() {
                // n == 0 is an empty summary: rejected, so it must leave
                // the total alone.
                base.insert(blob(*x as f64 * side, *y as f64 * side, *n), WindowId(k as u64));
                proptest::prop_assert_eq!(base.archived_bytes(), scanned_bytes(&base));
            }
            let loaded =
                crate::durable::base_of(base.iter().map(|p| (p.sgs.clone(), p.window)).collect());
            proptest::prop_assert_eq!(loaded.len(), base.len());
            proptest::prop_assert_eq!(loaded.archived_bytes(), scanned_bytes(&loaded));
        }

        /// The alignment bound removes no match. Over archives of
        /// translated, trimmed variants of a few generated shapes,
        /// `match_query` answers exactly what the exhaustive scan answers
        /// among the patterns the cluster-level filter keeps, down to the
        /// distance bits.
        #[test]
        fn pruning_removes_no_match(
            shapes in proptest::prop::collection::vec(
                proptest::prop::collection::vec((0i32..5, 0i32..4, 1u32..5, 0u8..4), 1..12),
                3,
            ),
            archive in proptest::prop::collection::vec((0usize..3, -6i32..7, -6i32..7, 0usize..4), 1..40),
            query in (0usize..3, 0usize..4),
            threshold in 0.05f64..0.6,
        ) {
            let variant = |shape: usize, trim: usize, at: (i32, i32)| {
                let script = &shapes[shape];
                scripted(&script[trim.min(script.len() - 1)..], at)
            };
            let base = base_with(
                archive.iter().map(|&(shape, x, y, trim)| variant(shape, trim, (x, y))).collect(),
            );
            let query = variant(query.0, query.1, (0, 0));
            for ps in [true, false] {
                let cfg = MatchConfig::equal_weights(ps, threshold);
                let mut expect = base.match_query_exhaustive(&query, &cfg).matches;
                expect.retain(|m| {
                    cluster_distance(&base.get(m.id).unwrap().sgs, &query, &cfg) <= threshold
                });
                let got = base.match_query(&query, &cfg).matches;
                proptest::prop_assert_eq!(answer(&got), answer(&expect), "ps={}", ps);
            }
        }
    }

    /// A 2-d summary from `(x, y, population, kind)` cells translated by
    /// `at`: kind 0 is an edge cell, `k ≥ 1` a core cell linked to the
    /// next `k − 1` cells in canonical order. Cells on one coordinate
    /// collapse to the first.
    fn scripted(script: &[(i32, i32, u32, u8)], at: (i32, i32)) -> Sgs {
        let mut cells: Vec<(SkeletalCell, u8)> = script
            .iter()
            .map(|&(x, y, population, kind)| {
                let cell = SkeletalCell {
                    coord: CellCoord::new(vec![x + at.0, y + at.1]),
                    population,
                    status: if kind == 0 {
                        CellStatus::Edge
                    } else {
                        CellStatus::Core
                    },
                    connections: Vec::new(),
                };
                (cell, kind)
            })
            .collect();
        cells.sort_by(|p, q| p.0.coord.cmp(&q.0.coord));
        cells.dedup_by(|p, q| p.0.coord == q.0.coord);
        let n = cells.len();
        for (i, (cell, kind)) in cells.iter_mut().enumerate() {
            if cell.status == CellStatus::Core {
                let links = usize::from(*kind - 1).min(n - 1);
                cell.connections = (1..=links).map(|k| ((i + k) % n) as u32).collect();
                cell.connections.sort_unstable();
            }
        }
        Sgs {
            dim: 2,
            side: 1.0,
            level: 0,
            cells: cells.into_iter().map(|(cell, _)| cell).collect(),
        }
    }

    /// Ids and distance bits of an answer.
    fn answer(matches: &[MatchResult]) -> Vec<(PatternId, u64)> {
        matches
            .iter()
            .map(|m| (m.id, m.distance.to_bits()))
            .collect()
    }
}
