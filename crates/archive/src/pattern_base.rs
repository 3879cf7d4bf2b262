//! The Pattern Base (§7.1) and the cluster matching query execution (§7.2).
//!
//! The base keeps **one record per distinct summary**. A cluster the
//! output stage carries over K windows is archived as K patterns (K ids,
//! K windows) that share one [`Cells`] allocation, and they join one
//! record. A record holds the summary's 4-d feature vector (volume,
//! core-cell count, avg density, avg connectivity), its dimensionality,
//! and where its MATCH [`Entry`] starts in one flat arena of every
//! record's entry: the summary's cell-space box (the locational feature,
//! scaled by the cell side on use), then its per-column cell counts. The
//! members hang off the record as a chain in id order: the record keeps
//! the first and the last, each pattern the next, so a record of one
//! pattern allocates nothing of its own.
//!
//! `insert` joins a pattern to a record only when its cells are the
//! allocation of a member the base holds ([`Cells::ptr_eq`]) and its
//! dimensionality, side bits and level are equal; then every feature,
//! entry word and distance of the two is equal too. The record is looked
//! up by the cells' address; the grid check stays because [`Sgs`]'s
//! fields are public, so one allocation may come with another grid.
//! Everything else opens a record, so summaries that are equal but built
//! apart stay apart, which costs an evaluation, never an answer. The base
//! is append-only: no pattern, record or entry changes after its insert.
//!
//! A matching query runs **filter-and-refine** over the records, each
//! once, then reports every member with the one distance. The filter
//! phase is one scan: a position-sensitive MATCH keeps the records whose
//! MBR overlaps the query's; a position-insensitive one keeps those whose
//! features all lie in the per-dimension admissible ranges of §7.2. The
//! scan's cost is in proportion to the distinct summaries, whatever the
//! threshold (DESIGN.md §3 item 2). A record of another dimensionality is
//! no match. The cluster-level feature metric (on the stored feature
//! vectors) discards most candidates, and only the survivors pay for the
//! grid-cell-level match. A survivor first meets [`AlignmentFilter`]: a
//! sound lower bound on the grid-level distance. Position-sensitive, it
//! checks the cell counts alone. Position-insensitive, it checks the
//! counts, then the projection bound from the per-column cell counts of
//! the two entries (the query's written once per MATCH), then the
//! histogram of cell offsets, and only then does the anytime alignment
//! search run; no cell of a candidate the counts or the projection bound
//! prune is read. A candidate whose bound exceeds the threshold cannot
//! match at any shift, so it skips the search and the answer is the one
//! the search would give. [`MatchOutcome`] reports how many candidates
//! reached each phase — the statistic behind the "only 6 % needed the
//! grid-level match" claim of §8.2. Its `candidates` and `refined` count
//! patterns, a record adding its member count, so they read as they did
//! when every pattern was scanned on its own; `evaluated` counts the
//! records refined.

use sgs_core::{HeapSize, WindowId};
use sgs_index::FxHashMap;
use sgs_matching::bound::Entry;
use sgs_matching::metric::feature_distance;
use sgs_matching::{
    best_alignment, feature_ranges, grid_level_distance, AlignmentFilter, MatchConfig,
    DEFAULT_ALIGNMENT_BUDGET,
};
use sgs_summarize::{packed, Cells, Sgs};

/// Handle of an archived pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternId(pub u64);

/// The end of a record's member chain.
const NONE: u32 = u32::MAX;

/// One archived cluster summary.
#[derive(Clone, Debug)]
pub struct ArchivedPattern {
    /// Stable handle.
    pub id: PatternId,
    /// Window the cluster was extracted from.
    pub window: WindowId,
    /// The archived summary (basic or coarsened resolution).
    pub sgs: Sgs,
    /// The next member of this pattern's record, or [`NONE`].
    next: u32,
}

/// One distinct summary: what MATCH reads of it, and its member patterns.
#[derive(Clone, Debug)]
struct Record {
    /// Feature vector (volume, cores, density, connectivity).
    features: [f64; 4],
    /// Where the record's [`Entry`] starts in the arena; it ends where the
    /// next record's starts.
    start: usize,
    /// Dimensionality of the summary ([`Record::dim_of`]).
    dim: u32,
    /// First and last member, in id order.
    first: u32,
    last: u32,
    /// Number of members, never 0.
    members: u32,
}

impl Record {
    /// The `dim` field of a record of `sgs`.
    fn dim_of(sgs: &Sgs) -> u32 {
        u32::try_from(sgs.dim).expect("a summary has fewer than 2^32 dimensions")
    }
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
    /// Candidate patterns produced by the filter scan.
    pub candidates: usize,
    /// Candidate patterns that survived the cluster-level filter and paid
    /// for the grid-level match: position-insensitive ones also survived
    /// the alignment bound and paid for the alignment search.
    pub refined: usize,
    /// Grid-level matches computed: one per distinct summary refined,
    /// shared by every pattern that holds it.
    pub evaluated: usize,
}

/// The archive of extracted cluster summaries with their MATCH entries.
#[derive(Debug, Default)]
pub struct PatternBase {
    patterns: Vec<ArchivedPattern>,
    records: Vec<Record>,
    /// Every record's [`Entry`], end to end in record order.
    entries: Vec<u32>,
    /// The record a cells allocation may join, by its address
    /// ([`Cells::addr`]).
    by_cells: FxHashMap<usize, u32>,
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
    /// A summary whose cells a held pattern shares, on the same grid,
    /// joins that pattern's record; any other opens a record.
    pub fn insert(&mut self, sgs: Sgs, window: WindowId) -> Option<PatternId> {
        if sgs.cells.is_empty() {
            return None;
        }
        let index = u32::try_from(self.patterns.len())
            .ok()
            .filter(|&i| i != NONE)
            .expect("a pattern base holds fewer than u32::MAX patterns");
        self.archived_bytes += packed::archived_bytes(&sgs);
        let joined = self.by_cells.get(&sgs.cells.addr()).copied().filter(|&r| {
            let held = &self.patterns[self.records[r as usize].first as usize].sgs;
            Cells::ptr_eq(&held.cells, &sgs.cells)
                && held.dim == sgs.dim
                && held.side.to_bits() == sgs.side.to_bits()
                && held.level == sgs.level
        });
        match joined {
            Some(r) => {
                let record = &mut self.records[r as usize];
                self.patterns[record.last as usize].next = index;
                record.last = index;
                record.members += 1;
            }
            None => {
                let r = self.open_record(&sgs, index);
                self.by_cells.insert(sgs.cells.addr(), r);
            }
        }
        self.patterns.push(ArchivedPattern {
            id: PatternId(u64::from(index)),
            window,
            sgs,
            next: NONE,
        });
        Some(PatternId(u64::from(index)))
    }

    /// Open a record of `sgs` whose one member is the pattern at `index`;
    /// returns its index.
    fn open_record(&mut self, sgs: &Sgs, index: u32) -> u32 {
        let r = self.records.len() as u32;
        self.records.push(Record {
            features: sgs.features(),
            start: self.entries.len(),
            dim: Record::dim_of(sgs),
            first: index,
            last: index,
            members: 1,
        });
        Entry::write(sgs, &mut self.entries);
        r
    }

    /// Where the entry of the record at index `r` ends.
    fn end_of(&self, r: usize) -> usize {
        self.records
            .get(r + 1)
            .map_or(self.entries.len(), |next| next.start)
    }

    /// The [`Entry`] words of the record at index `r`.
    fn entry(&self, r: usize) -> &[u32] {
        &self.entries[self.records[r].start..self.end_of(r)]
    }

    /// The member patterns of `record`, in id order.
    fn members<'a>(&'a self, record: &Record) -> impl Iterator<Item = &'a ArchivedPattern> {
        let first = &self.patterns[record.first as usize];
        std::iter::successors(Some(first), |p| {
            (p.next != NONE).then(|| &self.patterns[p.next as usize])
        })
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
    /// storage accounting), one count per pattern however many share a
    /// summary.
    pub fn archived_bytes(&self) -> usize {
        self.archived_bytes
    }

    /// Heap bytes the base keeps beside the patterns to scan and group
    /// them: the records, the entry arena and the address map.
    pub fn index_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<Record>()
            + self.entries.heap_size()
            + self.by_cells.capacity() * (std::mem::size_of::<(usize, u32)>() + 1)
    }

    /// Heap bytes the base holds: the patterns, what
    /// [`index_bytes`](Self::index_bytes) counts, and each record's cells
    /// once. A summary kept in several windows is one record (a cloned
    /// [`Sgs`] shares its cells), so this is below the sum of the
    /// patterns' own [`HeapSize`]s wherever the base holds a summary twice.
    pub fn heap_bytes(&self) -> usize {
        let cells: usize = (self.records.iter())
            .map(|r| self.patterns[r.first as usize].sgs.heap_size())
            .sum();
        self.patterns.capacity() * std::mem::size_of::<ArchivedPattern>()
            + self.index_bytes()
            + cells
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
        let mut alignments = AlignmentFilter::new(query);
        for (r, record) in self.records.iter().enumerate() {
            // A summary of another dimensionality is no match.
            if record.dim as usize != query.dim {
                continue;
            }
            let sgs = &self.patterns[record.first as usize].sgs;
            let entry = self.entry(r);
            // ---- Filter phase: the MBR overlaps the query's, or every
            // feature lies in its closed admissible range (an unbounded
            // range admits every value).
            let candidate = if config.position_sensitive {
                Entry::new(sgs, entry).overlaps(&query_mbr)
            } else {
                (record.features.iter())
                    .zip(&ranges)
                    .all(|(x, (lo, hi))| lo <= x && x <= hi)
            };
            if !candidate {
                continue;
            }
            let members = record.members as usize;
            outcome.candidates += members;

            // ---- Cluster-level filter, the alignment bound, then
            // grid-level refine. A position-sensitive candidate already
            // overlaps the query, so only the features are compared, and
            // its one alignment is bounded by the cell counts alone.
            let coarse = feature_distance(&record.features, &query_features, &config.weights);
            if coarse > config.threshold {
                continue;
            }
            let bounded_out = if config.position_sensitive {
                alignments.counts_exclude(&record.features, config)
            } else {
                !alignments.may_match_stored(sgs, entry, &record.features, config)
            };
            if bounded_out {
                continue;
            }
            outcome.refined += members;
            outcome.evaluated += 1;
            let distance = if config.position_sensitive {
                grid_level_distance(query, sgs, &zero)
            } else {
                best_alignment(query, sgs, DEFAULT_ALIGNMENT_BUDGET).distance
            };
            if distance <= config.threshold {
                let found = self
                    .members(record)
                    .map(|p| MatchResult { id: p.id, distance });
                outcome.matches.extend(found);
            }
        }
        outcome
            .matches
            .sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        outcome
    }

    /// Brute-force matching (no filter, no alignment bound, no sharing:
    /// every pattern refined on its own) — the correctness oracle for
    /// `match_query` and the baseline that shows what the filter saves.
    pub fn match_query_exhaustive(&self, query: &Sgs, config: &MatchConfig) -> MatchOutcome {
        let mut outcome = MatchOutcome {
            candidates: self.patterns.len(),
            ..Default::default()
        };
        for pattern in &self.patterns {
            // A summary of another dimensionality is no match.
            if pattern.sgs.dim != query.dim {
                continue;
            }
            outcome.refined += 1;
            outcome.evaluated += 1;
            let distance = if config.position_sensitive {
                if sgs_matching::metric::location_distance(query, &pattern.sgs) > 0.0 {
                    continue;
                }
                let zero = vec![0i32; query.dim];
                grid_level_distance(query, &pattern.sgs, &zero)
            } else {
                best_alignment(query, &pattern.sgs, DEFAULT_ALIGNMENT_BUDGET).distance
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
    use sgs_core::GridGeometry;
    use sgs_matching::cluster_distance;
    use sgs_summarize::{CellStatus, Cells, CellsBuilder, MemberSet};

    /// A copy of `cells` in blocks of its own.
    fn deep_copy(cells: &Cells) -> Cells {
        let mut list = CellsBuilder::default();
        for c in cells {
            let connections = c.connections.iter().copied();
            list.push(c.coord, c.population, c.status, connections);
        }
        list.build()
    }

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
        assert_eq!(features_of(&base, 0), p.sgs.features());
    }

    #[test]
    fn a_record_is_56_bytes() {
        // Four features, the arena offset, then four `u32`s: no padding.
        assert_eq!(std::mem::size_of::<Record>(), 56);
    }

    #[test]
    fn a_pattern_is_80_bytes() {
        // Id and window, the summary's header and its two block
        // pointers, then the next member and 4 bytes of padding: a list's
        // dimensionality lives in its word block, not here.
        assert_eq!(std::mem::size_of::<ArchivedPattern>(), 80);
    }

    #[test]
    fn heap_bytes_count_a_shared_cells_allocation_once() {
        let kept = blob(0.0, 0.0, 10);
        let mut base = PatternBase::new();
        for w in 0..3 {
            base.insert(kept.clone(), WindowId(w));
        }
        // Equal, but built apart: a second allocation.
        base.insert(blob(0.0, 0.0, 10), WindowId(3));
        assert_eq!(base.records.len(), 2);
        let patterns = base.patterns.capacity() * std::mem::size_of::<ArchivedPattern>();
        assert_eq!(
            base.heap_bytes(),
            patterns + base.index_bytes() + 2 * kept.heap_size()
        );
    }

    #[test]
    fn a_carried_summary_is_evaluated_once_and_answered_for_every_window() {
        let kept = blob(0.0, 0.0, 12);
        let mut base = PatternBase::new();
        for w in 0..3 {
            base.insert(kept.clone(), WindowId(w));
        }
        base.insert(blob(0.0, 0.0, 12), WindowId(3));
        for ps in [true, false] {
            let out = base.match_query(&kept, &MatchConfig::equal_weights(ps, 0.2));
            let ids: Vec<u64> = out.matches.iter().map(|m| m.id.0).collect();
            assert_eq!(ids, [0, 1, 2, 3], "ps={ps}");
            assert_eq!(
                (out.candidates, out.refined, out.evaluated),
                (4, 4, 2),
                "ps={ps}"
            );
        }
    }

    #[test]
    fn a_pattern_of_another_dimensionality_is_no_match() {
        let geometry = GridGeometry::basic(3, 1.0);
        let cube = |x0: f64, n: usize| {
            let cores: Vec<Box<[f64]>> = (0..n)
                .map(|i| vec![x0 + (i % 4) as f64 * 0.3, (i / 4) as f64 * 0.3, 0.1].into())
                .collect();
            Sgs::from_members(&MemberSet::new(cores, vec![]), &geometry)
        };
        let side = GridGeometry::basic(2, 1.0).side();
        let flat: Vec<Sgs> = (0..6)
            .map(|i| blob(i as f64 * 7.0 * side, 0.0, 12))
            .collect();
        // The 3-d patterns sit between the 2-d ones, as wide as them and
        // at the same place, so only the dimensionality tells them apart.
        let mut mixed = PatternBase::new();
        let mut ids = Vec::new();
        for (i, sgs) in flat.iter().enumerate() {
            ids.push(mixed.insert(sgs.clone(), WindowId(i as u64)).unwrap());
            mixed.insert(cube(i as f64 * 7.0 * side, 12), WindowId(i as u64));
        }
        let alone = base_with(flat.clone());
        for ps in [true, false] {
            let cfg = MatchConfig::equal_weights(ps, 0.5);
            for query in [&flat[0], &flat[3], &blob(0.0, 0.0, 20)] {
                let got = mixed.match_query(query, &cfg);
                let expect = alone.match_query(query, &cfg);
                assert!(!expect.matches.is_empty(), "ps={ps}");
                let expect: Vec<MatchResult> = (expect.matches.into_iter())
                    .map(|m| MatchResult {
                        id: ids[m.id.0 as usize],
                        ..m
                    })
                    .collect();
                assert_eq!(got.matches, expect, "ps={ps}");
                let oracle = mixed.match_query_exhaustive(query, &cfg);
                assert_eq!(oracle.matches, got.matches, "ps={ps}");
            }
            // A 3-d query over the same base answers too.
            let solid = cube(0.0, 12);
            let out = mixed.match_query(&solid, &cfg);
            assert!(out.matches.iter().all(|m| m.id.0 % 2 == 1), "ps={ps}");
            let oracle = mixed.match_query_exhaustive(&solid, &cfg);
            assert_eq!(oracle.matches, out.matches, "ps={ps}");
        }
    }

    #[test]
    fn a_shared_allocation_at_another_level_opens_its_own_record() {
        let kept = blob(0.0, 0.0, 12);
        let relabelled = Sgs {
            level: 1,
            ..kept.clone()
        };
        assert!(Cells::ptr_eq(&kept.cells, &relabelled.cells));
        // The clone at level 1 opens a record; a clone of it joins that.
        let base = base_with(vec![kept, relabelled.clone(), relabelled]);
        let records: Vec<usize> = (0..3).map(|i| record_of(&base, i)).collect();
        assert_eq!(records, [0, 1, 1]);
        assert_records_hold_their_members(&base);
    }

    #[test]
    fn empty_summary_rejected() {
        let mut base = PatternBase::new();
        let empty = Sgs {
            dim: 2,
            side: 1.0,
            level: 0,
            cells: Default::default(),
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

    #[test]
    fn index_bytes_count_the_entries_and_their_starts() {
        // An L of three cells: each dimension spans two columns, counted
        // [2, 1]. A pair at both ends of `i32`: dimension 0 spans 2³²
        // columns, over the cap of 4·2 + 16, so only dimension 1's one
        // column is counted.
        let l = scripted(&[(0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 1, 1)], (0, 0));
        let wide = scripted(&[(i32::MIN, 0, 1, 0), (i32::MAX, 0, 1, 0)], (0, 0));
        let base = base_with(vec![l, wide]);
        assert_eq!(base.entry(0), &[0, 1, 0, 1, 2, 1, 2, 1]);
        assert_eq!(base.entry(1), &[i32::MIN as u32, i32::MAX as u32, 0, 0, 2]);
        assert_eq!(
            base.records.iter().map(|r| r.start).collect::<Vec<_>>(),
            [0, 8]
        );
        assert_eq!(
            base.index_bytes(),
            std::mem::size_of::<Record>() * base.records.capacity()
                + 4 * base.entries.capacity()
                + (std::mem::size_of::<(usize, u32)>() + 1) * base.by_cells.capacity()
        );
    }

    /// A fresh base of `base`'s patterns and windows, inserted in order.
    fn base_of(base: &PatternBase) -> PatternBase {
        let mut fresh = PatternBase::new();
        for p in base.iter() {
            fresh.insert(p.sgs.clone(), p.window);
        }
        fresh
    }

    /// What `insert` maintains, recomputed by the scan it replaced.
    fn scanned_bytes(base: &PatternBase) -> usize {
        base.iter().map(|p| packed::archived_bytes(&p.sgs)).sum()
    }

    /// The index of the record whose chain holds the pattern at index `i`.
    fn record_of(base: &PatternBase, i: usize) -> usize {
        let holds = |record: &Record| base.members(record).any(|p| p.id.0 == i as u64);
        base.records.iter().position(holds).unwrap()
    }

    /// The entry of the pattern at index `i`: its record's.
    fn entry_of(base: &PatternBase, i: usize) -> &[u32] {
        base.entry(record_of(base, i))
    }

    /// The features of the pattern at index `i`: its record's.
    fn features_of(base: &PatternBase, i: usize) -> [f64; 4] {
        base.records[record_of(base, i)].features
    }

    /// An unshared base: a deep copy of every pattern of `base`, in order.
    fn unshared(base: &PatternBase) -> PatternBase {
        let mut copy = PatternBase::new();
        for p in base.iter() {
            let cells = deep_copy(&p.sgs.cells);
            copy.insert(
                Sgs {
                    cells,
                    ..p.sgs.clone()
                },
                p.window,
            );
        }
        copy
    }

    /// Every pattern is in exactly one record's chain; a chain lists its
    /// members in id order, and they hold one allocation on one grid; the
    /// arena's entries follow the records end to end; no record is empty.
    fn assert_records_hold_their_members(base: &PatternBase) {
        let mut seen = Vec::new();
        for (r, record) in base.records.iter().enumerate() {
            let members: Vec<&ArchivedPattern> = base.members(record).collect();
            assert_eq!(members.len(), record.members as usize);
            assert_eq!(members.last().unwrap().id.0, u64::from(record.last));
            assert!(members.windows(2).all(|w| w[0].id < w[1].id));
            let first = &members[0].sgs;
            for p in &members {
                assert!(Cells::ptr_eq(&p.sgs.cells, &first.cells));
                assert_eq!(
                    (p.sgs.dim, p.sgs.side.to_bits(), p.sgs.level),
                    (first.dim, first.side.to_bits(), first.level)
                );
            }
            assert_eq!(record.features, first.features());
            assert_eq!(record.dim as usize, first.dim);
            let mut words = Vec::new();
            Entry::write(first, &mut words);
            assert_eq!(base.entry(r), &words[..]);
            seen.extend(members.iter().map(|p| p.id.0));
        }
        seen.sort_unstable();
        assert!(seen.into_iter().eq(0..base.len() as u64));
        assert_eq!(
            base.records
                .last()
                .map_or(0, |r| r.start + base.entry(base.records.len() - 1).len()),
            base.entries.len()
        );
    }

    proptest::proptest! {
        /// After every step of a script of inserts and carried repeats (a
        /// clone of a held pattern), the maintained byte total equals a
        /// fresh scan of the patterns, and the byte total, each pattern's
        /// MATCH entry and features and the store image equal those of a
        /// fresh rebuild (`base_of`).
        #[test]
        fn maintained_bytes_and_caps_equal_a_fresh_scan(
            script in proptest::prop::collection::vec((0u8..3, 0u8..40, 0u8..40, 0usize..50), 0..40),
        ) {
            let side = GridGeometry::basic(2, 1.0).side();
            let mut base = PatternBase::new();
            for (k, &(op, x, y, n)) in script.iter().enumerate() {
                let held = (!base.is_empty()).then(|| PatternId(x as u64 % base.len() as u64));
                match (op, held) {
                    (1, Some(id)) => {
                        let carried = base.get(id).unwrap().sgs.clone();
                        base.insert(carried, WindowId(k as u64));
                    }
                    _ => {
                        // n == 0 is an empty summary: rejected, so it must
                        // leave the total alone.
                        base.insert(blob(x as f64 * side, y as f64 * side, n), WindowId(k as u64));
                    }
                }
                proptest::prop_assert_eq!(base.archived_bytes(), scanned_bytes(&base));
                let rebuilt = base_of(&base);
                proptest::prop_assert_eq!(rebuilt.archived_bytes(), base.archived_bytes());
                proptest::prop_assert!((0..base.len()).all(|i| entry_of(&rebuilt, i) == entry_of(&base, i)));
                proptest::prop_assert!((0..base.len()).all(|i| features_of(&rebuilt, i) == features_of(&base, i)));
                assert_records_hold_their_members(&base);
                proptest::prop_assert_eq!(
                    crate::durable::store_image(&rebuilt, 0),
                    crate::durable::store_image(&base, 0)
                );
            }
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

        /// Grouping repeats changes no answer and no count. A base of
        /// fresh summaries, carried repeats (clones), equal summaries
        /// built apart and clones on another grid side answers
        /// every MATCH as an unshared base of deep copies does, down to
        /// the distance bits, with equal `candidates` and `refined`.
        #[test]
        fn records_answer_as_an_unshared_base(
            script in proptest::prop::collection::vec((0u8..5, 0u8..30, 0u8..30, 1usize..40), 1..40),
            queries in proptest::prop::collection::vec((0u8..30, 0u8..30, 1usize..40), 1..4),
            threshold in 0.05f64..0.6,
        ) {
            let side = GridGeometry::basic(2, 1.0).side();
            let mut base = PatternBase::new();
            for (k, &(op, x, y, n)) in script.iter().enumerate() {
                let window = WindowId(k as u64);
                let held = (!base.is_empty())
                    .then(|| base.get(PatternId(x as u64 % base.len() as u64)).unwrap().sgs.clone());
                match (op, held) {
                    (1 | 2, Some(sgs)) => {
                        base.insert(sgs, window);
                    }
                    (3, Some(sgs)) => {
                        let cells = deep_copy(&sgs.cells);
                        base.insert(Sgs { cells, ..sgs }, window);
                    }
                    (4, Some(sgs)) => {
                        base.insert(Sgs { side: sgs.side * 2.0, ..sgs }, window);
                    }
                    _ => {
                        base.insert(blob(x as f64 * side, y as f64 * side, n), window);
                    }
                }
            }
            assert_records_hold_their_members(&base);
            let copy = unshared(&base);
            proptest::prop_assert_eq!(copy.records.len(), copy.len());
            for &(x, y, n) in &queries {
                let query = blob(x as f64 * side, y as f64 * side, n);
                for ps in [true, false] {
                    let cfg = MatchConfig::equal_weights(ps, threshold);
                    let got = base.match_query(&query, &cfg);
                    let expect = copy.match_query(&query, &cfg);
                    proptest::prop_assert_eq!(answer(&got.matches), answer(&expect.matches), "ps={}", ps);
                    proptest::prop_assert_eq!(got.candidates, expect.candidates, "ps={}", ps);
                    proptest::prop_assert_eq!(got.refined, expect.refined, "ps={}", ps);
                    proptest::prop_assert_eq!(expect.evaluated, expect.refined, "ps={}", ps);
                    proptest::prop_assert!(got.evaluated <= got.refined, "ps={}", ps);
                }
            }
        }
    }

    proptest::proptest! {
        /// MATCH and `coarsen` are total over what a wire `Bind` can
        /// carry: summaries `Sgs::validate` accepts, with coordinates at
        /// the ends of `i32` (-4 and -3 stand for the two least, 3 and 4
        /// for the two greatest), cell populations summing to near or
        /// exactly `u32::MAX`, sides from 1e-300 to 1e300, levels past 0
        /// and dimensionalities mixed in one base. In a debug build an
        /// overflow panics.
        #[test]
        fn extreme_summaries_match_and_coarsen_without_panic(
            summaries in proptest::prop::collection::vec(
                (
                    1usize..7,
                    proptest::prop::collection::vec(
                        (proptest::prop::collection::vec(-4i32..5, 6), 1u32..4, 0u8..5),
                        1..10,
                    ),
                    0u8..3,
                    (-300.0f64..300.0, 0u8..5),
                    0u8..3,
                ),
                1..8,
            ),
        ) {
            let edge = |k: i32| match k {
                -4 | -3 => i32::MIN + (k + 4),
                3 | 4 => i32::MAX - (4 - k),
                k => k,
            };
            let mut base = PatternBase::new();
            let mut queries = Vec::new();
            for (k, (dim, cells, heavy, (exp, level), keep)) in summaries.into_iter().enumerate() {
                let n = cells.len() as u32;
                let cells = cells.into_iter().enumerate().map(|(i, (coord, population, kind))| {
                    let population = match (heavy, i) {
                        (1, _) => u32::MAX / n,
                        (2, 0) => u32::MAX - (n - 1),
                        (2, _) => 1,
                        _ => population,
                    };
                    (coord.into_iter().map(edge).collect(), population, kind)
                });
                let sgs = Sgs { side: 10f64.powf(exp), level, ..summary_of(dim, cells) };
                proptest::prop_assert_eq!(sgs.validate(), Ok(()));
                if keep > 0 {
                    base.insert(sgs.clone(), WindowId(k as u64));
                }
                queries.push(sgs);
            }
            for query in &queries {
                for theta in [2, 3] {
                    let coarse = sgs_summarize::coarsen(query, theta);
                    proptest::prop_assert_eq!(coarse.population(), query.population());
                }
                for threshold in [0.1, 1.0] {
                    for ps in [true, false] {
                        let cfg = MatchConfig::equal_weights(ps, threshold);
                        let got = base.match_query(query, &cfg);
                        let all = base.match_query_exhaustive(query, &cfg);
                        proptest::prop_assert!(got.matches.len() <= all.matches.len(), "ps={}", ps);
                    }
                }
            }
        }
    }

    /// A 2-d summary from `(x, y, population, kind)` cells translated by
    /// `at`, as [`summary_of`] builds it.
    fn scripted(script: &[(i32, i32, u32, u8)], at: (i32, i32)) -> Sgs {
        let cells = script
            .iter()
            .map(|&(x, y, population, kind)| (vec![x + at.0, y + at.1], population, kind));
        summary_of(2, cells)
    }

    /// A summary of side 1 at level 0 from `(coordinates, population,
    /// kind)` cells, each cut to its first `dim` coordinates: kind 0 is
    /// an edge cell, `k ≥ 1` a core cell linked to the next `k − 1` cells
    /// in canonical order. Cells on one coordinate collapse to the first.
    fn summary_of(dim: usize, script: impl IntoIterator<Item = (Vec<i32>, u32, u8)>) -> Sgs {
        let mut cells: Vec<(Vec<i32>, u32, u8)> = script
            .into_iter()
            .map(|(mut coord, population, kind)| {
                coord.truncate(dim);
                (coord, population, kind)
            })
            .collect();
        cells.sort_by(|p, q| p.0.cmp(&q.0));
        cells.dedup_by(|p, q| p.0 == q.0);
        let n = cells.len();
        let mut list = CellsBuilder::default();
        for (i, (coord, population, kind)) in cells.into_iter().enumerate() {
            if kind == 0 {
                list.push(&coord, population, CellStatus::Edge, []);
            } else {
                let links = usize::from(kind - 1).min(n - 1);
                let connections = (1..=links).map(|k| ((i + k) % n) as u32);
                list.push(&coord, population, CellStatus::Core, connections);
            }
        }
        Sgs {
            dim,
            side: 1.0,
            level: 0,
            cells: list.build(),
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
