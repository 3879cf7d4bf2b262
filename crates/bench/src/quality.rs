//! The matching-quality study (Fig. 9), with ground truth replacing the
//! paper's 20-analyst panel.
//!
//! The paper asked analysts to rate the top-3 matches returned by each
//! summarization format. We substitute an objective equivalent: the
//! archive is seeded, for every query cluster, with *known-similar*
//! variants (lightly jittered copies — "very similar" — and moderately
//! deformed copies — "similar") among shape-diverse decoys engineered to
//! fool weaker summaries (rings and discs with identical CRD statistics,
//! equal-population shapes, …). The **similar rate** of a format is the
//! fraction of its top-3 retrievals that are ground-truth variants of the
//! query — exactly what the human panel was estimating visually.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sgs_core::GridGeometry;
use sgs_summarize::MemberSet;

/// A shape family for the study — diverse enough that shape-blind
/// summaries confuse members of different families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Filled disc.
    Disc,
    /// Ring (same centroid/radius as a disc — the CRD killer).
    Ring,
    /// Long thin strip.
    Strip,
    /// L-shaped corner.
    Corner,
    /// Two lobes joined by a thin bridge (connectivity matters).
    Dumbbell,
}

/// All families.
pub const SHAPES: [Shape; 5] = [
    Shape::Disc,
    Shape::Ring,
    Shape::Strip,
    Shape::Corner,
    Shape::Dumbbell,
];

impl Shape {
    /// Generate a member set of roughly `n` core points centered at
    /// `(cx, cy)` with scale `s`.
    pub fn generate(self, cx: f64, cy: f64, s: f64, n: usize, rng: &mut StdRng) -> MemberSet {
        let mut cores: Vec<Box<[f64]>> = Vec::with_capacity(n);
        for i in 0..n {
            let u = i as f64 / n as f64;
            let (x, y) = match self {
                Shape::Disc => {
                    let r = s * rng.gen_range(0.0f64..1.0).sqrt();
                    let a = rng.gen_range(0.0..std::f64::consts::TAU);
                    (r * a.cos(), r * a.sin())
                }
                Shape::Ring => {
                    let r = s * rng.gen_range(0.85..1.0);
                    let a = rng.gen_range(0.0..std::f64::consts::TAU);
                    (r * a.cos(), r * a.sin())
                }
                Shape::Strip => (s * (4.0 * u - 2.0), s * 0.25 * rng.gen_range(-1.0..1.0)),
                Shape::Corner => {
                    if rng.gen_bool(0.5) {
                        (s * (2.0 * u - 1.0), -s)
                    } else {
                        (-s, s * (2.0 * u - 1.0))
                    }
                }
                Shape::Dumbbell => {
                    let lobe = if u < 0.45 {
                        -1.5
                    } else if u > 0.55 {
                        1.5
                    } else {
                        0.0
                    };
                    if lobe == 0.0 {
                        (
                            s * rng.gen_range(-1.5..1.5),
                            s * 0.1 * rng.gen_range(-1.0..1.0),
                        )
                    } else {
                        let r = 0.5 * s * rng.gen_range(0.0f64..1.0).sqrt();
                        let a = rng.gen_range(0.0..std::f64::consts::TAU);
                        (s * lobe + r * a.cos(), r * a.sin())
                    }
                }
            };
            cores.push(vec![cx + x, cy + y].into());
        }
        MemberSet::new(cores, vec![])
    }
}

/// Ground-truth relation of an archived cluster to a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// Lightly jittered copy of the query ("very similar").
    VerySimilar,
    /// Moderately deformed copy ("similar").
    Similar,
    /// Unrelated decoy.
    Decoy,
}

/// One archived study cluster with its ground truth.
pub struct StudyEntry {
    /// The cluster's members.
    pub members: MemberSet,
    /// Which query (index) it is a variant of, if any.
    pub query_of: Option<usize>,
    /// Ground-truth relation.
    pub relation: Relation,
}

/// Jitter a member set: positional noise `eps`, dropping each member with
/// probability `drop`.
pub fn perturb(members: &MemberSet, eps: f64, drop: f64, rng: &mut StdRng) -> MemberSet {
    let map = |v: &Vec<Box<[f64]>>, rng: &mut StdRng| -> Vec<Box<[f64]>> {
        let mut out = Vec::with_capacity(v.len());
        for p in v {
            if rng.gen_range(0.0..1.0) < drop {
                continue;
            }
            out.push(
                p.iter()
                    .map(|x| x + rng.gen_range(-eps..eps))
                    .collect::<Box<[f64]>>(),
            );
        }
        out
    };
    MemberSet::new(map(&members.cores, rng), map(&members.edges, rng))
}

/// The generated study: queries plus an archive with ground truth.
pub struct Study {
    /// Query clusters (one per shape family by default).
    pub queries: Vec<MemberSet>,
    /// Archived clusters with their relations.
    pub archive: Vec<StudyEntry>,
    /// Grid geometry used for all SGS construction in the study.
    pub geometry: GridGeometry,
}

/// Build the retrieval study: `n_queries` query clusters across shape
/// families; for each, `n_very` lightly-jittered and `n_similar`
/// moderately-deformed variants are archived among `n_decoys` decoys.
///
/// Two-thirds of the decoys are **confusers**: clusters of a *different*
/// shape family generated with the query's exact scale and population, so
/// their aggregate statistics (centroid-free CRD: radius, density,
/// population) are indistinguishable from the query's — only structure
/// (shape, connectivity, density layout) separates them. This reproduces
/// the paper's argument for why aggregate summaries mis-retrieve. Matching
/// in the study is position-insensitive for every format, so location can
/// never give the answer away.
pub fn build_study(
    n_queries: usize,
    n_very: usize,
    n_similar: usize,
    n_decoys: usize,
    seed: u64,
) -> Study {
    let mut rng = StdRng::seed_from_u64(seed);
    let geometry = GridGeometry::basic(2, 1.0);
    let population = 160;

    let mut queries = Vec::with_capacity(n_queries);
    let mut archive = Vec::new();
    let mut query_shapes = Vec::new();
    let mut query_scales = Vec::new();
    for qi in 0..n_queries {
        let shape = SHAPES[qi % SHAPES.len()];
        // Per-query scale variation so queries are mutually distinct.
        let scale = 2.0 * (1.0 + 0.2 * ((qi / SHAPES.len()) as f64));
        query_shapes.push(shape);
        query_scales.push(scale);
        let (cx, cy) = (rng.gen_range(-40.0..40.0), rng.gen_range(-40.0..40.0));
        let query = shape.generate(cx, cy, scale, population, &mut rng);
        // Very similar: light jitter in place.
        for _ in 0..n_very {
            archive.push(StudyEntry {
                members: perturb(&query, 0.05, 0.02, &mut rng),
                query_of: Some(qi),
                relation: Relation::VerySimilar,
            });
        }
        // Similar: moderate jitter + drop, small translation.
        for _ in 0..n_similar {
            let mut m = perturb(&query, 0.2, 0.15, &mut rng);
            let (dx, dy) = (rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5));
            for p in m.cores.iter_mut().chain(m.edges.iter_mut()) {
                let mut v = p.to_vec();
                v[0] += dx;
                v[1] += dy;
                *p = v.into();
            }
            archive.push(StudyEntry {
                members: m,
                query_of: Some(qi),
                relation: Relation::Similar,
            });
        }
        queries.push(query);
    }
    // Confusers: for each query in rotation, a *different* shape at the
    // query's exact scale and population — aggregate-identical, shape-
    // different. Remaining decoys are random shapes at random scales.
    let n_confusers = n_decoys * 2 / 3;
    for k in 0..n_confusers {
        let qi = k % n_queries.max(1);
        let other = SHAPES[(SHAPES.iter().position(|s| *s == query_shapes[qi]).unwrap()
            + 1
            + k % (SHAPES.len() - 1))
            % SHAPES.len()];
        let (cx, cy) = (rng.gen_range(-40.0..40.0), rng.gen_range(-40.0..40.0));
        let m = other.generate(cx, cy, query_scales[qi], population, &mut rng);
        archive.push(StudyEntry {
            members: m,
            query_of: None,
            relation: Relation::Decoy,
        });
    }
    for _ in n_confusers..n_decoys {
        let shape = SHAPES[rng.gen_range(0..SHAPES.len())];
        let (cx, cy) = (rng.gen_range(-40.0..40.0), rng.gen_range(-40.0..40.0));
        let m = shape.generate(cx, cy, 2.0 * rng.gen_range(0.8..1.4), population, &mut rng);
        archive.push(StudyEntry {
            members: m,
            query_of: None,
            relation: Relation::Decoy,
        });
    }
    Study {
        queries,
        archive,
        geometry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Crd;

    #[test]
    fn study_counts() {
        let s = build_study(5, 2, 2, 30, 1);
        assert_eq!(s.queries.len(), 5);
        assert_eq!(s.archive.len(), 5 * 4 + 30);
        let very = s
            .archive
            .iter()
            .filter(|e| e.relation == Relation::VerySimilar)
            .count();
        assert_eq!(very, 10);
    }

    #[test]
    fn study_is_deterministic() {
        let a = build_study(3, 1, 1, 5, 9);
        let b = build_study(3, 1, 1, 5, 9);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn ring_and_disc_share_crd_statistics() {
        // The decoy construction the study relies on: a ring and a disc of
        // the same scale/population have nearly identical CRDs.
        let mut rng = StdRng::seed_from_u64(3);
        let ring = Shape::Ring.generate(0.0, 0.0, 2.0, 200, &mut rng);
        let disc = Shape::Disc.generate(0.0, 0.0, 2.0, 200, &mut rng);
        let cr = Crd::from_members(&ring).unwrap();
        let cd = Crd::from_members(&disc).unwrap();
        assert!(cr.distance(&cd) < 0.2, "CRD distance {}", cr.distance(&cd));
    }

    #[test]
    fn perturb_preserves_most_members() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = Shape::Disc.generate(0.0, 0.0, 2.0, 100, &mut rng);
        let p = perturb(&m, 0.05, 0.1, &mut rng);
        assert!(p.population() >= 75 && p.population() <= 100);
    }
}
