//! Seeded inputs: one base stream per run, replayed cyclically so a long
//! run keeps the dataset's memory constant.

use sgs_core::Point;
use sgs_datagen::{generate_gmti, generate_stt, GmtiConfig, SttConfig};

/// Which generator a workload reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// 4-d stock-trade stream. Always generated at the paper's 1M records
    /// (the time-of-day coordinate is scaled by the record count), then
    /// truncated.
    Stt,
    /// 2-d moving-object stream.
    Gmti,
}

impl Dataset {
    pub fn dim(self) -> usize {
        match self {
            Dataset::Stt => 4,
            Dataset::Gmti => 2,
        }
    }

    /// Name the server's default stream catalog registers it under.
    pub fn stream_name(self) -> &'static str {
        match self {
            Dataset::Stt => "stt",
            Dataset::Gmti => "gmti",
        }
    }

    /// The first `n` records of the workload's scenario, perturbed by
    /// `seed`.
    ///
    /// The scenario itself (convoy routes, burst schedule) is the
    /// generator's default and part of the workload's definition, like the
    /// window size: redrawing it per seed moves cluster counts and sizes
    /// by 2x, which would make runs with different seeds different
    /// workloads. The seed shifts the whole stream against the grid by up
    /// to one cell per dimension and jitters every coordinate by up to
    /// `jitter`, so no two seeds share a cell assignment or a neighbor
    /// list, while the density structure stays.
    pub fn generate(self, seed: u64, n: usize, jitter: f64, cell_side: f64) -> Vec<Point> {
        let mut points = match self {
            Dataset::Stt => {
                let mut points = generate_stt(&SttConfig::default());
                assert!(n <= points.len(), "STT base stream is 1M records");
                points.truncate(n);
                points.shrink_to_fit();
                points
            }
            Dataset::Gmti => generate_gmti(&GmtiConfig {
                n_records: n,
                ..GmtiConfig::default()
            }),
        };
        let mut rng = SplitMix64(seed);
        let shift: Vec<f64> = (0..self.dim()).map(|_| rng.unit() * cell_side).collect();
        for p in &mut points {
            for (c, s) in p.coords.iter_mut().zip(&shift) {
                *c += s + (2.0 * rng.unit() - 1.0) * jitter;
            }
        }
        points
    }
}

/// SplitMix64: enough randomness for a perturbation, no dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cyclic replay of a base stream in slide-sized batches. Timestamps are
/// rewritten to the running tuple index, so they stay monotone across
/// the wrap.
pub struct Replay {
    base: Vec<Point>,
    fed: u64,
}

impl Replay {
    pub fn new(base: Vec<Point>) -> Self {
        assert!(!base.is_empty());
        Replay { base, fed: 0 }
    }

    /// The next `n` tuples.
    pub fn next_batch(&mut self, n: usize) -> Vec<Point> {
        (0..n)
            .map(|_| {
                let p = self.point(self.fed);
                self.fed += 1;
                p
            })
            .collect()
    }

    /// The tuple with arrival index `seq`, which is also the id the
    /// window engine assigns it.
    pub fn point(&self, seq: u64) -> Point {
        let src = &self.base[(seq % self.base.len() as u64) as usize];
        Point::new(src.coords.clone(), seq)
    }

    /// Tuples handed out so far.
    pub fn fed(&self) -> u64 {
        self.fed
    }

    /// Heap footprint of the base stream, in bytes.
    pub fn dataset_bytes(&self) -> usize {
        self.base.len() * std::mem::size_of::<Point>()
            + self
                .base
                .iter()
                .map(|p| p.coords.len() * std::mem::size_of::<f64>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_replay_is_monotone_and_exact() {
        let base = Dataset::Gmti.generate(3, 250, 0.01, 0.35);
        let mut replay = Replay::new(base.clone());
        let mut all = Vec::new();
        for _ in 0..7 {
            let batch = replay.next_batch(100);
            assert_eq!(batch.len(), 100);
            all.extend(batch);
        }
        assert_eq!(all.len(), 700);
        assert_eq!(replay.fed(), 700);
        assert!(all.windows(2).all(|w| w[0].ts < w[1].ts));
        // The wrap repeats coordinates, never timestamps.
        assert_eq!(all[260].coords, base[10].coords);
        assert_eq!(all[260].ts, 260);
        assert_eq!(replay.point(510).coords, base[10].coords);
    }

    #[test]
    fn equal_seeds_give_equal_inputs() {
        let gen = |seed| Dataset::Gmti.generate(seed, 300, 0.01, 0.35);
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
        // A seed moves every tuple, but by less than a cell plus the jitter.
        for (a, b) in gen(5).iter().zip(&gen(6)) {
            assert_ne!(a.coords, b.coords);
            assert!(a
                .coords
                .iter()
                .zip(b.coords.iter())
                .all(|(x, y)| (x - y).abs() < 0.37));
        }
        assert_eq!(Dataset::Stt.generate(5, 300, 0.002, 0.05).len(), 300);
    }
}
