//! A frozen reference kernel that measures the machine, not the program.
//!
//! The reference box is a shared virtual machine: identical code runs 10 to
//! 40 % slower for phases that last from seconds to whole runs, which is
//! more than any bound the benchmark could set. The kernel below is the
//! benchmark's own code (a grid-bucketed neighbor search, the kind of work
//! the extractor does: hashing, short scans, float distances), so no change
//! to the program moves it. It runs between blocks of the timed loop, and
//! every time the benchmark reports is divided by how much slower than
//! nominal the kernel ran around that block.

use std::collections::HashMap;
use std::time::Instant;

/// Kernel time on the reference box in its undisturbed state, in
/// milliseconds (the fastest the A/A runs saw). Reported times are in
/// milliseconds of that state.
pub const NOMINAL_MS: f64 = 14.0;

const POINTS: usize = 120_000;
const QUERIES_PER_RUN: usize = 18_000;
const EXTENT: f64 = 400.0;
const RADIUS: f64 = 1.0;

pub struct Kernel {
    points: Vec<[f64; 2]>,
    grid: HashMap<(i32, i32), Vec<u32>>,
    /// Walks the point set, so successive runs touch different buckets.
    cursor: usize,
    sink: u64,
}

fn cell(p: &[f64; 2]) -> (i32, i32) {
    (
        (p[0] / RADIUS).floor() as i32,
        (p[1] / RADIUS).floor() as i32,
    )
}

impl Kernel {
    pub fn new() -> Self {
        // Any fixed point set will do; a multiplicative generator keeps it
        // the same on every machine.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let points: Vec<[f64; 2]> = (0..POINTS)
            .map(|_| [unit() * EXTENT, unit() * EXTENT])
            .collect();
        let mut grid: HashMap<(i32, i32), Vec<u32>> = HashMap::new();
        for (i, p) in points.iter().enumerate() {
            grid.entry(cell(p)).or_default().push(i as u32);
        }
        Kernel {
            points,
            grid,
            cursor: 0,
            sink: 0,
        }
    }

    /// One run of the kernel; returns how long it took, in milliseconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut found = 0u64;
        for _ in 0..QUERIES_PER_RUN {
            self.cursor = (self.cursor + 7_919) % POINTS;
            let q = self.points[self.cursor];
            let (cx, cy) = cell(&q);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    if let Some(bucket) = self.grid.get(&(cx + dx, cy + dy)) {
                        for &i in bucket {
                            let p = self.points[i as usize];
                            let d = (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2);
                            found += u64::from(d <= RADIUS * RADIUS);
                        }
                    }
                }
            }
        }
        self.sink = self.sink.wrapping_add(std::hint::black_box(found));
        start.elapsed().as_secs_f64() * 1e3
    }
}
