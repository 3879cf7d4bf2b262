//! Order statistics over latency samples. Every percentile is reported
//! together with the sample count it was taken from, so a reader can see
//! how many samples lie beyond it.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `q` of the samples at or below it. `q` in (0, 1].
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median as the mean of the two middle samples (matches Python's
/// `statistics.median`, which the A/A script uses).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A latency sample set in milliseconds.
#[derive(Default)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    pub fn push(&mut self, d: std::time::Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The samples in arrival order.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Ascending copy, for the percentile functions.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 0.91), 10.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn sample_count_beyond_a_percentile_is_reported() {
        assert_eq!(samples_beyond(10, 0.9), 1);
        assert_eq!(samples_beyond(400, 0.9), 40);
        assert_eq!(samples_beyond(1, 0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
