//! Order statistics over measured samples.

use std::time::Duration;

/// The nearest-rank `q`-quantile of an ascending slice: the smallest value
/// with at least `q · n` values at or below it (rank `⌈q · n⌉`, 1-based).
/// `q` is clamped to `[0, 1]`; `q = 0` gives the minimum. `None` when empty.
pub fn nearest_rank(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as usize;
    sorted.get(rank.min(n) - 1).copied()
}

/// How many samples lie strictly above the nearest-rank `q`-quantile: the
/// count the choosing-metrics rule asks for before a percentile is reported.
pub fn beyond(sorted: &[u64], q: f64) -> usize {
    match nearest_rank(sorted, q) {
        Some(cut) => sorted.len() - sorted.partition_point(|&v| v <= cut),
        None => 0,
    }
}

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one duration.
    pub fn add(&mut self, elapsed: Duration) {
        self.ns
            .push(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        self.sorted = false;
    }

    /// Moves every sample of `other` into this set.
    pub fn absorb(&mut self, other: Samples) {
        self.ns.extend(other.ns);
        self.sorted = false;
    }

    /// The number of samples.
    pub fn count(&self) -> usize {
        self.ns.len()
    }

    fn ascending(&mut self) -> &[u64] {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        &self.ns
    }

    /// The nearest-rank `q`-quantile in microseconds (0 when empty).
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        nearest_rank(self.ascending(), q).map_or(0.0, |ns| ns as f64 / 1e3)
    }

    /// The nearest-rank `q`-quantile in milliseconds (0 when empty).
    pub fn quantile_ms(&mut self, q: f64) -> f64 {
        self.quantile_us(q) / 1e3
    }

    /// The median in microseconds.
    pub fn median_us(&mut self) -> f64 {
        self.quantile_us(0.5)
    }

    /// How many samples lie beyond the `q`-quantile.
    pub fn beyond(&mut self, q: f64) -> usize {
        beyond(self.ascending(), q)
    }
}

/// The median of a list of values (the mean of the middle two for an even
/// count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match (sorted.get(n / 2), n % 2) {
        (None, _) => 0.0,
        (Some(&mid), 1) => mid,
        (Some(&upper), _) => (upper + sorted.get(n / 2 - 1).copied().unwrap_or(upper)) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_follows_the_ceiling_rule() {
        let values: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&values, 0.5), Some(5));
        assert_eq!(nearest_rank(&values, 0.9), Some(9));
        assert_eq!(nearest_rank(&values, 0.91), Some(10));
        assert_eq!(nearest_rank(&values, 0.99), Some(10));
        assert_eq!(nearest_rank(&values, 1.0), Some(10));
        assert_eq!(nearest_rank(&values, 0.0), Some(1), "q = 0 is the minimum");
        assert_eq!(nearest_rank(&values, 7.0), Some(10), "q is clamped");
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[42], 0.99), Some(42));
        // The rank is ⌈q·n⌉ even where q·n is an exact integer.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&hundred, 0.9), Some(90));
        assert_eq!(nearest_rank(&hundred, 0.99), Some(99));
    }

    #[test]
    fn beyond_counts_samples_above_the_cut_and_handles_ties() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(beyond(&hundred, 0.9), 10);
        assert_eq!(beyond(&hundred, 0.99), 1);
        assert_eq!(
            beyond(&[5, 5, 5, 5], 0.5),
            0,
            "ties at the cut are not beyond it"
        );
        assert_eq!(beyond(&[], 0.9), 0);
    }

    #[test]
    fn samples_convert_units() {
        let mut samples = Samples::new();
        for us in [300u64, 100, 200] {
            samples.add(Duration::from_micros(us));
        }
        assert_eq!(samples.count(), 3);
        assert_eq!(samples.median_us(), 200.0);
        assert_eq!(samples.quantile_ms(1.0), 0.3);
        let mut more = Samples::new();
        more.add(Duration::from_micros(1_000));
        samples.absorb(more);
        assert_eq!(samples.quantile_us(1.0), 1_000.0);
        assert_eq!(Samples::new().median_us(), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
