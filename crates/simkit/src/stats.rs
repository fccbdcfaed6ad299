//! Streaming statistics, histograms and exact percentiles.
//!
//! The paper reports mean/variance-style quality metrics, P99 tail latencies
//! (Fig 16) and SLO violation rates (Figs 12–13); these accumulators back all
//! of them.

use std::fmt;

/// Welford-style streaming mean/variance accumulator.
///
/// # Example
///
/// ```
/// use modm_simkit::StreamingStats;
/// let mut s = StreamingStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { s.record(x); }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.count(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

impl fmt::Display for StreamingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4}",
            self.count,
            self.mean(),
            self.std_dev()
        )
    }
}

/// Exact percentile computation over retained samples.
///
/// Serving experiments record at most a few hundred thousand latencies, so we
/// keep the raw samples and sort on demand; this gives exact P99s (Fig 16)
/// rather than estimator error.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (`q` in `[0,1]`), with linear interpolation; `None`
    /// when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let n = self.samples.len();
        if n == 1 {
            return Some(self.samples[0]);
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// The 50th percentile.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The 99th percentile — the paper's tail-latency metric.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Fraction of observations strictly greater than `threshold` — the SLO
    /// violation rate for a latency threshold.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.count_above(threshold) as f64 / self.samples.len() as f64
    }

    /// Exact count of observations strictly greater than `threshold` —
    /// what goodput accounting needs (a float rate times a count would
    /// round).
    pub fn count_above(&self, threshold: f64) -> usize {
        self.samples.iter().filter(|&&x| x > threshold).count()
    }

    /// Mean of the observations.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// A view of the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Fixed-width histogram over a closed range; out-of-range values clamp to
/// the edge buckets. Used for the distribution plots (Figs 2 and 15).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "empty histogram range");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            hi,
            counts: vec![0; buckets],
            total: 0,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        let b = ((x - self.lo) / (self.hi - self.lo) * self.counts.len() as f64).floor();
        let idx = (b as i64).clamp(0, self.counts.len() as i64 - 1) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The midpoint value of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_mid(&self, i: usize) -> f64 {
        assert!(i < self.counts.len());
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// Normalized frequencies (sum to 1 when non-empty).
    pub fn normalized(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Iterator over `(bucket_midpoint, normalized_frequency)` pairs.
    pub fn iter_normalized(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let norm = self.normalized();
        (0..self.counts.len())
            .zip(norm)
            .map(move |(i, f)| (self.bucket_mid(i), f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_mean_and_variance() {
        let mut s = StreamingStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = StreamingStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn percentiles_exact() {
        let mut p = Percentiles::new();
        for x in 1..=100 {
            p.record(x as f64);
        }
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        assert!((p.median().unwrap() - 50.5).abs() < 1e-9);
        assert!((p.p99().unwrap() - 99.01).abs() < 1e-9);
    }

    #[test]
    fn fraction_above_threshold() {
        let mut p = Percentiles::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            p.record(x);
        }
        assert_eq!(p.fraction_above(2.5), 0.5);
        assert_eq!(p.fraction_above(10.0), 0.0);
        assert_eq!(p.fraction_above(0.0), 1.0);
    }

    #[test]
    fn histogram_buckets_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(9.5);
        h.record(-3.0); // clamps to first bucket
        h.record(42.0); // clamps to last bucket
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 2);
        assert_eq!(h.total(), 4);
        let norm = h.normalized();
        assert!((norm.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((h.bucket_mid(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_quantiles() {
        let mut p = Percentiles::new();
        p.record(7.0);
        assert_eq!(p.quantile(0.3), Some(7.0));
        assert_eq!(p.p99(), Some(7.0));
    }
}
