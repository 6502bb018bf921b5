//! Online statistics and histograms for experiment metrics.
//!
//! The case study (Fig. 7) reports success ratios and throughput averaged
//! over many trials; the predictability claims rest on latency *variance*.
//! [`OnlineStats`] (Welford's algorithm) and [`Histogram`] provide both
//! without retaining per-sample storage.

/// Single-pass mean / variance / extrema accumulator (Welford).
///
/// # Example
///
/// ```
/// use ioguard_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// The empty accumulator of [`OnlineStats::new`], extrema at ±∞.
impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean. Zero for an empty accumulator.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`). Zero when `n < 1`.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest sample seen, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample seen, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Fixed-width binned histogram over `[lo, hi)` with overflow/underflow bins,
/// supporting approximate percentile queries.
///
/// Latency distributions in the predictability experiments are summarized by
/// their p50 / p99 / max through this type.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "empty histogram range [{lo}, {hi})");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((value - self.lo) / width) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of recorded samples (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Number of samples at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`): the lower edge of the bin
    /// containing the `q`-th sample. Returns `None` when empty.
    ///
    /// Underflow samples map to `lo`; overflow samples map to `hi`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.lo + i as f64 * width);
            }
        }
        Some(self.hi)
    }

    /// Per-bin counts (excluding under/overflow).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data = [1.0, 2.5, 3.7, -4.0, 0.0, 10.0, 2.2];
        let mut s = OnlineStats::new();
        for &v in &data {
            s.push(v);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.population_variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(-4.0));
        assert_eq!(s.max(), Some(10.0));
        assert_eq!(s.count(), 7);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn default_is_the_empty_accumulator() {
        assert_eq!(OnlineStats::default(), OnlineStats::new());
        for value in [5.0, -3.0, 0.0] {
            let mut s = OnlineStats::default();
            s.push(value);
            assert_eq!(s.min(), Some(value));
            assert_eq!(s.max(), Some(value));
        }
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &v in &data {
            whole.push(v);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &v in &data[..37] {
            a.push(v);
        }
        for &v in &data[37..] {
            b.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.population_variance() - whole.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for v in [0.0, 0.5, 1.0, 9.99] {
            h.record(v);
        }
        h.record(-1.0); // underflow
        h.record(10.0); // boundary value counts as overflow
        assert_eq!(h.count(), 6);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[1], 1);
        assert_eq!(h.bins()[9], 1);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.quantile(0.0), Some(0.0));
        let p50 = h.quantile(0.5).unwrap();
        assert!((49.0..=51.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((97.0..=99.0).contains(&p99), "p99 = {p99}");
        assert_eq!(Histogram::new(0.0, 1.0, 4).quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
