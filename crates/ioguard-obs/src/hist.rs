//! Log-bucketed latency histograms with deterministic, mergeable state.
//!
//! Buckets are powers of two: bucket 0 holds the value `0`, bucket
//! `i ∈ 1..=64` holds values in `[2^(i-1), 2^i - 1]`. That makes
//! `record` a `leading_zeros` plus an add — cheap enough for hot paths —
//! and makes [`Histogram::merge`] a plain element-wise sum, which is
//! associative and commutative, so work-stealing shards combine
//! bit-identically regardless of grouping or order.

/// Number of buckets: one for zero plus one per bit position.
pub const BUCKETS: usize = 65;

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the top bucket).
fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A log-bucketed histogram over `u64` samples.
///
/// # Example
///
/// ```
/// use ioguard_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.min(), Some(1));
/// assert_eq!(h.max(), Some(100));
/// let p50 = h.percentile(0.50).unwrap();
/// let p99 = h.percentile(0.99).unwrap();
/// assert!(p99 >= p50);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. O(1), allocation-free.
    #[inline]
    pub fn record(&mut self, value: u64) {
        if let Some(slot) = self.buckets.get_mut(bucket_index(value)) {
            *slot = slot.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Merges another histogram into this one.
    ///
    /// Element-wise bucket addition plus min/max folding: associative and
    /// commutative, so any merge tree over the same shards yields
    /// bit-identical state.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any were recorded.
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample, if any were recorded.
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Mean sample value, if any were recorded.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Per-bucket counts (length [`BUCKETS`]).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Approximate percentile: the inclusive upper bound of the bucket
    /// containing the `ceil(p · count)`-th sample, clamped into
    /// `[min, max]`. Monotone in `p`, so `p99 ≥ p50` always holds, and the
    /// clamp keeps every answer inside the recorded range.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen: u64 = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= target {
                return Some(bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(0.99), None);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let samples = [0u64, 1, 1, 7, 8, 100, 1000, u64::MAX];
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, whole);
        let mut flipped = right;
        flipped.merge(&left);
        assert_eq!(flipped, whole);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in [3u64, 5, 9, 17, 40, 900] {
            h.record(v);
        }
        let p50 = h.percentile(0.50).expect("non-empty");
        let p99 = h.percentile(0.99).expect("non-empty");
        assert!(p99 >= p50);
        assert!((3..=900).contains(&p50));
        assert!((3..=900).contains(&p99));
        assert_eq!(h.percentile(0.0), h.percentile(-1.0));
        assert_eq!(h.percentile(1.0), h.percentile(2.0));
    }

    #[test]
    fn single_sample_percentiles_collapse() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.percentile(0.0), Some(42));
        assert_eq!(h.percentile(0.5), Some(42));
        assert_eq!(h.percentile(1.0), Some(42));
    }
}
