//! Deterministic, splittable random number generation.
//!
//! Every experiment in the reproduction is driven by a single `u64` seed.
//! [`SplitMix64`] is used to derive independent streams (one per trial, per
//! VM, per task) and [`Xoshiro256StarStar`] is the workhorse generator.
//! [`mix64`], SplitMix64's output finalizer, hashes ids into well-spread
//! words where a stream is not needed.

/// SplitMix64's finalizer: a bijective mix of `z` whose every output bit
/// depends on every input bit.
#[inline]
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sebastiano Vigna's SplitMix64 — used both as a tiny PRNG and as the seed
/// expander for [`Xoshiro256StarStar`].
///
/// # Example
///
/// ```
/// use ioguard_sim::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next(), b.next()); // fully deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. All seeds, including zero, are valid.
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next value in the stream.
    ///
    /// Deliberately named like `Iterator::next`: the stream is infinite, so
    /// an `Option`-returning iterator would only add unwraps at call sites.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Derives an independent child seed. Deriving with distinct `tag`s from
    /// the same parent yields decorrelated streams, which is how per-trial
    /// and per-task RNGs are fanned out from the experiment seed.
    pub fn derive(&self, tag: u64) -> u64 {
        let mut child = SplitMix64::new(self.state ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
        child.next()
    }
}

/// Xoshiro256** — the main generator for workload sampling.
///
/// Chosen for its excellent statistical quality, tiny state and speed; the
/// case-study engine draws millions of samples per experiment point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator, expanding the seed with [`SplitMix64`] so that
    /// low-entropy seeds (0, 1, 2, …) still give well-mixed states.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next();
        }
        // The all-zero state is the one invalid state; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    #[inline]
    fn step(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.step() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Lemire-style rejection-free multiply-shift is overkill here; simple
        // modulo bias is negligible for span ≪ 2^64 but we debias anyway.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.step();
            if v < zone {
                return lo + v % span;
            }
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference values from the canonical splitmix64.c with seed 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn derive_decorrelates_streams() {
        let parent = SplitMix64::new(123);
        let s1 = parent.derive(1);
        let s2 = parent.derive(2);
        assert_ne!(s1, s2);
        // Children are deterministic functions of (parent, tag).
        assert_eq!(parent.derive(1), s1);
    }

    #[test]
    fn xoshiro_determinism_and_divergence() {
        let mut a = Xoshiro256StarStar::new(9);
        let mut b = Xoshiro256StarStar::new(9);
        let mut c = Xoshiro256StarStar::new(10);
        let mut diverged = false;
        for _ in 0..64 {
            let va = a.step();
            assert_eq!(va, b.step());
            if va != c.step() {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must give different streams");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::new(5);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v), "{v} outside [0,1)");
        }
    }

    #[test]
    fn range_u64_bounds_and_coverage() {
        let mut rng = Xoshiro256StarStar::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range hit");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_u64_rejects_empty() {
        let mut rng = Xoshiro256StarStar::new(5);
        let _ = rng.range_u64(3, 3);
    }

    #[test]
    fn range_f64_bounds() {
        let mut rng = Xoshiro256StarStar::new(11);
        for _ in 0..1_000 {
            let v = rng.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn chance_estimates_probability() {
        let mut rng = Xoshiro256StarStar::new(2026);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.chance(0.25)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.25).abs() < 0.01, "empirical p = {p}");
    }

    #[test]
    fn mean_of_uniform_is_half() {
        let mut rng = Xoshiro256StarStar::new(77);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }
}
