//! Exponential inter-arrival sampling for Poisson failure processes.
//!
//! Implemented via the inverse CDF, `t = −θ·ln(1−u)` with `u ∈ [0,1)`, so
//! the only dependency is a uniform RNG (`rand`); no distribution crate is
//! needed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded sampler of exponential inter-arrival times.
#[derive(Debug, Clone)]
pub struct ExpSampler {
    rng: StdRng,
    mean: f64,
}

impl ExpSampler {
    /// Creates a sampler with the given mean (the MTBF `θ`) and seed.
    /// A mean of `f64::INFINITY` models a failure-free system: every
    /// sample is `INFINITY`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive (or is NaN).
    pub fn new(mean: f64, seed: u64) -> Self {
        assert!(mean > 0.0 && !mean.is_nan(), "mean must be positive, got {mean}");
        ExpSampler { rng: StdRng::seed_from_u64(seed), mean }
    }

    /// Draws one exponential sample (`INFINITY` for an infinite mean, which
    /// draws nothing): `−θ·ln(1 − u)` for the next `u ∈ [0, 1)`. `u` is a
    /// multiple of 2⁻⁵³, which makes the subtraction exact.
    pub fn sample(&mut self) -> f64 {
        if self.mean.is_infinite() {
            return f64::INFINITY;
        }
        let u: f64 = self.rng.gen();
        -self.mean * (1.0 - u).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_positive() {
        let mut s = ExpSampler::new(2.0, 1);
        for _ in 0..1000 {
            assert!(s.sample() > 0.0);
        }
    }

    #[test]
    fn mean_converges() {
        let mut s = ExpSampler::new(5.0, 7);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| s.sample()).sum();
        let mean = total / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "sample mean {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = ExpSampler::new(1.0, 99);
        let mut b = ExpSampler::new(1.0, 99);
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
        let mut c = ExpSampler::new(1.0, 100);
        assert_ne!(a.sample(), c.sample());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_mean() {
        let _ = ExpSampler::new(0.0, 0);
    }
}
