//! A fixed-size log2-bucketed histogram.

/// Lowest power-of-two exponent with its own bucket (`2^-48` ≈ 3.6e-15 —
/// well below one virtual nanosecond).
pub(crate) const MIN_EXP: i32 = -48;
/// Highest power-of-two exponent with its own bucket (`2^47` ≈ 1.4e14 —
/// well above any virtual duration or payload size this stack produces).
pub(crate) const MAX_EXP: i32 = 47;
/// Number of regular buckets.
pub(crate) const N_BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize;

/// A log2-bucketed histogram of non-negative `f64` observations.
///
/// Bucket `k` covers the half-open range `[2^k, 2^(k+1))` for
/// `k ∈ [-48, 47]`; an exactly-on-boundary value `2^k` lands in bucket `k`
/// (lower-inclusive). Bucketing extracts the IEEE-754 exponent directly
/// from the bit pattern, so boundary values can never be mis-binned by a
/// `log2().floor()` rounding error. Outside the regular range:
///
/// * `0.0` (and `-0.0`) is counted in a dedicated zero bucket;
/// * positive values below `2^-48` — including every subnormal — underflow;
/// * values at or above `2^48` — including `+∞` — overflow;
/// * `NaN` and negative values are **counted and quarantined**: they bump
///   [`quarantined`](Histogram::quarantined) but never touch the buckets or
///   the sum, so a poisoned observation is visible instead of silently
///   dropped or propagated.
///
/// [`sum`](Histogram::sum) covers finite accepted observations only (an
/// `+∞` observation is counted in overflow but excluded from the sum, so
/// [`mean`](Histogram::mean) stays finite).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    zero: u64,
    underflow: u64,
    overflow: u64,
    quarantined: u64,
    buckets: [u64; N_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            zero: 0,
            underflow: 0,
            overflow: 0,
            quarantined: 0,
            buckets: [0; N_BUCKETS],
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        if v.is_nan() || v < 0.0 {
            self.quarantined += 1;
            return;
        }
        self.count += 1;
        if v == 0.0 {
            self.zero += 1;
            return;
        }
        if v.is_infinite() {
            self.overflow += 1;
            return;
        }
        self.sum += v;
        let exp = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        if exp < MIN_EXP {
            self.underflow += 1;
        } else if exp > MAX_EXP {
            self.overflow += 1;
        } else {
            self.buckets[(exp - MIN_EXP) as usize] += 1;
        }
    }

    /// Accepted (non-quarantined) observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// All observations, including quarantined ones.
    pub fn observations(&self) -> u64 {
        self.count + self.quarantined
    }

    /// Sum of finite accepted observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean over accepted observations (0.0 when empty). `+∞` observations
    /// count in the denominator but not the sum, keeping the mean finite.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Observations equal to zero.
    pub fn zero(&self) -> u64 {
        self.zero
    }

    /// Positive observations below the smallest bucket (subnormals live
    /// here).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `2^48`, including `+∞`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Quarantined observations (`NaN` or negative).
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Count in the bucket for exponent `exp` (`[2^exp, 2^(exp+1))`).
    ///
    /// # Panics
    ///
    /// Panics if `exp` is outside `[-48, 47]`.
    pub fn bucket(&self, exp: i32) -> u64 {
        assert!((MIN_EXP..=MAX_EXP).contains(&exp), "bucket exponent {exp} out of range");
        self.buckets[(exp - MIN_EXP) as usize]
    }

    /// Whether the histogram has no observations at all.
    pub fn is_empty(&self) -> bool {
        self.observations() == 0
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) of the accepted
    /// observations from the bucket CDF, or `None` when the histogram has
    /// no accepted observations or `q` is out of range.
    ///
    /// The CDF walks zero → underflow → regular buckets → overflow. Within
    /// a regular bucket `[2^k, 2^(k+1))` the estimate interpolates
    /// log-linearly (geometrically) by the target's fractional position in
    /// the bucket, which is exact for a log-uniform in-bucket distribution
    /// and bounded by the bucket edges otherwise — a factor-of-two worst
    /// case, the price of the log2 binning. Quantiles that land in the
    /// zero bucket return `0.0`; in underflow, `2^-48` (the range's lower
    /// edge); in overflow, `2^48`. Quarantined observations are excluded,
    /// matching [`count`](Self::count).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Rank of the target observation, 1-based: ceil(q * count),
        // clamped to [1, count] so q=0.0 finds the minimum bucket.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.zero;
        if target <= seen {
            return Some(0.0);
        }
        seen += self.underflow;
        if target <= seen {
            return Some((2.0f64).powi(MIN_EXP));
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if target <= seen + c {
                let exp = i as i32 + MIN_EXP;
                // Midpoint-rank convention: rank r of c maps to fraction
                // (r - 1/2)/c, so estimates stay strictly inside the
                // bucket ([2^k, 2^(k+1)) is upper-exclusive) and a
                // single-observation bucket reports its geometric middle.
                let frac = ((target - seen) as f64 - 0.5) / c as f64;
                return Some((2.0f64).powi(exp) * (2.0f64).powf(frac));
            }
            seen += c;
        }
        Some((2.0f64).powi(MAX_EXP + 1))
    }

    /// Merges another histogram (e.g. a second rank shard) into this one,
    /// bucket-wise.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.zero += other.zero;
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.quarantined += other.quarantined;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_negative_zero_counted_in_zero_bucket() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-0.0);
        assert_eq!(h.zero(), 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0.0);
        assert!((MIN_EXP..=MAX_EXP).all(|e| h.bucket(e) == 0));
    }

    #[test]
    fn subnormals_underflow() {
        let mut h = Histogram::new();
        h.observe(f64::MIN_POSITIVE / 2.0); // subnormal
        h.observe(f64::MIN_POSITIVE); // smallest normal, still < 2^-48
        assert_eq!(h.underflow(), 2);
        assert_eq!(h.count(), 2);
        assert!((MIN_EXP..=MAX_EXP).all(|e| h.bucket(e) == 0));
    }

    #[test]
    fn exact_boundaries_are_lower_inclusive() {
        let mut h = Histogram::new();
        h.observe(1.0); // 2^0: bucket 0
        h.observe(2.0); // 2^1: bucket 1, not bucket 0
        h.observe(0.5); // 2^-1: bucket -1
        h.observe(1.9999999999999998); // just below 2^1: bucket 0
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(-1), 1);
        assert_eq!(h.count(), 4);
        // The extreme in-range boundaries land in their own buckets.
        let mut edges = Histogram::new();
        edges.observe((2.0f64).powi(MIN_EXP));
        edges.observe((2.0f64).powi(MAX_EXP));
        assert_eq!(edges.bucket(MIN_EXP), 1);
        assert_eq!(edges.bucket(MAX_EXP), 1);
        assert_eq!(edges.underflow() + edges.overflow(), 0);
    }

    #[test]
    fn infinity_overflows_without_poisoning_sum() {
        let mut h = Histogram::new();
        h.observe(f64::INFINITY);
        h.observe((2.0f64).powi(48)); // just past the top bucket
        h.observe(3.0);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
        assert!(h.sum().is_finite());
        assert!(h.mean().is_finite());
    }

    #[test]
    fn nan_is_counted_and_quarantined_not_dropped() {
        let mut h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(-1.0);
        h.observe(4.0);
        assert_eq!(h.quarantined(), 2, "NaN and negatives are quarantined");
        assert_eq!(h.count(), 1, "quarantined values are not accepted");
        assert_eq!(h.observations(), 3, "...but they are still counted");
        assert_eq!(h.sum(), 4.0);
        assert!(!h.is_empty());
    }

    #[test]
    fn merge_of_two_shards_is_fieldwise() {
        let mut a = Histogram::new();
        a.observe(1.0);
        a.observe(0.0);
        a.observe(f64::NAN);
        let mut b = Histogram::new();
        b.observe(1.5);
        b.observe(f64::MIN_POSITIVE);
        b.observe(f64::INFINITY);
        a.merge(&b);
        assert_eq!(a.bucket(0), 2, "1.0 and 1.5 share bucket 0");
        assert_eq!(a.zero(), 1);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.quarantined(), 1);
        assert_eq!(a.count(), 5);
        assert_eq!(a.observations(), 6);
        assert!((a.sum() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_follow_the_bucket_cdf() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for _ in 0..90 {
            h.observe(1.0); // bucket 0: [1, 2)
        }
        for _ in 0..10 {
            h.observe(1024.0); // bucket 10: [1024, 2048)
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((1.0..2.0).contains(&p50), "p50 {p50} must fall in [1, 2)");
        let p90 = h.quantile(0.9).unwrap();
        assert!((1.0..2.0).contains(&p90), "p90 is the 90th of 100: still bucket 0");
        let p99 = h.quantile(0.99).unwrap();
        assert!((1024.0..2048.0).contains(&p99), "p99 {p99} must fall in [1024, 2048)");
        assert!(h.quantile(1.5).is_none(), "q out of range");
        assert!(h.quantile(-0.1).is_none());
        // q=0 and q=1 land on the extreme buckets.
        assert!((1.0..2.0).contains(&h.quantile(0.0).unwrap()));
        assert!((1024.0..2048.0).contains(&h.quantile(1.0).unwrap()));
    }

    #[test]
    fn quantiles_in_side_buckets_return_edges() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(0.0);
        h.observe(f64::MIN_POSITIVE); // underflow
        h.observe(f64::INFINITY); // overflow
        assert_eq!(h.quantile(0.25).unwrap(), 0.0);
        assert_eq!(h.quantile(0.75).unwrap(), (2.0f64).powi(MIN_EXP));
        assert_eq!(h.quantile(1.0).unwrap(), (2.0f64).powi(MAX_EXP + 1));
        // NaN never shifts the quantile rank.
        h.observe(f64::NAN);
        assert_eq!(h.quantile(1.0).unwrap(), (2.0f64).powi(MAX_EXP + 1));
    }

    #[test]
    fn bucket_out_of_range_panics() {
        let h = Histogram::new();
        assert!(std::panic::catch_unwind(|| h.bucket(48)).is_err());
    }
}
