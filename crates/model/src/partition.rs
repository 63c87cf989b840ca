//! Partial-redundancy partitioning (paper Eqs. 5–8).
//!
//! A fractional redundancy degree `r` (e.g. `1.5`) cannot be realized
//! uniformly: some virtual processes receive `⌈r⌉` physical replicas and the
//! rest `⌊r⌋`. The paper partitions the `N` virtual processes as
//!
//! ```text
//! N        = N⌊r⌋ + N⌈r⌉                        (Eq. 5)
//! N⌊r⌋     = ⌊(⌈r⌉ − r)·N⌋                       (Eq. 6)
//! N⌈r⌉     = N − N⌊r⌋                            (Eq. 7)
//! N_total  = N⌈r⌉·⌈r⌉ + N⌊r⌋·⌊r⌋  ≤  N·r         (Eq. 8)
//! ```
//!
//! When `r` is a positive integer, `N⌊r⌋ = 0` and every virtual process has
//! exactly `r` replicas.

use crate::error::{ensure_in_range, ModelError};
use crate::Result;

/// Minimum supported redundancy degree.
pub const MIN_DEGREE: f64 = 1.0;
/// Maximum supported redundancy degree. The paper evaluates degrees in
/// `[1, 3]`; we allow a little headroom for extension studies.
pub const MAX_DEGREE: f64 = 16.0;

/// The partition of `N` virtual processes induced by a (possibly fractional)
/// redundancy degree `r` (Eqs. 5–8).
#[derive(Debug, Clone, PartialEq)]
pub struct RedundancyPartition {
    n_virtual: u64,
    degree: f64,
    floor_replicas: u64,
    ceil_replicas: u64,
    n_floor_set: u64,
    n_ceil_set: u64,
}

impl RedundancyPartition {
    /// Builds the partition for `n_virtual` virtual processes at redundancy
    /// degree `degree`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if `n_virtual == 0` or
    /// `degree` lies outside `[MIN_DEGREE, MAX_DEGREE]`.
    pub fn new(n_virtual: u64, degree: f64) -> Result<Self> {
        if n_virtual == 0 {
            return Err(ModelError::InvalidParameter {
                name: "n_virtual",
                value: 0.0,
                reason: "must be at least 1",
            });
        }
        ensure_in_range("degree", degree, MIN_DEGREE, MAX_DEGREE)?;

        let floor_replicas = degree.floor() as u64;
        let ceil_replicas = degree.ceil() as u64;
        // Eq. 6: N_floor = floor((ceil(r) - r) * N). For integral r the term
        // (ceil(r) - r) is zero, so N_floor = 0 as the paper's special case
        // requires.
        let n_floor_set = ((ceil_replicas as f64 - degree) * n_virtual as f64).floor() as u64;
        let n_floor_set = n_floor_set.min(n_virtual);
        let n_ceil_set = n_virtual - n_floor_set; // Eq. 7

        Ok(Self { n_virtual, degree, floor_replicas, ceil_replicas, n_floor_set, n_ceil_set })
    }

    /// Number of virtual processes `N`.
    pub fn n_virtual(&self) -> u64 {
        self.n_virtual
    }

    /// The requested redundancy degree `r`.
    pub fn degree(&self) -> f64 {
        self.degree
    }

    /// `⌊r⌋`: replica count of the less-replicated set.
    pub fn floor_replicas(&self) -> u64 {
        self.floor_replicas
    }

    /// `⌈r⌉`: replica count of the more-replicated set.
    pub fn ceil_replicas(&self) -> u64 {
        self.ceil_replicas
    }

    /// `N⌊r⌋` (Eq. 6): number of virtual processes with `⌊r⌋` replicas.
    pub fn n_floor_set(&self) -> u64 {
        self.n_floor_set
    }

    /// `N⌈r⌉` (Eq. 7): number of virtual processes with `⌈r⌉` replicas.
    pub fn n_ceil_set(&self) -> u64 {
        self.n_ceil_set
    }

    /// `N_total` (Eq. 8): total number of physical processes required.
    ///
    /// Because of the floor in Eq. 6, `N·r ≤ N_total < N·r + 1`: the paper
    /// notes `N_total ≤ N×r` "as a fraction of a process is nonexistent",
    /// which holds whenever `(⌈r⌉−r)·N` is integral; in general the rounding
    /// can add at most one extra physical process.
    pub fn total_physical(&self) -> u64 {
        self.n_ceil_set * self.ceil_replicas + self.n_floor_set * self.floor_replicas
    }

    /// The *effective* degree actually realized, `N_total / N`.
    ///
    /// Differs from [`degree`](Self::degree) by less than `1/N` due to the
    /// floor in Eq. 6.
    pub fn effective_degree(&self) -> f64 {
        self.total_physical() as f64 / self.n_virtual as f64
    }

    /// Number of physical replicas assigned to virtual rank `vrank`.
    ///
    /// The `N⌈r⌉` extra-replica slots are spread evenly over the rank space
    /// (Bresenham/Beatty rounding): rank `v` is in the `⌈r⌉` set iff
    /// `(v·N⌈r⌉) mod N < N⌈r⌉`, which selects exactly `N⌈r⌉` ranks starting
    /// at rank 0. For `r = 1.5` and even `N` this marks exactly the even
    /// ranks, the paper's "every other process (i.e., every even process)
    /// has a replica" (Section 6).
    ///
    /// # Panics
    ///
    /// Panics if `vrank >= n_virtual()`.
    pub fn replicas_of(&self, vrank: u64) -> u64 {
        assert!(vrank < self.n_virtual, "virtual rank {vrank} out of range");
        if self.n_floor_set == 0 {
            return self.ceil_replicas;
        }
        if self.n_ceil_set == 0 {
            return self.floor_replicas;
        }
        let (k, n) = (self.n_ceil_set as u128, self.n_virtual as u128);
        if (vrank as u128 * k) % n < k {
            self.ceil_replicas
        } else {
            self.floor_replicas
        }
    }

    /// Iterates over `(virtual_rank, replica_count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.n_virtual).map(move |v| (v, self.replicas_of(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integral_degrees_have_empty_floor_set() {
        for r in [1.0, 2.0, 3.0] {
            let p = RedundancyPartition::new(128, r).unwrap();
            assert_eq!(p.n_floor_set(), 0, "r={r}");
            assert_eq!(p.n_ceil_set(), 128);
            assert_eq!(p.total_physical(), 128 * r as u64);
            assert_eq!(p.effective_degree(), r);
        }
    }

    #[test]
    fn half_degree_splits_evenly() {
        let p = RedundancyPartition::new(128, 1.5).unwrap();
        assert_eq!(p.n_floor_set(), 64);
        assert_eq!(p.n_ceil_set(), 64);
        assert_eq!(p.total_physical(), 64 + 128);
        assert!((p.effective_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn interleaved_matches_paper_even_rank_replication() {
        // Paper Section 6: "a redundancy degree of 1.5x means that every
        // other process (i.e., every even process) has a replica".
        let p = RedundancyPartition::new(8, 1.5).unwrap();
        let counts: Vec<u64> = (0..8).map(|v| p.replicas_of(v)).collect();
        assert_eq!(counts, vec![2, 1, 2, 1, 2, 1, 2, 1]);
    }

    #[test]
    fn quarter_degrees_match_paper_table() {
        // 128 processes at 1.25x: N_floor = floor(0.75*128) = 96 singles,
        // 32 duals -> 160 physical processes.
        let p = RedundancyPartition::new(128, 1.25).unwrap();
        assert_eq!(p.n_floor_set(), 96);
        assert_eq!(p.n_ceil_set(), 32);
        assert_eq!(p.total_physical(), 96 + 64);
        // 2.75x: floor set has 2 replicas, ceil set 3.
        let p = RedundancyPartition::new(128, 2.75).unwrap();
        assert_eq!(p.floor_replicas(), 2);
        assert_eq!(p.ceil_replicas(), 3);
        assert_eq!(p.n_floor_set(), 32);
        assert_eq!(p.n_ceil_set(), 96);
        assert_eq!(p.total_physical(), 32 * 2 + 96 * 3);
    }

    #[test]
    fn total_is_within_one_of_n_times_r() {
        for n in [1u64, 7, 13, 100, 128, 1001] {
            for r in [1.0, 1.1, 1.25, 1.5, 1.9, 2.25, 2.5, 3.0] {
                let p = RedundancyPartition::new(n, r).unwrap();
                let total = p.total_physical() as f64;
                let nr = n as f64 * r;
                assert!(
                    total >= nr - 1e-9 && total < nr + 1.0,
                    "n={n} r={r} total={total} nr={nr}"
                );
            }
        }
    }

    #[test]
    fn per_rank_counts_sum_to_total() {
        for n in [1u64, 5, 64, 129] {
            for r in [1.0, 1.25, 1.5, 2.75] {
                let p = RedundancyPartition::new(n, r).unwrap();
                let sum: u64 = p.iter().map(|(_, c)| c).sum();
                assert_eq!(sum, p.total_physical(), "n={n} r={r}");
            }
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(RedundancyPartition::new(0, 2.0).is_err());
        assert!(RedundancyPartition::new(4, 0.5).is_err());
        assert!(RedundancyPartition::new(4, f64::NAN).is_err());
        assert!(RedundancyPartition::new(4, 17.0).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn replicas_of_panics_out_of_range() {
        let p = RedundancyPartition::new(4, 2.0).unwrap();
        let _ = p.replicas_of(4);
    }
}
