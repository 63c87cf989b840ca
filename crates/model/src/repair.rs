//! Repair-extended system reliability: the self-healing variant of
//! Eqs. 9–10.
//!
//! The base model treats a replica death as permanent for the rest of the
//! attempt: a sphere of `r` replicas dies once all `r` have failed, and
//! Eq. 9 integrates that race over a fixed horizon. The self-healing
//! executor changes the stochastic process — a degraded sphere is *repaired*
//! (a fresh replica is respawned from a surviving copy) at some rate `μ`
//! while it still has a live member. This module models one sphere as an
//! absorbing birth–death chain on the number of dead replicas and feeds the
//! resulting sphere lifetime back into the Eq. 10 shape (`λ_sys`, `Θ_sys`),
//! so the checkpointing layer (Eqs. 12–14) applies unchanged on top.
//!
//! # The chain
//!
//! State `k ∈ {0, …, r}` is the number of currently-dead replicas of one
//! sphere. Transitions:
//!
//! * `k → k+1` at rate `b_k = (r − k)·λ_node` — one of the live replicas
//!   fails (each at rate `λ_node = 1/θ`);
//! * `k → k−1` at rate `d_k = μ` for `1 ≤ k ≤ r−1` — the healing layer
//!   respawns a dead replica from a survivor;
//! * `k = r` is absorbing — the sphere (and the job) is dead; there is no
//!   donor left to heal from.
//!
//! The mean time to absorption from the fully-alive state follows the
//! standard first-passage recurrence
//!
//! ```text
//! h_0 = 1/b_0,   h_j = (1 + μ·h_{j−1}) / b_j,   T = Σ_{j=0}^{r−1} h_j
//! ```
//!
//! where `h_j` is the expected time the chain spends reaching `j+1` from
//! `j` (counting excursions back down). With `μ = 0` this collapses to the
//! memoryless no-repair lifetime `T = θ·(1 + 1/2 + … + 1/r)` (the harmonic
//! mean time for `r` exponential deaths), and for `r = 1` repair never
//! applies (there is no donor), so `T = θ` for every `μ`.

use crate::error::{ensure_non_negative, ensure_positive};
use crate::partition::RedundancyPartition;
use crate::redundancy::SystemReliability;
use crate::Result;

/// Mean time to sphere death (absorption) for one sphere of `replicas`
/// copies, per-replica failure rate `1/node_mtbf`, and repair rate
/// `repair_rate` (`μ`, repairs per time unit while the sphere is degraded
/// but alive).
///
/// Returns `f64::INFINITY` when `replicas == 0` (an empty sphere never
/// dies — it does not exist) or when `node_mtbf` is infinite.
///
/// # Errors
///
/// Returns an error if `node_mtbf <= 0` or `repair_rate < 0`.
pub fn sphere_mean_lifetime(replicas: u64, node_mtbf: f64, repair_rate: f64) -> Result<f64> {
    // +∞ is a meaningful MTBF (failure-free nodes); anything else must be
    // finite and positive.
    if node_mtbf != f64::INFINITY {
        ensure_positive("node_mtbf", node_mtbf)?;
    }
    ensure_non_negative("repair_rate", repair_rate)?;
    if replicas == 0 || node_mtbf.is_infinite() {
        return Ok(f64::INFINITY);
    }
    let lambda = 1.0 / node_mtbf;
    let mut total = 0.0f64;
    let mut h_prev = 0.0f64;
    for j in 0..replicas {
        let b_j = (replicas - j) as f64 * lambda;
        // No repair out of state 0 (nothing is dead yet): d_0 = 0, so the
        // recurrence seeds itself with h_prev = 0.
        let d_j = if j == 0 { 0.0 } else { repair_rate };
        let h_j = (1.0 + d_j * h_prev) / b_j;
        total += h_j;
        h_prev = h_j;
    }
    Ok(total)
}

/// A system of `N` virtual processes at redundancy degree `r` whose
/// degraded spheres are healed at rate `μ`: the repair-rate extension of
/// [`SystemModel`](crate::redundancy::SystemModel).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairModel {
    partition: RedundancyPartition,
    node_mtbf: f64,
    repair_rate: f64,
}

impl RepairModel {
    /// Creates a repair-extended system model. `repair_rate` is `μ` in
    /// repairs per time unit (the same unit as `node_mtbf`); `μ = 0`
    /// recovers the no-repair sphere lifetime.
    ///
    /// # Errors
    ///
    /// Returns an error if the partition parameters are invalid (see
    /// [`RedundancyPartition::new`]), `node_mtbf <= 0`, or
    /// `repair_rate < 0`.
    pub fn new(n_virtual: u64, degree: f64, node_mtbf: f64, repair_rate: f64) -> Result<Self> {
        if node_mtbf != f64::INFINITY {
            ensure_positive("node_mtbf", node_mtbf)?;
        }
        ensure_non_negative("repair_rate", repair_rate)?;
        Ok(Self { partition: RedundancyPartition::new(n_virtual, degree)?, node_mtbf, repair_rate })
    }

    /// The underlying partial-redundancy partition.
    pub fn partition(&self) -> &RedundancyPartition {
        &self.partition
    }

    /// Per-node MTBF `θ`.
    pub fn node_mtbf(&self) -> f64 {
        self.node_mtbf
    }

    /// Repair rate `μ`.
    pub fn repair_rate(&self) -> f64 {
        self.repair_rate
    }

    /// System failure rate, MTBF and per-horizon reliability under repair.
    ///
    /// Each sphere's time to death is the birth–death absorption time of
    /// [`sphere_mean_lifetime`]; approximating every sphere lifetime as
    /// exponential at its mean (the same memoryless reduction Eq. 10
    /// applies to the no-repair race), the system fails at the first sphere
    /// death, so the rates add over the `⌊r⌋`- and `⌈r⌉`-replicated sets:
    ///
    /// ```text
    /// λ_sys = N_⌊r⌋ / T_⌊r⌋ + N_⌈r⌉ / T_⌈r⌉,   Θ_sys = 1/λ_sys
    /// ```
    ///
    /// The returned reliability is `exp(−λ_sys·t_red)`, comparable to
    /// Eq. 9's horizon reliability.
    ///
    /// # Errors
    ///
    /// Returns an error if `t_red <= 0`.
    pub fn evaluate(&self, t_red: f64) -> Result<SystemReliability> {
        ensure_positive("t_red", t_red)?;
        let p = &self.partition;
        let mut rate = 0.0f64;
        for (count, replicas) in
            [(p.n_floor_set(), p.floor_replicas()), (p.n_ceil_set(), p.ceil_replicas())]
        {
            if count == 0 {
                continue;
            }
            let lifetime = sphere_mean_lifetime(replicas, self.node_mtbf, self.repair_rate)?;
            if lifetime.is_finite() {
                rate += count as f64 / lifetime;
            }
        }
        let mtbf = if rate == 0.0 { f64::INFINITY } else { 1.0 / rate };
        Ok(SystemReliability { reliability: (-rate * t_red).exp(), failure_rate: rate, mtbf })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mu_zero_is_the_harmonic_no_repair_lifetime() {
        // r exponential deaths, no repair: T = θ·(1 + 1/2 + … + 1/r).
        let theta = 50.0;
        for r in 1..=5u64 {
            let harmonic: f64 = (1..=r).map(|j| 1.0 / j as f64).sum();
            let got = sphere_mean_lifetime(r, theta, 0.0).unwrap();
            assert!(
                (got - theta * harmonic).abs() < 1e-9,
                "r={r}: got {got}, expect {}",
                theta * harmonic
            );
        }
    }

    #[test]
    fn lifetime_is_monotone_in_repair_rate() {
        let mut last = 0.0;
        for mu in [0.0, 0.01, 0.1, 1.0, 10.0] {
            let t = sphere_mean_lifetime(3, 100.0, mu).unwrap();
            assert!(t > last, "mu={mu}: {t} <= {last}");
            last = t;
        }
        // Strong repair makes a triple sphere effectively immortal compared
        // to the no-repair harmonic lifetime.
        assert!(last > 100.0 * (1.0 + 0.5 + 1.0 / 3.0) * 50.0);
    }

    #[test]
    fn singleton_spheres_cannot_be_repaired() {
        // r = 1 has no surviving donor: lifetime is θ for every μ.
        for mu in [0.0, 1.0, 1e6] {
            assert!((sphere_mean_lifetime(1, 42.0, mu).unwrap() - 42.0).abs() < 1e-12);
        }
    }

    #[test]
    fn duplex_lifetime_matches_closed_form() {
        // r = 2: h_0 = 1/(2λ), h_1 = (1 + μ·h_0)/λ,
        // T = 1/(2λ) + 1/λ + μ/(2λ²).
        let (theta, mu) = (20.0, 0.3);
        let lambda = 1.0 / theta;
        let expect = 1.0 / (2.0 * lambda) + 1.0 / lambda + mu / (2.0 * lambda * lambda);
        let got = sphere_mean_lifetime(2, theta, mu).unwrap();
        assert!((got - expect).abs() < 1e-9, "got {got} expect {expect}");
    }

    #[test]
    fn system_rate_adds_over_partition_sets() {
        // N = 10 at r = 1.5: 5 singles + 5 duals.
        let m = RepairModel::new(10, 1.5, 100.0, 0.5).unwrap();
        let t1 = sphere_mean_lifetime(1, 100.0, 0.5).unwrap();
        let t2 = sphere_mean_lifetime(2, 100.0, 0.5).unwrap();
        let expect = 5.0 / t1 + 5.0 / t2;
        let s = m.evaluate(1.0).unwrap();
        assert!((s.failure_rate - expect).abs() < 1e-12);
        assert!((s.failure_rate * s.mtbf - 1.0).abs() < 1e-12);
        assert!((s.reliability - (-expect).exp()).abs() < 1e-12);
    }

    #[test]
    fn repair_extends_system_mtbf() {
        let base = RepairModel::new(64, 2.0, 150.0, 0.0).unwrap().evaluate(10.0).unwrap();
        let healed = RepairModel::new(64, 2.0, 150.0, 0.2).unwrap().evaluate(10.0).unwrap();
        assert!(healed.mtbf > base.mtbf);
        assert!(healed.reliability > base.reliability);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(RepairModel::new(8, 2.0, 0.0, 0.1).is_err());
        assert!(RepairModel::new(8, 2.0, 100.0, -0.1).is_err());
        assert!(sphere_mean_lifetime(2, -1.0, 0.0).is_err());
        assert!(sphere_mean_lifetime(2, 10.0, -1.0).is_err());
        assert!(RepairModel::new(8, 2.0, 100.0, 0.1).unwrap().evaluate(0.0).is_err());
    }

    #[test]
    fn infinite_mtbf_never_fails() {
        let m = RepairModel::new(8, 2.0, f64::INFINITY, 0.0).unwrap();
        let s = m.evaluate(5.0).unwrap();
        assert_eq!(s.failure_rate, 0.0);
        assert!(s.mtbf.is_infinite());
        assert_eq!(s.reliability, 1.0);
    }
}
