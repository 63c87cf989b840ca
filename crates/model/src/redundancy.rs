//! Redundant execution time and system-level reliability under partial
//! redundancy (paper Eq. 1 and Eqs. 9–10).

use crate::error::{ensure_in_range, ensure_non_negative, ensure_positive};
use crate::partition::RedundancyPartition;
use crate::reliability::{node_failure_probability, Approximation};
use crate::Result;

/// Execution time under redundancy degree `r` (Eq. 1):
///
/// `t_Red = (1 − α)·t + α·t·r`
///
/// where `α` is the communication/computation ratio of the application. Only
/// communication is slowed down: the replication layer turns each virtual
/// point-to-point call into `r` physical calls.
///
/// # Errors
///
/// Returns an error if `t < 0`, `alpha ∉ [0, 1]`, or `r < 1`.
pub fn redundant_time(t: f64, alpha: f64, r: f64) -> Result<f64> {
    ensure_non_negative("t", t)?;
    ensure_in_range("alpha", alpha, 0.0, 1.0)?;
    ensure_in_range("r", r, 1.0, crate::partition::MAX_DEGREE)?;
    Ok((1.0 - alpha) * t + alpha * t * r)
}

/// A system of `N` virtual processes at redundancy degree `r`, used to
/// evaluate Eqs. 9–10.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemModel {
    partition: RedundancyPartition,
    /// Per-node MTBF `θ` (same unit as the times passed to methods).
    node_mtbf: f64,
}

/// System-level reliability figures derived from Eqs. 9–10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemReliability {
    /// `R_sys`: probability that every virtual process survives the horizon.
    pub reliability: f64,
    /// `λ_sys = −ln(R_sys)/t_Red` (Eq. 10).
    pub failure_rate: f64,
    /// `Θ_sys = 1/λ_sys` (Eq. 10).
    pub mtbf: f64,
}

impl SystemModel {
    /// Creates a system model.
    ///
    /// # Errors
    ///
    /// Returns an error if the partition parameters are invalid (see
    /// [`RedundancyPartition::new`]) or `node_mtbf <= 0`.
    pub fn new(n_virtual: u64, degree: f64, node_mtbf: f64) -> Result<Self> {
        ensure_positive("node_mtbf", node_mtbf)?;
        Ok(Self { partition: RedundancyPartition::new(n_virtual, degree)?, node_mtbf })
    }

    /// The underlying partial-redundancy partition.
    pub fn partition(&self) -> &RedundancyPartition {
        &self.partition
    }

    /// Per-node MTBF `θ`.
    pub fn node_mtbf(&self) -> f64 {
        self.node_mtbf
    }

    /// `R_sys` over horizon `t_red` (Eq. 9):
    ///
    /// `R_sys = [1 − (t/θ)^⌊r⌋]^{N⌊r⌋} · [1 − (t/θ)^⌈r⌉]^{N⌈r⌉}`
    ///
    /// i.e. all `N⌊r⌋` less-replicated spheres *and* all `N⌈r⌉`
    /// more-replicated spheres survive.
    ///
    /// # Errors
    ///
    /// Returns an error if `t_red < 0`.
    pub fn system_reliability(&self, t_red: f64) -> Result<f64> {
        ensure_non_negative("t_red", t_red)?;
        let pf = node_failure_probability(t_red, self.node_mtbf, Approximation::Linear)?;
        let p = &self.partition;
        // Work in log space: N can be ~10^6 and the factors are close to 1.
        let mut log_r = 0.0f64;
        if p.n_floor_set() > 0 {
            let sphere = 1.0 - pf.powi(p.floor_replicas() as i32);
            if sphere <= 0.0 {
                return Ok(0.0);
            }
            log_r += p.n_floor_set() as f64 * sphere.ln();
        }
        if p.n_ceil_set() > 0 {
            let sphere = 1.0 - pf.powi(p.ceil_replicas() as i32);
            if sphere <= 0.0 {
                return Ok(0.0);
            }
            log_r += p.n_ceil_set() as f64 * sphere.ln();
        }
        Ok(log_r.exp())
    }

    /// Failure rate, MTBF and reliability of the whole system over horizon
    /// `t_red` (Eq. 10).
    ///
    /// When `R_sys` underflows to zero the failure rate is reported as
    /// `f64::INFINITY` and the MTBF as `0.0`.
    ///
    /// # Errors
    ///
    /// Returns an error if `t_red <= 0`.
    pub fn evaluate(&self, t_red: f64) -> Result<SystemReliability> {
        ensure_positive("t_red", t_red)?;
        // λ_sys = −ln(R_sys)/t_Red. Compute in log space directly so that
        // the rate stays finite and meaningful even when R_sys itself
        // underflows to 0 (long horizons at large N), and keeps precision
        // when R_sys ≈ 1 (exascale-small failure probabilities). The rate
        // is genuinely infinite only when a sphere's failure within the
        // horizon is *certain* (pf^k = 1 under the linear approximation).
        let pf = node_failure_probability(t_red, self.node_mtbf, Approximation::Linear)?;
        let p = &self.partition;
        let mut neg_log = 0.0f64;
        for (count, replicas) in
            [(p.n_floor_set(), p.floor_replicas()), (p.n_ceil_set(), p.ceil_replicas())]
        {
            if count == 0 {
                continue;
            }
            let sphere_fail = pf.powi(replicas as i32);
            if sphere_fail >= 1.0 {
                neg_log = f64::INFINITY;
                break;
            }
            neg_log -= count as f64 * (-sphere_fail).ln_1p();
        }
        let reliability = (-neg_log).exp();
        let failure_rate = neg_log / t_red;
        let mtbf = if failure_rate == 0.0 { f64::INFINITY } else { 1.0 / failure_rate };
        Ok(SystemReliability { reliability, failure_rate, mtbf })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundant_time_eq1() {
        // alpha = 0.2, t = 100, r = 2 -> 80 + 40 = 120.
        let t = redundant_time(100.0, 0.2, 2.0).unwrap();
        assert!((t - 120.0).abs() < 1e-12);
        // r = 1 leaves time unchanged.
        assert_eq!(redundant_time(100.0, 0.2, 1.0).unwrap(), 100.0);
        // alpha = 0: redundancy is free.
        assert_eq!(redundant_time(100.0, 0.0, 3.0).unwrap(), 100.0);
        // alpha = 1: time scales linearly with r.
        assert_eq!(redundant_time(100.0, 1.0, 3.0).unwrap(), 300.0);
    }

    #[test]
    fn redundant_time_rejects_bad_inputs() {
        assert!(redundant_time(-1.0, 0.2, 2.0).is_err());
        assert!(redundant_time(1.0, 1.2, 2.0).is_err());
        assert!(redundant_time(1.0, 0.2, 0.9).is_err());
    }

    #[test]
    fn integral_degree_reliability_matches_closed_form() {
        let m = SystemModel::new(100, 2.0, 10.0).unwrap();
        let t = 1.0;
        // R = (1 - (t/theta)^2)^100 with t/theta = 0.1.
        let expect = (1.0f64 - (0.1f64).powi(2)).powi(100);
        let got = m.system_reliability(t).unwrap();
        assert!((got - expect).abs() < 1e-9, "got {got} expect {expect}");
    }

    #[test]
    fn partial_degree_reliability_is_product_of_sets() {
        let m = SystemModel::new(10, 1.5, 10.0).unwrap();
        let t = 1.0;
        // 5 singles, 5 duals: (1-0.1)^5 * (1-0.01)^5
        let expect = 0.9f64.powi(5) * 0.99f64.powi(5);
        let got = m.system_reliability(t).unwrap();
        assert!((got - expect).abs() < 1e-9);
    }

    #[test]
    fn reliability_increases_with_degree() {
        let t = 1.0;
        let mut last = 0.0;
        for r in [1.0, 1.5, 2.0, 2.5, 3.0] {
            let m = SystemModel::new(1000, r, 50.0).unwrap();
            let rel = m.system_reliability(t).unwrap();
            assert!(rel >= last, "r={r}: {rel} < {last}");
            last = rel;
        }
    }

    #[test]
    fn failure_rate_and_mtbf_are_consistent() {
        let m = SystemModel::new(128, 2.0, 12.0).unwrap();
        let s = m.evaluate(2.0).unwrap();
        assert!((s.failure_rate * s.mtbf - 1.0).abs() < 1e-9);
        // Cross-check λ against the direct formula.
        let direct = -s.reliability.ln() / 2.0;
        assert!((s.failure_rate - direct).abs() / direct < 1e-6);
    }

    #[test]
    fn dead_system_reports_infinite_rate() {
        // t >= theta with linear approximation: every node surely fails.
        let m = SystemModel::new(4, 1.0, 1.0).unwrap();
        let s = m.evaluate(2.0).unwrap();
        assert_eq!(s.reliability, 0.0);
        assert!(s.failure_rate.is_infinite());
        assert_eq!(s.mtbf, 0.0);
    }

    #[test]
    fn exascale_scale_does_not_underflow() {
        // 10^6 nodes, 5-year MTBF, 128-hour horizon, dual redundancy: the
        // per-sphere failure probability is ~(128/43800)^2 ~ 8.5e-6; R_sys
        // should be well-defined and the rate finite and positive.
        let theta = crate::units::hours_from_years(5.0);
        let m = SystemModel::new(1_000_000, 2.0, theta).unwrap();
        let s = m.evaluate(128.0).unwrap();
        assert!(s.reliability > 0.0 && s.reliability < 1.0);
        assert!(s.failure_rate > 0.0 && s.failure_rate.is_finite());
    }

    #[test]
    fn higher_node_mtbf_improves_system_mtbf() {
        let a = SystemModel::new(128, 2.0, 6.0).unwrap().evaluate(1.0).unwrap();
        let b = SystemModel::new(128, 2.0, 30.0).unwrap().evaluate(1.0).unwrap();
        assert!(b.mtbf > a.mtbf);
    }
}
