//! Node and replica-sphere reliability (paper Eqs. 2–4).
//!
//! Node failures are assumed to arrive as a Poisson process (paper
//! assumption 3), so a node's survival probability over time `t` is
//! `R(t) = e^{−t/θ}` with MTBF `θ`. For large `θ` the paper linearizes the
//! failure probability to `t/θ` (Eq. 3). The system model uses the linear
//! form; the exact one stays as the reference its ablation compares against.

use crate::error::{ensure_non_negative, ensure_positive};
use crate::Result;

/// Which functional form to use for single-node failure probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approximation {
    /// The paper's first-order form `Pr(fail) = t/θ` (Eq. 3), clamped to 1.
    ///
    /// This is the form used throughout the paper's Section 4 derivations,
    /// and the one [`SystemModel`](crate::redundancy::SystemModel) uses.
    Linear,
    /// The exact exponential `Pr(fail) = 1 − e^{−t/θ}` (Eq. 2).
    Exact,
}

/// Probability that a single node survives until time `t` (reliability).
///
/// `R(t) = e^{−t/θ}` for [`Approximation::Exact`], `1 − t/θ` (clamped to
/// `[0, 1]`) for [`Approximation::Linear`].
///
/// # Errors
///
/// Returns an error if `t < 0` or `theta <= 0`.
pub fn node_reliability(t: f64, theta: f64, approx: Approximation) -> Result<f64> {
    ensure_non_negative("t", t)?;
    ensure_positive("theta", theta)?;
    Ok(match approx {
        Approximation::Exact => (-t / theta).exp(),
        Approximation::Linear => (1.0 - t / theta).clamp(0.0, 1.0),
    })
}

/// Probability that a single node fails before time `t` (Eqs. 2–3).
///
/// # Errors
///
/// Returns an error if `t < 0` or `theta <= 0`.
pub fn node_failure_probability(t: f64, theta: f64, approx: Approximation) -> Result<f64> {
    Ok(1.0 - node_reliability(t, theta, approx)?)
}

/// Reliability of a replica *sphere* of `k` i.i.d. nodes (Eq. 4):
/// the sphere survives unless **all** `k` replicas fail,
/// `R_red(t) = 1 − Pr(fail)^k`.
///
/// # Errors
///
/// Returns an error if `t < 0`, `theta <= 0`, or `k == 0`.
pub fn sphere_reliability(t: f64, theta: f64, k: u64, approx: Approximation) -> Result<f64> {
    if k == 0 {
        return Err(crate::ModelError::InvalidParameter {
            name: "k",
            value: 0.0,
            reason: "a sphere must contain at least one replica",
        });
    }
    let pf = node_failure_probability(t, theta, approx)?;
    Ok(1.0 - pf.powi(k as i32))
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn exact_reliability_is_exponential() {
        let r = node_reliability(1.0, 2.0, Approximation::Exact).unwrap();
        assert!((r - (-0.5f64).exp()).abs() < EPS);
    }

    #[test]
    fn linear_reliability_matches_paper_eq3() {
        let r = node_reliability(1.0, 10.0, Approximation::Linear).unwrap();
        assert!((r - 0.9).abs() < EPS);
        // Clamped when t > theta.
        let r = node_reliability(20.0, 10.0, Approximation::Linear).unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn linear_approximates_exact_for_large_theta() {
        let exact = node_failure_probability(1.0, 1e6, Approximation::Exact).unwrap();
        let linear = node_failure_probability(1.0, 1e6, Approximation::Linear).unwrap();
        assert!((exact - linear).abs() < 1e-9);
    }

    #[test]
    fn sphere_reliability_eq4() {
        // k = 2, t/theta = 0.1 -> R = 1 - 0.01 = 0.99.
        let r = sphere_reliability(1.0, 10.0, 2, Approximation::Linear).unwrap();
        assert!((r - 0.99).abs() < EPS);
        // k = 3 -> 1 - 1e-3.
        let r = sphere_reliability(1.0, 10.0, 3, Approximation::Linear).unwrap();
        assert!((r - 0.999).abs() < EPS);
    }

    #[test]
    fn more_replicas_never_hurt() {
        let mut last = 0.0;
        for k in 1..=6 {
            let r = sphere_reliability(2.0, 10.0, k, Approximation::Exact).unwrap();
            assert!(r >= last, "k={k}");
            last = r;
        }
    }

    #[test]
    fn zero_time_is_perfectly_reliable() {
        for approx in [Approximation::Linear, Approximation::Exact] {
            assert_eq!(node_reliability(0.0, 5.0, approx).unwrap(), 1.0);
            assert_eq!(sphere_reliability(0.0, 5.0, 2, approx).unwrap(), 1.0);
        }
    }

    #[test]
    fn sphere_rejects_zero_replicas() {
        assert!(sphere_reliability(1.0, 10.0, 0, Approximation::Linear).is_err());
    }
}
