//! Checkpoint/restart execution-time model (paper Section 4.2, Eqs. 11–15).
//!
//! The application alternates *work segments* of length `δ` with *checkpoint
//! phases* of length `c`. Failures arrive with rate `λ = 1/Θ` (system MTBF
//! `Θ` from Eq. 10) at any time, including during checkpointing, restart and
//! rework. Each failure costs a restart of (up to) `R` plus the recomputation
//! of the work lost since the last completed checkpoint.

use crate::error::{ensure_non_negative, ensure_positive, ModelError};
use crate::Result;

/// Expected lost work per failure, `t_lw` (Eq. 12):
///
/// ```text
/// t_lw = [Θ − Θ·e^{−δ/Θ} − δ·e^{−δc/Θ}] / (1 − e^{−δc/Θ}),   δc = δ + c
/// ```
///
/// Derived from the segment-phase failure PDF: a failure at offset
/// `0 ≤ t ≤ δ` into a segment loses `t` of work; a failure during the
/// checkpoint phase (`δ < t ≤ δ+c`) loses the whole segment `δ`.
///
/// The result always satisfies `0 ≤ t_lw ≤ δ`.
///
/// # Errors
///
/// Returns an error if `delta <= 0`, `c < 0`, or `theta <= 0`.
pub fn lost_work(delta: f64, c: f64, theta: f64) -> Result<f64> {
    ensure_positive("delta", delta)?;
    ensure_non_negative("c", c)?;
    ensure_positive("theta", theta)?;
    let dc = delta + c;
    if dc / theta < 1e-9 {
        // Θ ≫ δ+c: failures land uniformly within the segment; the exact
        // formula is 0/0-degenerate in f64, so use the series limit
        // t_lw -> δ·(δ/2 + c)/(δ + c).
        return Ok(delta * (delta / 2.0 + c) / dc);
    }
    let denom = -(-dc / theta).exp_m1(); // 1 - e^{-dc/Θ}, precise for small dc/Θ
                                         // num = Θ·(1 − e^{−δ/Θ}) − δ·e^{−(δ+c)/Θ}, via expm1 for precision.
    let num = -theta * (-delta / theta).exp_m1() - delta * (-dc / theta).exp();
    Ok((num / denom).clamp(0.0, delta))
}

/// Expected duration of the combined restart+rework phase, `t_RR` (Eq. 13).
///
/// The phase nominally lasts `R + t_lw`; because failures can strike during
/// the phase itself, its expected duration is
///
/// ```text
/// t_RR = (1 − e^{−x/Θ})·[Θ − e^{−x/Θ}(x + Θ)] + e^{−x/Θ}·x,   x = R + t_lw
/// ```
///
/// # Errors
///
/// Returns an error if `restart < 0`, `t_lw < 0`, or `theta <= 0`.
pub fn restart_rework(restart: f64, t_lw: f64, theta: f64) -> Result<f64> {
    ensure_non_negative("restart", restart)?;
    ensure_non_negative("t_lw", t_lw)?;
    ensure_positive("theta", theta)?;
    let x = restart + t_lw;
    let e = (-x / theta).exp();
    let fail_before = 1.0 - e;
    // Expected time of a failure conditioned... the paper keeps the
    // unconditioned truncated mean: ∫0^x t·(1/Θ)e^{−t/Θ} dt = Θ − e^{−x/Θ}(x+Θ).
    let truncated_mean = theta - e * (x + theta);
    Ok(fail_before * truncated_mean + e * x)
}

/// Total expected completion time `T_total` (Eq. 14):
///
/// `T_total = (t + t·c/δ) / (1 − λ·t_RR)`
///
/// # Errors
///
/// Returns [`ModelError::Diverged`] when `λ·t_RR >= 1` — the system fails
/// faster than it can recover, so the job never completes. Returns
/// [`ModelError::InvalidParameter`] for out-of-domain inputs.
pub fn total_time(t: f64, c: f64, delta: f64, lambda: f64, t_rr: f64) -> Result<f64> {
    ensure_non_negative("t", t)?;
    ensure_non_negative("c", c)?;
    ensure_positive("delta", delta)?;
    ensure_non_negative("lambda", lambda)?;
    ensure_non_negative("t_rr", t_rr)?;
    let loss = lambda * t_rr;
    if loss >= 1.0 {
        return Err(ModelError::Diverged { failure_rate: lambda, restart_rework: t_rr });
    }
    Ok((t + t * c / delta) / (1.0 - loss))
}

/// Daly's higher-order optimal checkpoint interval (Eq. 15):
///
/// ```text
/// δ_opt = √(2cΘ)·[1 + ⅓·(c/2Θ)^½ + ⅑·(c/2Θ)] − c
/// ```
///
/// Valid for `c < 2Θ`; for `c ≥ 2Θ` Daly prescribes `δ_opt = Θ` (the system
/// fails about once per checkpoint — checkpointing is hopeless anyway).
///
/// # Errors
///
/// Returns an error if `c <= 0` or `theta <= 0`.
pub fn daly_interval(c: f64, theta: f64) -> Result<f64> {
    ensure_positive("c", c)?;
    ensure_positive("theta", theta)?;
    if c >= 2.0 * theta {
        return Ok(theta);
    }
    let ratio = c / (2.0 * theta);
    let delta = (2.0 * c * theta).sqrt() * (1.0 + ratio.sqrt() / 3.0 + ratio / 9.0) - c;
    Ok(delta.max(c.min(theta)))
}

/// Young's first-order optimal interval, `δ = √(2cΘ)` (for ablation against
/// [`daly_interval`]).
///
/// # Errors
///
/// Returns an error if `c <= 0` or `theta <= 0`.
pub fn young_interval(c: f64, theta: f64) -> Result<f64> {
    ensure_positive("c", c)?;
    ensure_positive("theta", theta)?;
    Ok((2.0 * c * theta).sqrt())
}

/// Numerically minimizes `T_total(δ)` (Eq. 14, with Eq. 12–13 substituted)
/// via golden-section search over `δ ∈ [c/100, 100·Θ]`: the reference
/// [`daly_interval`] is checked against.
///
/// # Errors
///
/// Returns an error for out-of-domain `c`/`theta`, or
/// [`ModelError::NoSolution`] if every interval in the bracket diverges.
pub fn optimal_interval_numeric(c: f64, theta: f64) -> Result<f64> {
    ensure_positive("c", c)?;
    ensure_positive("theta", theta)?;
    // Objective: per-unit-work overhead factor; t cancels, use t = 1, R = 0
    // (R shifts the objective by a delta-independent amount only through
    // t_RR, which is monotone in t_lw; including a nominal R keeps the
    // minimum location essentially identical).
    let obj = |delta: f64| -> f64 {
        let t_lw = match lost_work(delta, c, theta) {
            Ok(v) => v,
            Err(_) => return f64::INFINITY,
        };
        let t_rr = match restart_rework(0.0, t_lw, theta) {
            Ok(v) => v,
            Err(_) => return f64::INFINITY,
        };
        total_time(1.0, c, delta, 1.0 / theta, t_rr).unwrap_or(f64::INFINITY)
    };
    // The objective is not globally unimodal (a nearly-flat tail where
    // t_lw saturates at Θ slopes gently downward through the c/δ term), so
    // first locate the basin with a coarse logarithmic scan, then refine
    // with golden-section inside the bracketing neighbours.
    let (scan_lo, scan_hi) = (c / 100.0, 100.0 * theta);
    const SCAN: usize = 256;
    let log_lo = scan_lo.ln();
    let step = (scan_hi / scan_lo).ln() / (SCAN - 1) as f64;
    let mut best_i = 0usize;
    let mut best_f = f64::INFINITY;
    for i in 0..SCAN {
        let d = (log_lo + step * i as f64).exp();
        let f = obj(d);
        if f < best_f {
            best_f = f;
            best_i = i;
        }
    }
    if !best_f.is_finite() {
        return Err(ModelError::NoSolution { what: "optimal checkpoint interval" });
    }
    let (mut lo, mut hi) = (
        (log_lo + step * best_i.saturating_sub(1) as f64).exp(),
        (log_lo + step * (best_i + 1).min(SCAN - 1) as f64).exp(),
    );
    const PHI: f64 = 0.618_033_988_749_894_8;
    let mut m1 = hi - PHI * (hi - lo);
    let mut m2 = lo + PHI * (hi - lo);
    let (mut f1, mut f2) = (obj(m1), obj(m2));
    for _ in 0..200 {
        if f1 <= f2 {
            hi = m2;
            m2 = m1;
            f2 = f1;
            m1 = hi - PHI * (hi - lo);
            f1 = obj(m1);
        } else {
            lo = m1;
            m1 = m2;
            f1 = f2;
            m2 = lo + PHI * (hi - lo);
            f2 = obj(m2);
        }
        if (hi - lo) / hi < 1e-10 {
            break;
        }
    }
    let best = 0.5 * (lo + hi);
    if obj(best).is_finite() {
        Ok(best)
    } else {
        Err(ModelError::NoSolution { what: "optimal checkpoint interval" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lost_work_bounded_by_delta() {
        for theta in [0.5, 1.0, 10.0, 1e4] {
            for delta in [0.01, 0.1, 1.0, 5.0] {
                let t_lw = lost_work(delta, 0.05, theta).unwrap();
                assert!(t_lw >= 0.0 && t_lw <= delta, "theta={theta} delta={delta}: {t_lw}");
            }
        }
    }

    #[test]
    fn lost_work_small_segment_is_about_half_delta() {
        // When δ+c ≪ Θ, failures land uniformly; expected loss ≈ δ(δ/2+c)/(δ+c).
        let (delta, c, theta) = (1.0, 0.1, 1e6);
        let t_lw = lost_work(delta, c, theta).unwrap();
        let expect = delta * (delta / 2.0 + c) / (delta + c);
        assert!((t_lw - expect).abs() < 1e-3, "{t_lw} vs {expect}");
    }

    #[test]
    fn lost_work_huge_theta_uses_series_limit() {
        let t_lw = lost_work(1.0, 0.1, f64::MAX / 4.0).unwrap();
        let expect = 1.0 * (0.5 + 0.1) / 1.1;
        assert!((t_lw - expect).abs() < 1e-9);
    }

    #[test]
    fn restart_rework_at_least_shrinks_gracefully() {
        // With Θ huge, t_RR -> R + t_lw (failure during recovery negligible).
        let t_rr = restart_rework(0.2, 0.3, 1e9).unwrap();
        assert!((t_rr - 0.5).abs() < 1e-6);
        // With Θ small, t_RR is dominated by the truncated mean and is below
        // R + t_lw.
        let t_rr = restart_rework(5.0, 5.0, 1.0).unwrap();
        assert!(t_rr < 10.0);
        assert!(t_rr > 0.0);
    }

    #[test]
    fn total_time_eq14() {
        // No failures: T = t(1 + c/δ).
        let t = total_time(100.0, 1.0, 10.0, 0.0, 0.0).unwrap();
        assert!((t - 110.0).abs() < 1e-9);
        // λ·t_RR = 0.5 doubles the time.
        let t = total_time(100.0, 1.0, 10.0, 0.5, 1.0).unwrap();
        assert!((t - 220.0).abs() < 1e-9);
    }

    #[test]
    fn total_time_diverges() {
        let err = total_time(100.0, 1.0, 10.0, 1.0, 1.0).unwrap_err();
        assert!(matches!(err, ModelError::Diverged { .. }));
    }

    #[test]
    fn daly_matches_first_order_for_small_c() {
        // For c ≪ Θ, Daly ≈ Young.
        let c = 1e-4;
        let theta = 100.0;
        let d = daly_interval(c, theta).unwrap();
        let y = young_interval(c, theta).unwrap();
        assert!((d - y).abs() / y < 0.01, "daly={d} young={y}");
    }

    #[test]
    fn daly_caps_at_theta_for_large_c() {
        assert_eq!(daly_interval(10.0, 1.0).unwrap(), 1.0);
    }

    #[test]
    fn daly_paper_ratio_sqrt_10() {
        // Section 4.3: changing c by 10x changes δ_opt by about √10
        // (Figures 4 vs 6: δ = 22.9 vs 7.2).
        let theta = 1572.0; // hours; implied system MTBF of the figures
        let d1 = daly_interval(600.0 / 3600.0, theta).unwrap();
        let d2 = daly_interval(60.0 / 3600.0, theta).unwrap();
        let ratio = d1 / d2;
        assert!((ratio - 10f64.sqrt()).abs() < 0.1, "ratio {ratio}");
        // And the absolute values land near the paper's annotations.
        assert!((d1 - 22.9).abs() < 0.5, "d1={d1}");
        assert!((d2 - 7.2).abs() < 0.3, "d2={d2}");
    }

    #[test]
    fn numeric_optimum_close_to_daly() {
        let (c, theta) = (0.2, 100.0);
        let daly = daly_interval(c, theta).unwrap();
        let num = optimal_interval_numeric(c, theta).unwrap();
        assert!((num - daly).abs() / daly < 0.15, "numeric {num} vs daly {daly}");
    }

    #[test]
    fn domain_errors() {
        assert!(lost_work(0.0, 0.1, 1.0).is_err());
        assert!(restart_rework(-1.0, 0.0, 1.0).is_err());
        assert!(daly_interval(0.0, 1.0).is_err());
        assert!(young_interval(1.0, 0.0).is_err());
    }
}
