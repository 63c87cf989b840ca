//! Optimal configuration search: best redundancy degree (each at Daly's
//! checkpoint interval), weighted time-vs-resource cost functions, and the
//! crossover finders behind Figures 13–14.
//!
//! The paper's central practical claim is that redundancy is a *tuning knob*:
//! HPC users can trade additional nodes for shorter wallclock time. The
//! functions here mechanize that trade-off.

use crate::combined::{CombinedConfig, CombinedOutcome};
use crate::{ModelError, Result};

/// A grid of candidate redundancy degrees.
#[derive(Debug, Clone, PartialEq)]
pub struct RGrid(Vec<f64>);

impl RGrid {
    /// Builds a grid from explicit degrees.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty or any degree is out of range.
    pub fn new(degrees: Vec<f64>) -> Result<Self> {
        if degrees.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "degrees",
                value: 0.0,
                reason: "grid must contain at least one degree",
            });
        }
        for &d in &degrees {
            crate::error::ensure_in_range(
                "degree",
                d,
                crate::partition::MIN_DEGREE,
                crate::partition::MAX_DEGREE,
            )?;
        }
        Ok(Self(degrees))
    }

    /// The paper's experimental grid: `1x` to `3x` in steps of `0.25x`.
    pub fn quarter_steps() -> Self {
        Self((0..=8).map(|i| 1.0 + 0.25 * i as f64).collect())
    }

    /// The degrees plotted in Figures 13–14: `{1, 1.5, 2, 2.5, 3}`.
    pub fn half_steps() -> Self {
        Self(vec![1.0, 1.5, 2.0, 2.5, 3.0])
    }

    /// The degrees in the grid.
    pub fn degrees(&self) -> &[f64] {
        &self.0
    }
}

/// Result of a redundancy-degree search.
#[derive(Debug, Clone, PartialEq)]
pub struct BestDegree {
    /// The winning degree.
    pub degree: f64,
    /// The model outcome at that degree.
    pub outcome: CombinedOutcome,
    /// Outcomes for every evaluated degree (degree, total time, or `None`
    /// where the model diverged).
    pub sweep: Vec<(f64, Option<f64>)>,
}

/// Evaluates `cfg` at each degree in `grid` and returns the degree with the
/// minimum expected total time. Diverging configurations (Eq. 14 blow-up)
/// are skipped.
///
/// # Errors
///
/// Returns [`ModelError::NoSolution`] if *every* degree diverges, or a
/// domain error for invalid base parameters.
pub fn optimal_redundancy(cfg: &CombinedConfig, grid: &RGrid) -> Result<BestDegree> {
    optimal_by_cost(cfg, grid, &CostWeights::time_only())
}

/// Relative weights for the combined time/resource cost function.
///
/// The cost of an outcome is
/// `time_weight · T_total + resource_weight · N_total · T_total`
/// (wallclock hours and node-hours respectively). A user who only cares
/// about finishing fast uses [`CostWeights::time_only`]; a capacity-computing
/// site that pays per node-hour uses [`CostWeights::resources_only`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the wallclock term, per hour.
    pub time_weight: f64,
    /// Weight of the resource term, per node-hour.
    pub resource_weight: f64,
}

impl CostWeights {
    /// Pure wallclock minimization.
    pub fn time_only() -> Self {
        Self { time_weight: 1.0, resource_weight: 0.0 }
    }

    /// Pure node-hour minimization.
    pub fn resources_only() -> Self {
        Self { time_weight: 0.0, resource_weight: 1.0 }
    }

    /// The scalar cost of an outcome under these weights.
    pub fn cost(&self, outcome: &CombinedOutcome) -> f64 {
        self.time_weight * outcome.total_time + self.resource_weight * outcome.node_hours
    }
}

/// Like [`optimal_redundancy`] but minimizing an arbitrary weighted cost.
///
/// # Errors
///
/// See [`optimal_redundancy`].
pub fn optimal_by_cost(
    cfg: &CombinedConfig,
    grid: &RGrid,
    weights: &CostWeights,
) -> Result<BestDegree> {
    let mut best: Option<(f64, CombinedOutcome, f64)> = None;
    let mut sweep = Vec::with_capacity(grid.degrees().len());
    for &r in grid.degrees() {
        match cfg.with_degree(r).evaluate() {
            Ok(outcome) => {
                let cost = weights.cost(&outcome);
                sweep.push((r, Some(outcome.total_time)));
                let better = match &best {
                    None => true,
                    Some((_, _, c)) => cost < *c,
                };
                if better {
                    best = Some((r, outcome, cost));
                }
            }
            Err(ModelError::Diverged { .. }) => sweep.push((r, None)),
            Err(e) => return Err(e),
        }
    }
    match best {
        Some((degree, outcome, _)) => Ok(BestDegree { degree, outcome, sweep }),
        None => Err(ModelError::NoSolution { what: "optimal redundancy degree (all diverge)" }),
    }
}

/// Total expected time at degree `r` for `n` virtual processes, or `None`
/// when the model diverges. Convenience for scaling sweeps.
pub fn time_at(cfg: &CombinedConfig, n: u64, r: f64) -> Option<f64> {
    cfg.with_virtual_processes(n).with_degree(r).evaluate().ok().map(|o| o.total_time)
}

/// Finds the smallest process count `n ∈ [lo, hi]` at which degree `r_b`
/// completes no later than degree `r_a` — the crossover points of
/// Figures 13–14 (e.g. 1x/2x at ≈ 4 351 processes).
///
/// A diverging configuration is treated as "infinitely slow".
///
/// # Errors
///
/// Returns [`ModelError::NoSolution`] if `r_b` never wins in the range.
pub fn crossover(cfg: &CombinedConfig, r_a: f64, r_b: f64, lo: u64, hi: u64) -> Result<u64> {
    first_in_range(lo, hi, "redundancy crossover in range", |n| {
        let ta = time_at(cfg, n, r_a).unwrap_or(f64::INFINITY);
        let tb = time_at(cfg, n, r_b).unwrap_or(f64::INFINITY);
        tb.is_finite() && tb <= ta
    })
}

/// Finds the smallest process count at which running the job at degree
/// `r` is at least `factor` times faster than running it without redundancy
/// — e.g. `factor = 2` gives the paper's "two dual-redundant 128-hour jobs
/// finish within one non-redundant job" point (≈ 78 536 processes).
///
/// # Errors
///
/// Returns [`ModelError::NoSolution`] if the speedup never reaches `factor`
/// in `[lo, hi]`, and [`ModelError::InvalidParameter`] for `factor <= 0`
/// or a range that is not `1 <= lo <= hi`.
pub fn throughput_break_even(
    cfg: &CombinedConfig,
    r: f64,
    factor: f64,
    lo: u64,
    hi: u64,
) -> Result<u64> {
    crate::error::ensure_positive("factor", factor)?;
    first_in_range(lo, hi, "throughput break-even in range", |n| {
        let t1 = time_at(cfg, n, 1.0).unwrap_or(f64::INFINITY);
        let tr = time_at(cfg, n, r).unwrap_or(f64::INFINITY);
        // A 1x job that cannot finish at all is beaten by any that can.
        tr.is_finite() && (!t1.is_finite() || t1 >= factor * tr)
    })
}

/// The first `n` in `[lo, hi]` where `holds` is true, assuming it is a
/// monotone threshold in `n` (failure impact grows with scale): `holds` is
/// probed only inside the range.
///
/// # Errors
///
/// Returns [`ModelError::InvalidParameter`] unless `1 <= lo <= hi`, and
/// [`ModelError::NoSolution`] naming `what` if `holds(hi)` is false.
fn first_in_range(
    lo: u64,
    hi: u64,
    what: &'static str,
    holds: impl Fn(u64) -> bool,
) -> Result<u64> {
    if lo == 0 || hi < lo {
        return Err(ModelError::InvalidParameter {
            name: "lo/hi",
            value: lo as f64,
            reason: "need 1 <= lo <= hi",
        });
    }
    if !holds(hi) {
        return Err(ModelError::NoSolution { what });
    }
    if holds(lo) {
        return Ok(lo);
    }
    let (mut lo, mut hi) = (lo, hi);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units;

    /// Weak-scaling configuration in the spirit of Figures 13–14: a 128-hour
    /// job, 5-year per-node MTBF.
    fn scaling_config() -> CombinedConfig {
        CombinedConfig::builder()
            .virtual_processes(10_000)
            .base_time_hours(128.0)
            .node_mtbf_hours(units::hours_from_years(5.0))
            .comm_fraction(0.2)
            .checkpoint_cost_hours(units::hours_from_mins(10.0))
            .restart_cost_hours(units::hours_from_mins(30.0))
            .build()
            .unwrap()
    }

    #[test]
    fn grid_constructors() {
        assert_eq!(RGrid::quarter_steps().degrees().len(), 9);
        assert_eq!(RGrid::half_steps().degrees(), &[1.0, 1.5, 2.0, 2.5, 3.0]);
        assert!(RGrid::new(vec![]).is_err());
        assert!(RGrid::new(vec![0.5]).is_err());
    }

    #[test]
    fn small_scale_prefers_no_redundancy() {
        // 16 processes with 5-year MTBF: failures are negligible, the
        // communication overhead of replication dominates.
        let cfg = scaling_config().with_virtual_processes(16);
        let best = optimal_redundancy(&cfg, &RGrid::half_steps()).unwrap();
        assert_eq!(best.degree, 1.0, "sweep: {:?}", best.sweep);
    }

    #[test]
    fn large_scale_prefers_dual_redundancy() {
        let cfg = scaling_config().with_virtual_processes(100_000);
        let best = optimal_redundancy(&cfg, &RGrid::half_steps()).unwrap();
        assert!(best.degree >= 2.0, "sweep: {:?}", best.sweep);
    }

    #[test]
    fn sweep_records_every_degree() {
        let cfg = scaling_config();
        let best = optimal_redundancy(&cfg, &RGrid::quarter_steps()).unwrap();
        assert_eq!(best.sweep.len(), 9);
        // The reported outcome is the model's prediction at the winner.
        assert_eq!(best.outcome, cfg.with_degree(best.degree).evaluate().unwrap());
    }

    #[test]
    fn resource_weighting_prefers_lower_degree() {
        let cfg = scaling_config().with_virtual_processes(50_000);
        let by_time =
            optimal_by_cost(&cfg, &RGrid::half_steps(), &CostWeights::time_only()).unwrap();
        let by_resources =
            optimal_by_cost(&cfg, &RGrid::half_steps(), &CostWeights::resources_only()).unwrap();
        assert!(by_resources.degree <= by_time.degree);
    }

    #[test]
    fn crossover_is_found_and_ordered() {
        let cfg = scaling_config();
        let x12 = crossover(&cfg, 1.0, 2.0, 100, 1_000_000).unwrap();
        let x13 = crossover(&cfg, 1.0, 3.0, 100, 1_000_000).unwrap();
        // Dual redundancy starts paying off before triple (Figure 13).
        assert!(x12 < x13, "x12={x12} x13={x13}");
        // Sanity: in the low thousands-to-tens-of-thousands regime.
        assert!(x12 > 100 && x12 < 100_000, "x12={x12}");
    }

    #[test]
    fn throughput_break_even_found() {
        let cfg = scaling_config();
        let n = throughput_break_even(&cfg, 2.0, 2.0, 1_000, 10_000_000).unwrap();
        // The 1x curve blows up exponentially; a factor-2 speedup point must
        // exist well below 10^7 processes.
        assert!(n > 1_000 && n < 10_000_000);
        // At that point the 1x job really is at least twice as slow.
        let t1 = time_at(&cfg, n, 1.0).unwrap_or(f64::INFINITY);
        let t2 = time_at(&cfg, n, 2.0).unwrap();
        assert!(t1 >= 2.0 * t2);
    }

    #[test]
    fn crossover_errors_when_never_wins() {
        let cfg = scaling_config();
        // 2x never beats 1x at tiny scales.
        let err = crossover(&cfg, 1.0, 2.0, 2, 8).unwrap_err();
        assert!(matches!(err, ModelError::NoSolution { .. }));
    }

    /// A regime so hostile (minutes-scale node MTBF at a million nodes)
    /// that no degree in the paper's grid can make progress.
    fn hopeless_config() -> CombinedConfig {
        CombinedConfig::builder()
            .virtual_processes(1_000_000)
            .base_time_hours(128.0)
            .node_mtbf_hours(0.05)
            .comm_fraction(0.2)
            .checkpoint_cost_hours(0.1)
            .restart_cost_hours(0.1)
            .build()
            .unwrap()
    }

    #[test]
    fn every_degree_diverging_is_no_solution_with_full_sweep() {
        let cfg = hopeless_config();
        for &r in RGrid::quarter_steps().degrees() {
            assert!(time_at(&cfg, 1_000_000, r).is_none(), "degree {r} should diverge");
        }
        let err = optimal_redundancy(&cfg, &RGrid::quarter_steps()).unwrap_err();
        assert!(matches!(err, ModelError::NoSolution { .. }), "{err:?}");
        // The weighted variant takes the same path.
        let err = optimal_by_cost(&cfg, &RGrid::half_steps(), &CostWeights::resources_only())
            .unwrap_err();
        assert!(matches!(err, ModelError::NoSolution { .. }), "{err:?}");
    }

    #[test]
    fn crossover_degenerate_and_invalid_ranges() {
        let cfg = scaling_config();
        // Single-point range where 2x already wins: returned as-is.
        let deep = 1_000_000;
        assert_eq!(crossover(&cfg, 1.0, 2.0, deep, deep).unwrap(), deep);
        // Single-point range where it doesn't: NoSolution, not a probe
        // outside [lo, hi].
        let err = crossover(&cfg, 1.0, 2.0, 100, 100).unwrap_err();
        assert!(matches!(err, ModelError::NoSolution { .. }));
        // lo = 0 and inverted ranges are parameter errors.
        assert!(matches!(
            crossover(&cfg, 1.0, 2.0, 0, 100).unwrap_err(),
            ModelError::InvalidParameter { .. }
        ));
        assert!(matches!(
            crossover(&cfg, 1.0, 2.0, 200, 100).unwrap_err(),
            ModelError::InvalidParameter { .. }
        ));
    }

    #[test]
    fn crossover_at_lower_bound_returns_lo_exactly() {
        let cfg = scaling_config();
        // Find the true crossover, then search a window starting at it: the
        // bound itself must come back, not bound+1.
        let x = crossover(&cfg, 1.0, 2.0, 100, 1_000_000).unwrap();
        assert_eq!(crossover(&cfg, 1.0, 2.0, x, 1_000_000).unwrap(), x);
        // And a window starting just past it still reports its own lo.
        assert_eq!(crossover(&cfg, 1.0, 2.0, x + 1, 1_000_000).unwrap(), x + 1);
    }

    #[test]
    fn throughput_break_even_bounds_and_invalid_factor() {
        let cfg = scaling_config();
        assert!(matches!(
            throughput_break_even(&cfg, 2.0, 0.0, 100, 1_000).unwrap_err(),
            ModelError::InvalidParameter { .. }
        ));
        assert!(matches!(
            throughput_break_even(&cfg, 2.0, -1.0, 100, 1_000).unwrap_err(),
            ModelError::InvalidParameter { .. }
        ));
        // Degenerate single-point range behaves like crossover's.
        let n = throughput_break_even(&cfg, 2.0, 2.0, 1_000, 10_000_000).unwrap();
        assert_eq!(throughput_break_even(&cfg, 2.0, 2.0, n, n).unwrap(), n);
        let err = throughput_break_even(&cfg, 2.0, 2.0, 1_000, 1_000).unwrap_err();
        assert!(matches!(err, ModelError::NoSolution { .. }));
    }

    #[test]
    fn both_threshold_finders_reject_empty_and_zero_ranges() {
        let cfg = scaling_config();
        let invalid = |r: Result<u64>| matches!(r, Err(ModelError::InvalidParameter { .. }));
        // Both ends lie past the threshold, so a search that ignored the
        // inverted range would answer with a count outside it.
        assert!(invalid(crossover(&cfg, 1.0, 2.0, 2_000_000, 1_000_000)));
        assert!(invalid(crossover(&cfg, 1.0, 2.0, 0, 1_000_000)));
        assert!(invalid(throughput_break_even(&cfg, 2.0, 2.0, 2_000_000, 1_000_000)));
        assert!(invalid(throughput_break_even(&cfg, 2.0, 2.0, 0, 2_000_000)));
    }

    #[test]
    fn time_at_none_on_divergence() {
        // Catastrophic MTBF so 1x diverges at scale.
        let cfg = CombinedConfig::builder()
            .virtual_processes(1000)
            .base_time_hours(128.0)
            .node_mtbf_hours(24.0)
            .comm_fraction(0.2)
            .checkpoint_cost_hours(0.1)
            .restart_cost_hours(0.1)
            .build()
            .unwrap();
        assert!(time_at(&cfg, 1_000_000, 1.0).is_none());
    }
}
