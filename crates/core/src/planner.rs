//! The configuration planner: the "tuning knob" of the paper's conclusion.
//!
//! Wraps the analytic model's optimal-configuration search in a
//! goal-oriented API: tell the planner about the application (base time,
//! communication fraction), the machine (process count, node MTBF,
//! checkpoint and restart costs) and the objective (fastest wallclock,
//! fewest node-hours, or a weighted blend) and it recommends the
//! redundancy degree and checkpoint interval.

use redcr_model::combined::{CombinedConfig, CombinedOutcome, IntervalPolicy};
use redcr_model::optimizer::{optimal_by_cost, CostWeights, RGrid};
use redcr_model::reliability::Approximation;

use crate::config::ExecutorConfig;
use crate::Result;

/// A recommended configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Recommended redundancy degree `r`.
    pub degree: f64,
    /// Recommended checkpoint interval `δ`, hours.
    pub checkpoint_interval: f64,
    /// The model's prediction for this configuration.
    pub predicted: CombinedOutcome,
    /// The `(degree, predicted total time)` sweep behind the choice
    /// (`None` entries diverged).
    pub sweep: Vec<(f64, Option<f64>)>,
}

impl Plan {
    /// Converts the plan into a runnable [`ExecutorConfig`], translating the
    /// model's hours into the executor's virtual seconds with an optional
    /// time compression factor: `scale = 3600.0` runs the plan at full
    /// fidelity (1 model hour = 3600 virtual seconds); smaller scales
    /// shrink every duration proportionally so a 128-hour plan can be
    /// exercised in a quick simulation without changing the *ratios* the
    /// model cares about (δ/Θ, c/δ, R/Θ).
    ///
    /// # Panics
    ///
    /// Panics if `seconds_per_model_hour` is not positive.
    pub fn to_executor_config(&self, seconds_per_model_hour: f64) -> ExecutorConfig {
        assert!(
            seconds_per_model_hour > 0.0 && seconds_per_model_hour.is_finite(),
            "scale must be positive"
        );
        let s = seconds_per_model_hour;
        let cfg = &self.predicted.config;
        ExecutorConfig::new(cfg.n_virtual, self.degree)
            .node_mtbf(cfg.node_mtbf * s)
            .checkpoint_interval(self.checkpoint_interval * s)
            .checkpoint_cost(cfg.checkpoint_cost * s)
            .restart_cost(cfg.restart_cost * s)
    }
}

/// Builder-style planner.
#[derive(Debug, Clone)]
pub struct Planner {
    n_virtual: Option<u64>,
    base_time: Option<f64>,
    node_mtbf: Option<f64>,
    alpha: f64,
    checkpoint_cost: Option<f64>,
    restart_cost: Option<f64>,
    interval_policy: IntervalPolicy,
    approximation: Approximation,
    weights: CostWeights,
    grid: RGrid,
}

impl Default for Planner {
    fn default() -> Self {
        Self::new()
    }
}

impl Planner {
    /// A planner with the paper's defaults: Daly intervals, linear failure
    /// approximation, pure wallclock objective, quarter-step degree grid.
    pub fn new() -> Self {
        Planner {
            n_virtual: None,
            base_time: None,
            node_mtbf: None,
            alpha: 0.0,
            checkpoint_cost: None,
            restart_cost: None,
            interval_policy: IntervalPolicy::Daly,
            approximation: Approximation::default(),
            weights: CostWeights::time_only(),
            grid: RGrid::quarter_steps(),
        }
    }

    /// Number of application (virtual) processes `N` (required).
    pub fn virtual_processes(mut self, n: u64) -> Self {
        self.n_virtual = Some(n);
        self
    }

    /// Failure-free base time `t`, hours (required).
    pub fn base_time_hours(mut self, t: f64) -> Self {
        self.base_time = Some(t);
        self
    }

    /// Per-node MTBF `θ`, hours (required).
    pub fn node_mtbf_hours(mut self, theta: f64) -> Self {
        self.node_mtbf = Some(theta);
        self
    }

    /// Communication/computation ratio `α` (default 0).
    pub fn comm_fraction(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Checkpoint cost `c`, hours (required).
    pub fn checkpoint_cost_hours(mut self, c: f64) -> Self {
        self.checkpoint_cost = Some(c);
        self
    }

    /// Restart cost `R`, hours (required).
    pub fn restart_cost_hours(mut self, r: f64) -> Self {
        self.restart_cost = Some(r);
        self
    }

    /// Checkpoint-interval policy (default: Daly's Eq. 15).
    pub fn interval_policy(mut self, policy: IntervalPolicy) -> Self {
        self.interval_policy = policy;
        self
    }

    /// Objective weights (default: wallclock only).
    pub fn objective(mut self, weights: CostWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Candidate degrees to search (default: 1x–3x in 0.25 steps).
    pub fn degree_grid(mut self, grid: RGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Builds the underlying model configuration at degree 1 (exposed so
    /// executors and benches can reuse the exact same inputs).
    ///
    /// # Errors
    ///
    /// Returns a model error if required fields are missing or invalid.
    pub fn to_config(&self) -> Result<CombinedConfig> {
        let mut builder = CombinedConfig::builder();
        if let Some(n) = self.n_virtual {
            builder.virtual_processes(n);
        }
        if let Some(t) = self.base_time {
            builder.base_time_hours(t);
        }
        if let Some(theta) = self.node_mtbf {
            builder.node_mtbf_hours(theta);
        }
        if let Some(c) = self.checkpoint_cost {
            builder.checkpoint_cost_hours(c);
        }
        if let Some(r) = self.restart_cost {
            builder.restart_cost_hours(r);
        }
        builder
            .comm_fraction(self.alpha)
            .interval_policy(self.interval_policy)
            .approximation(self.approximation);
        Ok(builder.build()?)
    }

    /// Recommends a configuration.
    ///
    /// # Errors
    ///
    /// Returns a model error for invalid inputs or if every candidate
    /// degree diverges (the job cannot finish on this machine at all).
    pub fn recommend(&self) -> Result<Plan> {
        let cfg = self.to_config()?;
        let best = optimal_by_cost(&cfg, &self.grid, &self.weights)?;
        Ok(Plan {
            degree: best.degree,
            checkpoint_interval: best.outcome.checkpoint_interval,
            predicted: best.outcome,
            sweep: best.sweep,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcr_model::units;

    fn planner() -> Planner {
        Planner::new()
            .virtual_processes(50_000)
            .base_time_hours(128.0)
            .node_mtbf_hours(units::hours_from_years(5.0))
            .comm_fraction(0.2)
            .checkpoint_cost_hours(units::hours_from_mins(10.0))
            .restart_cost_hours(units::hours_from_mins(30.0))
    }

    #[test]
    fn recommends_dual_redundancy_at_scale() {
        let plan = planner().recommend().unwrap();
        assert!(plan.degree >= 1.75, "sweep: {:?}", plan.sweep);
        assert!(plan.checkpoint_interval > 0.0);
        assert_eq!(plan.sweep.len(), 9);
    }

    #[test]
    fn small_scale_prefers_no_redundancy() {
        let plan = planner().virtual_processes(32).recommend().unwrap();
        assert_eq!(plan.degree, 1.0, "sweep: {:?}", plan.sweep);
    }

    #[test]
    fn resource_objective_lowers_degree() {
        let time_plan = planner().recommend().unwrap();
        let resource_plan = planner().objective(CostWeights::resources_only()).recommend().unwrap();
        assert!(resource_plan.degree <= time_plan.degree);
    }

    #[test]
    fn missing_fields_error() {
        let err = Planner::new().recommend().unwrap_err();
        assert!(matches!(err, crate::CoreError::Model(_)));
    }

    #[test]
    fn plan_converts_to_executor_config() {
        let plan = Planner::new()
            .virtual_processes(8)
            .base_time_hours(1.0)
            .node_mtbf_hours(100.0)
            .checkpoint_cost_hours(0.05)
            .restart_cost_hours(0.1)
            .recommend()
            .unwrap();
        let cfg = plan.to_executor_config(3600.0);
        assert_eq!(cfg.n_virtual, 8);
        assert_eq!(cfg.degree, plan.degree);
        assert!((cfg.node_mtbf - 360_000.0).abs() < 1e-6);
        assert!((cfg.checkpoint_cost - 180.0).abs() < 1e-6);
        // Compressed scale preserves ratios.
        let fast = plan.to_executor_config(36.0);
        let ratio_full = cfg.checkpoint_interval / cfg.node_mtbf;
        let ratio_fast = fast.checkpoint_interval / fast.node_mtbf;
        assert!((ratio_full - ratio_fast).abs() < 1e-12);
    }

    #[test]
    fn config_round_trip_matches_prediction() {
        let p = planner();
        let plan = p.recommend().unwrap();
        let cfg = p.to_config().unwrap().with_degree(plan.degree);
        let outcome = cfg.evaluate().unwrap();
        assert!((outcome.total_time - plan.predicted.total_time).abs() < 1e-9);
    }
}
