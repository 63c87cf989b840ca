//! Bridges the analytic model's [`CombinedConfig`] to a Monte-Carlo
//! simulation: the simulated counterpart of
//! [`CombinedConfig::evaluate`](redcr_model::combined::CombinedConfig::evaluate).

use redcr_fault::ReplicaGroups;
use redcr_model::checkpointing::daly_interval;
use redcr_model::combined::CombinedConfig;
use redcr_model::redundancy::{redundant_time, SystemModel};

use crate::failure_source::SphereSource;
use crate::job::{FailureExposure, JobConfig};
use crate::simulate::{simulate_job, SimError};
use crate::stats::JobStats;

/// Default attempt cap for combined simulations.
pub const DEFAULT_MAX_ATTEMPTS: u64 = 1_000_000;

/// Derives the simulator inputs (job + sphere structure) from a combined
/// model configuration.
///
/// # Errors
///
/// Propagates model errors (invalid parameters, divergent interval).
pub fn derive_job(
    cfg: &CombinedConfig,
    exposure: FailureExposure,
) -> Result<(JobConfig, ReplicaGroups), SimError> {
    cfg.validate()?;
    let t_red = redundant_time(cfg.base_time, cfg.alpha, cfg.degree)?;
    let system = SystemModel::new(cfg.n_virtual, cfg.degree, cfg.node_mtbf)?;
    let sys = system.evaluate(t_red)?;
    let delta = if sys.failure_rate == 0.0 {
        // Failure-free limit: one giant segment.
        t_red
    } else {
        daly_interval(cfg.checkpoint_cost, sys.mtbf)?
    };
    let partition = cfg.partition()?;
    let counts: Vec<usize> =
        (0..partition.n_virtual()).map(|v| partition.replicas_of(v) as usize).collect();
    let groups = ReplicaGroups::from_counts(&counts);
    let job = JobConfig {
        work: t_red,
        checkpoint_cost: cfg.checkpoint_cost,
        checkpoint_interval: delta,
        restart_cost: cfg.restart_cost,
        exposure,
        max_attempts: DEFAULT_MAX_ATTEMPTS,
    };
    Ok((job, groups))
}

/// A job and its sphere layout, built once and simulated under any number
/// of seeds: a Monte-Carlo loop over one scenario derives nothing per trial
/// and counts the sphere sizes once.
#[derive(Debug, Clone)]
pub struct PreparedJob {
    job: JobConfig,
    source: SphereSource,
}

impl PreparedJob {
    /// Prepares `job` against per-process failures at MTBF `node_mtbf` on
    /// the spheres `groups`.
    ///
    /// # Panics
    ///
    /// Panics if `node_mtbf` is not positive.
    pub fn new(job: JobConfig, groups: ReplicaGroups, node_mtbf: f64) -> Self {
        // A template: `simulate` reseeds it, so its own seed never draws.
        PreparedJob { job, source: SphereSource::new(groups, node_mtbf, 0) }
    }

    /// Prepares a combined model configuration (see [`derive_job`]).
    ///
    /// # Errors
    ///
    /// Propagates model errors (invalid parameters, divergent interval).
    pub fn derive(cfg: &CombinedConfig, exposure: FailureExposure) -> Result<Self, SimError> {
        let (job, groups) = derive_job(cfg, exposure)?;
        Ok(PreparedJob::new(job, groups, cfg.node_mtbf))
    }

    /// Simulates the job once with failure seed `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyAttempts`] for divergent configurations.
    pub fn simulate(&self, seed: u64) -> Result<JobStats, SimError> {
        simulate_job(&self.job, &mut self.source.reseeded(seed))
    }
}

/// Runs one Monte-Carlo simulation of a combined C/R + redundancy
/// configuration: per-process exponential failures, sphere-level job death,
/// Daly-interval checkpointing. Loops over seeds should
/// [`PreparedJob::derive`] once instead.
///
/// # Errors
///
/// Returns [`SimError::TooManyAttempts`] for divergent configurations or a
/// model error for invalid ones.
pub fn simulate_combined(
    cfg: &CombinedConfig,
    exposure: FailureExposure,
    seed: u64,
) -> Result<JobStats, SimError> {
    PreparedJob::derive(cfg, exposure)?.simulate(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcr_model::units;

    fn base_config() -> CombinedConfig {
        CombinedConfig::builder()
            .virtual_processes(64)
            .base_time_hours(10.0)
            .node_mtbf_hours(500.0)
            .comm_fraction(0.2)
            .checkpoint_cost_hours(units::hours_from_secs(120.0))
            .restart_cost_hours(units::hours_from_secs(500.0))
            .build()
            .unwrap()
    }

    #[test]
    fn derive_job_scales_work_with_redundancy() {
        let cfg = base_config();
        let (j1, g1) = derive_job(&cfg.with_degree(1.0), FailureExposure::AllTime).unwrap();
        let (j2, g2) = derive_job(&cfg.with_degree(2.0), FailureExposure::AllTime).unwrap();
        assert!(j2.work > j1.work, "redundant communication slows the job");
        assert_eq!(g1.n_physical(), 64);
        assert_eq!(g2.n_physical(), 128);
        // Higher reliability at 2x means a longer Daly interval.
        assert!(j2.checkpoint_interval > j1.checkpoint_interval);
    }

    #[test]
    fn simulation_completes_and_is_consistent() {
        let cfg = base_config().with_degree(2.0);
        let stats = simulate_combined(&cfg, FailureExposure::AllTime, 7).unwrap();
        assert!(stats.is_consistent());
        let (job, _) = derive_job(&cfg, FailureExposure::AllTime).unwrap();
        assert!((stats.work_time - job.work).abs() < 1e-6);
    }

    #[test]
    fn monte_carlo_tracks_model_prediction() {
        // The mean simulated total time should be in the same ballpark as
        // the closed-form Eq. 14 prediction (the paper's model-validation
        // claim, here at 2x redundancy).
        let cfg = base_config().with_degree(2.0);
        let model = cfg.evaluate().unwrap();
        let n = 40;
        let mut total = 0.0;
        for seed in 0..n {
            total += simulate_combined(&cfg, FailureExposure::AllTime, seed).unwrap().total_time;
        }
        let mean = total / n as f64;
        let rel = (mean - model.total_time).abs() / model.total_time;
        assert!(rel < 0.15, "simulated mean {mean} vs model {} (rel {rel})", model.total_time);
    }

    #[test]
    fn partial_degrees_simulate() {
        let cfg = base_config().with_degree(1.5);
        let stats = simulate_combined(&cfg, FailureExposure::WorkOnly, 3).unwrap();
        assert!(stats.is_consistent());
        let (_, groups) = derive_job(&cfg, FailureExposure::WorkOnly).unwrap();
        assert_eq!(groups.n_physical(), 96);
    }
}
