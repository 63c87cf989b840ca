//! The timeline walker: replays restart → (work → checkpoint)* phases
//! against a failure source until the job's work is complete.

use std::error::Error;
use std::fmt;

use crate::failure_source::FailureSource;
use crate::job::{FailureExposure, JobConfig};
use crate::stats::JobStats;

/// Simulation failures.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The job did not complete within `max_attempts` — the configuration
    /// is effectively divergent (cf. the model's `λ·t_RR ≥ 1`).
    TooManyAttempts {
        /// The configured attempt limit that was reached.
        attempts: u64,
    },
    /// A model-side error while deriving the job configuration.
    Model(redcr_model::ModelError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TooManyAttempts { attempts } => {
                write!(f, "job did not complete within {attempts} attempts (divergent)")
            }
            SimError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<redcr_model::ModelError> for SimError {
    fn from(e: redcr_model::ModelError) -> Self {
        SimError::Model(e)
    }
}

/// Numerical slack for "work complete" comparisons.
const EPS: f64 = 1e-12;

/// Simulates one job to completion against `source`.
///
/// # Errors
///
/// Returns [`SimError::TooManyAttempts`] if the job cannot finish within
/// `cfg.max_attempts`.
///
/// # Panics
///
/// Panics if `cfg` is invalid (see [`JobConfig::validate`]).
pub fn simulate_job(cfg: &JobConfig, source: &mut dyn FailureSource) -> Result<JobStats, SimError> {
    cfg.validate();
    let overhead_exposed = cfg.exposure == FailureExposure::AllTime;
    let mut stats = JobStats::default();
    // Work position safely committed to stable storage.
    let mut committed = 0.0f64;
    // Furthest work position ever executed (for recompute accounting).
    let mut high_water = 0.0f64;

    loop {
        if stats.attempts >= cfg.max_attempts {
            return Err(SimError::TooManyAttempts { attempts: cfg.max_attempts });
        }
        let fail_at = source.next_failure(stats.attempts);
        stats.attempts += 1;
        let restarting = stats.attempts > 1;
        let mut exposure = 0.0f64; // exposure clock within this attempt
        let mut position = committed;
        let mut failed = false;

        // Restart phase (every attempt after the first).
        if restarting {
            if overhead_exposed && fail_at - exposure < cfg.restart_cost {
                let partial = fail_at - exposure;
                stats.restart_time += partial;
                stats.total_time += partial;
                stats.failures += 1;
                stats.masked_failures += source.masked_before(fail_at);
                continue;
            }
            stats.restart_time += cfg.restart_cost;
            stats.total_time += cfg.restart_cost;
            if overhead_exposed {
                exposure += cfg.restart_cost;
            }
        }

        // Work segments punctuated by checkpoints.
        while position < cfg.work - EPS {
            let seg = (cfg.work - position).min(cfg.checkpoint_interval);
            // Work phase — always exposed to failures.
            if fail_at - exposure < seg {
                let done = (fail_at - exposure).max(0.0);
                account_work(&mut stats, position, done, &mut high_water);
                stats.total_time += done;
                stats.failures += 1;
                stats.masked_failures += source.masked_before(fail_at);
                failed = true;
                break;
            }
            account_work(&mut stats, position, seg, &mut high_water);
            stats.total_time += seg;
            exposure += seg;
            position += seg;
            if position >= cfg.work - EPS {
                // Job done; no trailing checkpoint needed.
                committed = position;
                break;
            }
            // Checkpoint phase.
            if overhead_exposed && fail_at - exposure < cfg.checkpoint_cost {
                let partial = (fail_at - exposure).max(0.0);
                stats.checkpoint_time += partial;
                stats.total_time += partial;
                stats.failures += 1;
                stats.masked_failures += source.masked_before(fail_at);
                failed = true;
                break;
            }
            stats.checkpoint_time += cfg.checkpoint_cost;
            stats.total_time += cfg.checkpoint_cost;
            if overhead_exposed {
                exposure += cfg.checkpoint_cost;
            }
            committed = position;
            stats.checkpoints += 1;
        }

        if !failed {
            // Deaths the completed attempt rode out were all masked.
            stats.masked_failures += source.masked_before(exposure);
            debug_assert!(committed >= cfg.work - 1e-9);
            debug_assert!(stats.is_consistent(), "{stats:?}");
            debug_assert!(
                (stats.work_time - cfg.work).abs() < 1e-6 * cfg.work.max(1.0),
                "fresh work {} != {}",
                stats.work_time,
                cfg.work
            );
            return Ok(stats);
        }
    }
}

/// Splits a stretch of executed work into "fresh" and "recomputed" parts
/// based on the high-water mark of previously executed work.
fn account_work(stats: &mut JobStats, position: f64, amount: f64, high_water: &mut f64) {
    let recomp = (*high_water - position).clamp(0.0, amount);
    stats.recompute_time += recomp;
    stats.work_time += amount - recomp;
    *high_water = high_water.max(position + amount);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure_source::{ScheduledSource, SphereSource};

    fn cfg(work: f64, c: f64, delta: f64, restart: f64) -> JobConfig {
        JobConfig {
            work,
            checkpoint_cost: c,
            checkpoint_interval: delta,
            restart_cost: restart,
            exposure: FailureExposure::AllTime,
            max_attempts: 1_000_000,
        }
    }

    #[test]
    fn failure_free_time_is_work_plus_checkpoints() {
        // 10 units of work, checkpoint every 3: segments 3,3,3,1 with
        // checkpoints after the first three.
        let mut src = ScheduledSource::new(vec![]);
        let stats = simulate_job(&cfg(10.0, 0.5, 3.0, 1.0), &mut src).unwrap();
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.checkpoints, 3);
        assert!((stats.total_time - (10.0 + 3.0 * 0.5)).abs() < 1e-9);
        assert!((stats.work_time - 10.0).abs() < 1e-9);
        assert_eq!(stats.recompute_time, 0.0);
    }

    #[test]
    fn one_failure_mid_segment_recomputes_lost_work() {
        // Fail attempt 0 at exposure 4.0: one committed segment (3 work +
        // 0.5 ckpt), then 0.5 into the second segment.
        let mut src = ScheduledSource::new(vec![4.0]);
        let stats = simulate_job(&cfg(10.0, 0.5, 3.0, 1.0), &mut src).unwrap();
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.attempts, 2);
        // Lost 0.5 of work which is re-executed in attempt 2.
        assert!((stats.recompute_time - 0.5).abs() < 1e-9, "{stats:?}");
        assert!((stats.work_time - 10.0).abs() < 1e-9);
        assert!((stats.restart_time - 1.0).abs() < 1e-9);
        assert!(stats.is_consistent());
    }

    #[test]
    fn failure_during_checkpoint_loses_whole_segment() {
        // Fail at exposure 3.2: inside the first checkpoint (starts at 3.0).
        let mut src = ScheduledSource::new(vec![3.2]);
        let stats = simulate_job(&cfg(10.0, 0.5, 3.0, 1.0), &mut src).unwrap();
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.checkpoints, 3, "attempt 2 re-takes the checkpoint");
        // The whole 3-unit segment is recomputed.
        assert!((stats.recompute_time - 3.0).abs() < 1e-9, "{stats:?}");
        // Partial checkpoint time (0.2) plus three full ones.
        assert!((stats.checkpoint_time - (0.2 + 1.5)).abs() < 1e-9);
    }

    #[test]
    fn failure_during_restart_repeats_restart() {
        // Attempt 0 dies at 1.0 (mid first segment); attempt 1 dies at 0.5,
        // i.e. inside its own 1.0-long restart phase; attempt 2 finishes.
        let mut src = ScheduledSource::new(vec![1.0, 0.5]);
        let stats = simulate_job(&cfg(5.0, 0.5, 3.0, 1.0), &mut src).unwrap();
        assert_eq!(stats.failures, 2);
        assert_eq!(stats.attempts, 3);
        // Restart time: 0.5 (partial, killed) + 1.0 (successful).
        assert!((stats.restart_time - 1.5).abs() < 1e-9, "{stats:?}");
    }

    #[test]
    fn work_only_exposure_shields_overheads() {
        // Failure at exposure 3.1 under WorkOnly: the checkpoint (wall time
        // 3.0-3.5) is not exposed, so the failure lands 0.1 into the second
        // segment instead.
        let mut wall = cfg(10.0, 0.5, 3.0, 1.0);
        wall.exposure = FailureExposure::WorkOnly;
        let mut src = ScheduledSource::new(vec![3.1]);
        let stats = simulate_job(&wall, &mut src).unwrap();
        assert_eq!(stats.failures, 1);
        // Only 0.1 of work lost, not the whole segment.
        assert!((stats.recompute_time - 0.1).abs() < 1e-9, "{stats:?}");
    }

    #[test]
    fn divergent_config_detected() {
        let mut c = cfg(100.0, 0.5, 3.0, 10.0);
        c.max_attempts = 50;
        // Dies at the very start of every attempt.
        let mut src = SphereSource::poisson(0.01, 1);
        let err = simulate_job(&c, &mut src).unwrap_err();
        assert!(matches!(err, SimError::TooManyAttempts { .. }));
    }

    #[test]
    fn statistics_sane_under_random_failures() {
        let c = cfg(100.0, 0.2, 2.0, 0.5);
        let mut src = SphereSource::poisson(20.0, 7);
        let stats = simulate_job(&c, &mut src).unwrap();
        assert!(stats.is_consistent(), "{stats:?}");
        assert!((stats.work_time - 100.0).abs() < 1e-6);
        assert!(stats.failures > 0, "MTBF 20 over >100 time units must fail sometimes");
        assert!(stats.total_time > 100.0);
    }

    #[test]
    fn shorter_interval_reduces_recompute_but_adds_checkpoints() {
        let run = |delta: f64| {
            let c = cfg(200.0, 0.1, delta, 0.5);
            let mut src = SphereSource::poisson(10.0, 42);
            simulate_job(&c, &mut src).unwrap()
        };
        let tight = run(1.0);
        let loose = run(50.0);
        assert!(tight.checkpoint_time > loose.checkpoint_time);
        assert!(tight.recompute_time < loose.recompute_time);
    }
}
