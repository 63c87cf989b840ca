//! Job configuration for the timeline simulator.

/// When is the job exposed to failures?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FailureExposure {
    /// Failures can strike at any time, including during checkpoints and
    /// restarts — the assumption of the paper's analytic model
    /// (Section 4.2: "failures can occur anytime between the start and the
    /// end of application execution, i.e., failures can occur even when a
    /// checkpoint is taken or when the application is restarted").
    #[default]
    AllTime,
    /// Failures are only triggered during work phases — the behaviour of
    /// the paper's cluster experiments (Section 6(5): "failures are not
    /// triggered when a checkpoint is performed or when restart is in
    /// progress").
    WorkOnly,
}

/// A job to simulate. All durations share one unit (the benches use hours).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobConfig {
    /// Total useful work the job must complete (`t`, or `t_Red` under
    /// redundancy).
    pub work: f64,
    /// Cost of one checkpoint, `c`.
    pub checkpoint_cost: f64,
    /// Work between checkpoints, `δ`.
    pub checkpoint_interval: f64,
    /// Restart overhead after a failure, `R`.
    pub restart_cost: f64,
    /// Failure exposure mode.
    pub exposure: FailureExposure,
    /// Safety valve: abort the simulation after this many attempts (the
    /// configuration is then effectively divergent, matching the model's
    /// `λ·t_RR ≥ 1` condition).
    pub max_attempts: u64,
}

impl JobConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on non-positive work/interval or negative costs (programming
    /// errors, not data errors).
    pub fn validate(&self) {
        assert!(self.work > 0.0 && self.work.is_finite(), "work must be positive");
        assert!(
            self.checkpoint_interval > 0.0 && self.checkpoint_interval.is_finite(),
            "interval must be positive"
        );
        assert!(self.checkpoint_cost >= 0.0, "checkpoint cost must be non-negative");
        assert!(self.restart_cost >= 0.0, "restart cost must be non-negative");
        assert!(self.max_attempts > 0, "need at least one attempt");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_reasonable_config() {
        JobConfig {
            work: 10.0,
            checkpoint_cost: 0.1,
            checkpoint_interval: 1.0,
            restart_cost: 0.2,
            exposure: FailureExposure::AllTime,
            max_attempts: 100,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn validate_rejects_zero_interval() {
        JobConfig {
            work: 10.0,
            checkpoint_cost: 0.1,
            checkpoint_interval: 0.0,
            restart_cost: 0.2,
            exposure: FailureExposure::AllTime,
            max_attempts: 100,
        }
        .validate();
    }
}
