//! Executor configuration.

use redcr_mpi::CostModel;
use redcr_red::HealPolicy;

/// Full configuration of a resilient execution. All durations are
/// **virtual seconds** (the executor lives at runtime granularity; the
/// hour-based planner output converts via `* 3600`). Replicas vote
/// all-to-all ([`VotingMode::AllToAll`](redcr_red::VotingMode::AllToAll)),
/// as in the paper's experiments.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Number of application (virtual) processes.
    pub n_virtual: u64,
    /// Redundancy degree `r` (possibly fractional).
    pub degree: f64,
    /// Per-physical-process MTBF, virtual seconds.
    pub node_mtbf: f64,
    /// Checkpoint interval `δ`, virtual seconds.
    pub checkpoint_interval: f64,
    /// Checkpoint write cost `c`, virtual seconds (fixed per checkpoint).
    pub checkpoint_cost: f64,
    /// Restart cost `R`, virtual seconds (fixed per restart).
    pub restart_cost: f64,
    /// Communication cost model of the runtime.
    pub comm_cost: CostModel,
    /// Failure injector seed.
    pub seed: u64,
    /// Attempt budget before giving up.
    pub max_attempts: u64,
    /// Livelock guard: abort with [`CoreError::NoProgress`] after this many
    /// *consecutive* attempts that committed no new checkpoint.
    ///
    /// [`CoreError::NoProgress`]: crate::CoreError::NoProgress
    pub no_progress_limit: u64,
    /// Whether to run the flight recorder: when set, every layer emits
    /// virtual-time events and the report carries the full
    /// [`Trace`](redcr_mpi::trace::Trace) in
    /// [`ExecutionReport::trace`](crate::ExecutionReport::trace).
    pub tracing: bool,
    /// Whether to run the metrics plane: when set, every layer counts its
    /// operations into a virtual-time
    /// [`MetricsRegistry`](redcr_mpi::metrics::MetricsRegistry) and the
    /// report carries totals plus the scraped time series in
    /// [`ExecutionReport::metrics`](crate::ExecutionReport::metrics).
    /// Metrics never advance a virtual clock, so enabling them does not
    /// change any reported total.
    pub metrics: bool,
    /// Virtual-second cadence of the metrics scraper (counter time-series
    /// grid spacing). Ignored unless [`metrics`](Self::metrics) is set.
    pub scrape_interval: f64,
    /// Whether to run the wall-clock self-profiler: when set, every layer
    /// times its hot paths (mailbox waits and parks, checkpoint
    /// encode/commit, voting, executor segments) into a
    /// [`Profiler`](redcr_mpi::prof::Profiler) and the report carries the
    /// drained result in
    /// [`ExecutionReport::profile`](crate::ExecutionReport::profile).
    /// The profiler reads the *host* clock only and never advances a
    /// virtual clock, so enabling it leaves every virtual-time total and
    /// trace bit-identical — it watches the simulator, not the simulated
    /// machine.
    pub profiling: bool,
    /// Self-healing policy: whether (and when) dead replicas are respawned
    /// mid-attempt instead of leaving their sphere degraded for the rest of
    /// the run. [`HealPolicy::Never`] reproduces the legacy fault path
    /// bit for bit.
    pub heal_policy: HealPolicy,
    /// Modeled heartbeat period of the failure detector, virtual seconds.
    /// Ignored unless [`heal_policy`](Self::heal_policy) heals.
    pub heartbeat_period: f64,
    /// Suspicion timeout after the last heartbeat, virtual seconds. Values
    /// below the period are clamped up to it, which guarantees no false
    /// suspicion of a live replica.
    pub suspicion_timeout: f64,
    /// Fixed cost of allocating and booting a replacement process,
    /// virtual seconds per heal cycle.
    pub respawn_cost: f64,
    /// Modeled state-transfer cost, virtual seconds per serialized
    /// checkpoint-image byte shipped from the donor replica.
    pub transfer_cost_per_byte: f64,
    /// Scheduler worker threads driving the rank coroutines, or `None` to
    /// defer to the `REDCR_WORKERS` environment variable and then to
    /// `std::thread::available_parallelism`. Purely a host-side throughput
    /// knob: every virtual-time total and trace is bit-identical at any
    /// worker count.
    pub workers: Option<usize>,
}

impl ExecutorConfig {
    /// A configuration with sensible defaults: zero-cost communication,
    /// seed 0, 10 000 attempts.
    pub fn new(n_virtual: u64, degree: f64) -> Self {
        ExecutorConfig {
            n_virtual,
            degree,
            node_mtbf: f64::INFINITY,
            checkpoint_interval: f64::INFINITY,
            checkpoint_cost: 0.0,
            restart_cost: 0.0,
            comm_cost: CostModel::zero(),
            seed: 0,
            max_attempts: 10_000,
            no_progress_limit: 64,
            tracing: false,
            metrics: false,
            scrape_interval: 1.0,
            profiling: false,
            heal_policy: HealPolicy::Never,
            heartbeat_period: 1.0,
            suspicion_timeout: 1.0,
            respawn_cost: 0.0,
            transfer_cost_per_byte: 0.0,
            workers: None,
        }
    }

    /// Pins the scheduler worker count (overrides `REDCR_WORKERS` and the
    /// host-parallelism default). Worker count never changes results, only
    /// how many OS threads drive the rank coroutines.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the per-process MTBF (virtual seconds).
    pub fn node_mtbf(mut self, seconds: f64) -> Self {
        self.node_mtbf = seconds;
        self
    }

    /// Sets the checkpoint interval (virtual seconds).
    pub fn checkpoint_interval(mut self, seconds: f64) -> Self {
        self.checkpoint_interval = seconds;
        self
    }

    /// Sets the fixed checkpoint cost `c` (virtual seconds).
    pub fn checkpoint_cost(mut self, seconds: f64) -> Self {
        self.checkpoint_cost = seconds;
        self
    }

    /// Sets the fixed restart cost `R` (virtual seconds).
    pub fn restart_cost(mut self, seconds: f64) -> Self {
        self.restart_cost = seconds;
        self
    }

    /// Sets the runtime communication cost model.
    pub fn comm_cost(mut self, cost: CostModel) -> Self {
        self.comm_cost = cost;
        self
    }

    /// Sets the failure injector seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the attempt budget.
    pub fn max_attempts(mut self, attempts: u64) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Sets the livelock guard: consecutive checkpoint-free attempts
    /// tolerated before giving up.
    pub fn no_progress_limit(mut self, attempts: u64) -> Self {
        self.no_progress_limit = attempts;
        self
    }

    /// Enables (or disables) the flight recorder for this execution.
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enables (or disables) the metrics plane for this execution.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Sets the metrics scraper cadence (virtual seconds per sample).
    pub fn scrape_interval(mut self, seconds: f64) -> Self {
        self.scrape_interval = seconds;
        self
    }

    /// Enables (or disables) the wall-clock self-profiler for this
    /// execution.
    pub fn profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Sets the self-healing policy.
    pub fn heal_policy(mut self, policy: HealPolicy) -> Self {
        self.heal_policy = policy;
        self
    }

    /// Sets the failure-detector heartbeat period (virtual seconds).
    pub fn heartbeat_period(mut self, seconds: f64) -> Self {
        self.heartbeat_period = seconds;
        self
    }

    /// Sets the failure-detector suspicion timeout (virtual seconds).
    pub fn suspicion_timeout(mut self, seconds: f64) -> Self {
        self.suspicion_timeout = seconds;
        self
    }

    /// Sets the fixed respawn cost per heal cycle (virtual seconds).
    pub fn respawn_cost(mut self, seconds: f64) -> Self {
        self.respawn_cost = seconds;
        self
    }

    /// Sets the modeled transfer cost (virtual seconds per image byte).
    pub fn transfer_cost_per_byte(mut self, seconds: f64) -> Self {
        self.transfer_cost_per_byte = seconds;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let cfg = ExecutorConfig::new(8, 2.0)
            .node_mtbf(3600.0)
            .checkpoint_interval(60.0)
            .checkpoint_cost(2.0)
            .restart_cost(5.0)
            .seed(7)
            .max_attempts(100)
            .heal_policy(HealPolicy::OnDegrade)
            .heartbeat_period(0.5)
            .suspicion_timeout(2.0)
            .respawn_cost(1.5)
            .transfer_cost_per_byte(1e-6);
        assert_eq!(cfg.n_virtual, 8);
        assert_eq!(cfg.degree, 2.0);
        assert_eq!(cfg.node_mtbf, 3600.0);
        assert_eq!(cfg.checkpoint_interval, 60.0);
        assert_eq!(cfg.max_attempts, 100);
        assert_eq!(cfg.heal_policy, HealPolicy::OnDegrade);
        assert_eq!(cfg.heartbeat_period, 0.5);
        assert_eq!(cfg.suspicion_timeout, 2.0);
        assert_eq!(cfg.respawn_cost, 1.5);
        assert_eq!(cfg.transfer_cost_per_byte, 1e-6);
    }

    #[test]
    fn heal_defaults_to_never() {
        let cfg = ExecutorConfig::new(4, 2.0);
        assert_eq!(cfg.heal_policy, HealPolicy::Never);
        assert_eq!(cfg.heartbeat_period, 1.0);
        assert_eq!(cfg.suspicion_timeout, 1.0);
        assert_eq!(cfg.respawn_cost, 0.0);
        assert_eq!(cfg.transfer_cost_per_byte, 0.0);
    }
}
