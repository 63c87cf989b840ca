//! Launching a replicated world: spawns the physical ranks, constructs the
//! per-rank [`ReplicaComm`], and aggregates results per virtual process.

use std::sync::Arc;

use redcr_model::partition::RedundancyPartition;
use redcr_mpi::{Comm, CostModel, Result, Sinks, World, WorldBuilder};

use crate::corruption::CorruptionModel;
use crate::replica_comm::ReplicaComm;
use crate::stats::StatsSnapshot;
use crate::vmap::VirtualMap;
use crate::voting::{VoteCost, VotingMode};

/// Entry point for running a replicated application.
#[derive(Debug)]
pub struct ReplicatedWorld;

impl ReplicatedWorld {
    /// Starts building a replicated world of `n_virtual` application
    /// processes at redundancy degree `degree` (possibly fractional).
    ///
    /// # Errors
    ///
    /// Returns an error if the degree is outside the supported range or
    /// `n_virtual == 0` (see
    /// [`RedundancyPartition::new`](redcr_model::partition::RedundancyPartition::new)).
    pub fn builder(
        n_virtual: u64,
        degree: f64,
    ) -> std::result::Result<ReplicatedWorldBuilder, redcr_model::ModelError> {
        let partition = RedundancyPartition::new(n_virtual, degree)?;
        Ok(ReplicatedWorldBuilder {
            world: World::builder(partition.total_physical() as usize),
            partition,
            mode: VotingMode::default(),
            vote_cost: VoteCost::default(),
            corruption: None,
        })
    }
}

/// Builder for a replicated run: the replication settings, and the
/// physical world's [`WorldBuilder`], sized by `(n_virtual, degree)`, that
/// the world-level setters forward to.
#[derive(Debug, Clone)]
pub struct ReplicatedWorldBuilder {
    partition: RedundancyPartition,
    mode: VotingMode,
    vote_cost: VoteCost,
    corruption: Option<CorruptionModel>,
    world: WorldBuilder,
}

impl ReplicatedWorldBuilder {
    /// Sets the voting mode (default [`VotingMode::AllToAll`], as in the
    /// paper's experiments).
    pub fn voting_mode(self, mode: VotingMode) -> Self {
        Self { mode, ..self }
    }

    /// Sets the redundant-copy processing (voting) cost model. Use
    /// [`VoteCost::zero`] for purely functional runs.
    pub fn vote_cost(self, vote_cost: VoteCost) -> Self {
        Self { vote_cost, ..self }
    }

    /// Enables deterministic silent-data-corruption injection on outgoing
    /// physical copies (RedMPI's SDC-detection scenario).
    pub fn corruption(self, model: CorruptionModel) -> Self {
        Self { corruption: Some(model), ..self }
    }

    /// Sets the communication cost model (see
    /// [`WorldBuilder::cost_model`]).
    pub fn cost_model(self, cost: CostModel) -> Self {
        Self { world: self.world.cost_model(cost), ..self }
    }

    /// Starts all clocks at `t` virtual seconds (checkpoint resume).
    pub fn start_time(self, t: f64) -> Self {
        Self { world: self.world.start_time(t), ..self }
    }

    /// Sets **per-physical-rank fail-stop times** (absolute virtual
    /// seconds, `f64::INFINITY` = never; indexed by physical rank, i.e.
    /// the virtual map's layout). A dead replica degrades its sphere live:
    /// surviving replicas keep the run going, voting over fewer copies,
    /// until the *last* replica of some sphere dies — only then does the
    /// job abort. See [`WorldBuilder::death_times`].
    pub fn death_times(self, times: Vec<f64>) -> Self {
        Self { world: self.world.death_times(times), ..self }
    }

    /// Sets the telemetry sinks (see [`WorldBuilder::obs`]). The
    /// replication layer adds vote outcomes and latency, wildcard-receive
    /// leader failovers and a wall-clock span over each vote.
    pub fn obs(self, sinks: Sinks) -> Self {
        Self { world: self.world.obs(sinks), ..self }
    }

    /// Pins the scheduler worker count of the underlying physical world
    /// (see [`WorldBuilder::workers`]). A host-side throughput knob only:
    /// results are bit-identical at any worker count.
    pub fn workers(self, workers: usize) -> Self {
        Self { world: self.world.workers(workers), ..self }
    }

    /// Number of physical ranks this configuration will spawn.
    pub fn n_physical(&self) -> usize {
        self.world.size()
    }

    /// Runs `f` on every physical replica. The closure sees the *virtual*
    /// world through its [`ReplicaComm`].
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying world fails to run. Per-replica
    /// application errors are reported in the returned
    /// [`ReplicatedReport::results`].
    pub fn run<T, F>(self, f: F) -> Result<ReplicatedReport<T>>
    where
        T: Send,
        F: Fn(&ReplicaComm) -> Result<T> + Send + Sync,
    {
        let vmap = Arc::new(VirtualMap::new(self.partition));
        let n_physical = vmap.n_physical();
        // Home all replicas of a virtual rank on one scheduler worker:
        // every virtual message fans out to each of them.
        let owner = |p| vmap.owner_of(redcr_mpi::Rank::new(p)).0.index() as u32;
        let world = self.world.placement_keys((0..n_physical as u32).map(owner).collect());
        let report = world.run(|base: &Comm| {
            let mut comm = ReplicaComm::new(base, Arc::clone(&vmap), self.mode, self.vote_cost);
            if let Some(model) = self.corruption {
                comm = comm.with_corruption(model);
            }
            let out = f(&comm)?;
            Ok((out, comm.stats()))
        })?;

        let mut results = Vec::with_capacity(n_physical);
        let mut stats = StatsSnapshot::default();
        for r in report.results {
            match r {
                Ok((value, snap)) => {
                    stats = stats.add(&snap);
                    results.push(Ok(value));
                }
                Err(e) => results.push(Err(e)),
            }
        }
        Ok(ReplicatedReport {
            vmap,
            results,
            stats,
            max_virtual_time: report.max_virtual_time,
            aborted: report.aborted,
            dead_ranks: report.dead_ranks,
            physical_messages: report.messages_sent,
            physical_bytes: report.bytes_sent,
            n_physical,
        })
    }
}

/// Outcome of a replicated run.
#[derive(Debug)]
pub struct ReplicatedReport<T> {
    vmap: Arc<VirtualMap>,
    /// Per-*physical*-rank results.
    pub results: Vec<Result<T>>,
    /// Aggregated replication statistics over all replicas.
    pub stats: StatsSnapshot,
    /// Simulated wallclock of the run, seconds.
    pub max_virtual_time: f64,
    /// Whether the run aborted (fail-stop horizon, sphere death, or rank
    /// error).
    pub aborted: bool,
    /// Physical ranks that fail-stopped at their injected death time
    /// during the run (ascending order).
    pub dead_ranks: Vec<usize>,
    /// Physical point-to-point messages injected (from the base runtime).
    pub physical_messages: u64,
    /// Physical payload bytes injected.
    pub physical_bytes: u64,
    /// Number of physical ranks that ran.
    pub n_physical: usize,
}

impl<T> ReplicatedReport<T> {
    /// The virtual↔physical map of the run.
    pub fn vmap(&self) -> &VirtualMap {
        &self.vmap
    }

    /// The result of virtual rank `v`'s primary replica (replica 0).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn primary_result(&self, v: u32) -> &Result<T> {
        let phys = self.vmap.replicas_of(redcr_mpi::Rank::new(v))[0];
        &self.results[phys.index()]
    }

    /// Results of every replica of virtual rank `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn replica_results(&self, v: u32) -> Vec<&Result<T>> {
        self.vmap
            .replicas_of(redcr_mpi::Rank::new(v))
            .iter()
            .map(|p| &self.results[p.index()])
            .collect()
    }

    /// Primary-replica results for all virtual ranks, or the first error.
    ///
    /// # Errors
    ///
    /// Returns the lowest-virtual-rank error if any primary failed.
    pub fn into_primary_results(mut self) -> Result<Vec<T>>
    where
        T: Default,
    {
        let mut out = Vec::with_capacity(self.vmap.n_virtual());
        for v in 0..self.vmap.n_virtual() {
            let phys = self.vmap.replicas_of(redcr_mpi::Rank::new(v as u32))[0];
            let slot = std::mem::replace(&mut self.results[phys.index()], Ok(T::default()));
            out.push(slot?);
        }
        Ok(out)
    }
}
