//! The world: shared runtime state, the rank-task runner, and run reports.
//!
//! Rank bodies execute as lightweight tasks on the `redcr-sched` M:N
//! work-stealing pool (stackful coroutines multiplexed onto a few worker
//! threads), not as one OS thread per rank. A rank that blocks in a
//! mailbox receive parks its *coroutine*; the matching send requeues it.
//! Worker count comes from [`WorldBuilder::workers`], the `REDCR_WORKERS`
//! environment variable, or `available_parallelism()`, in that order, and
//! never affects simulation results — the workspace determinism gates
//! prove bit-identical reports at 1, 2, and 8 workers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use redcr_trace::EventKind;

use crate::comm::Comm;
use crate::communicator::Communicator;
use crate::error::Result;
use crate::mailbox::Mailbox;
use crate::obs::Sinks;
use crate::time::CostModel;

/// Entry point for configuring and running a simulated MPI world.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug)]
pub struct World;

impl World {
    /// Starts building a world with `n` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn builder(n: usize) -> WorldBuilder {
        assert!(n > 0, "a world needs at least one rank");
        WorldBuilder {
            n,
            cost: CostModel::default(),
            start_time: 0.0,
            death_times: None,
            sinks: Sinks::default(),
            workers: None,
            placement_keys: None,
        }
    }
}

/// Builder for a simulated world.
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    n: usize,
    cost: CostModel,
    start_time: f64,
    death_times: Option<Vec<f64>>,
    sinks: Sinks,
    workers: Option<usize>,
    placement_keys: Option<Vec<u32>>,
}

impl WorldBuilder {
    /// Sets the communication cost model (default:
    /// [`CostModel::infiniband_qdr`]).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Starts every rank's virtual clock at `t` seconds instead of zero
    /// (used when resuming a job from a checkpoint taken at virtual time
    /// `t`).
    pub fn start_time(mut self, t: f64) -> Self {
        self.start_time = t;
        self
    }

    /// Sets **per-rank fail-stop times** (absolute virtual seconds,
    /// `f64::INFINITY` = never dies). A rank's death does not stop the
    /// world: the dying rank's closure returns
    /// [`MpiError::Dead`](crate::MpiError::Dead) the first time its clock
    /// reaches its death time, while the remaining ranks keep running.
    /// Survivors observe the death per-operation: sends to a dead peer and
    /// receives whose (specific) sender died without a matching buffered
    /// message return [`MpiError::DeadPeer`](crate::MpiError::DeadPeer)
    /// instead of blocking or silently succeeding.
    ///
    /// # Panics
    ///
    /// Panics (in [`run`](Self::run)) if the vector length differs from the
    /// world size.
    pub fn death_times(mut self, times: Vec<f64>) -> Self {
        self.death_times = Some(times);
        self
    }

    /// Sets the telemetry sinks (default: all off). Every rank gets an
    /// [`Obs`](crate::Obs) handle, reachable through
    /// [`Communicator::obs`], with a rank-local shard per enabled sink: the
    /// runtime records sends, receives and deaths, the mailbox times its
    /// waits and pushes, and interposition layers add their own. Shards
    /// merge into the sinks at rank teardown — trace events in rank order,
    /// closed by one [`EventKind::RankFinish`] carrying the rank's
    /// busy/comm split, whose stamp the metrics shard folds into the
    /// [`VirtualTime`](redcr_metrics::GaugeKey::VirtualTime) gauge.
    /// Telemetry never advances a virtual clock, so enabling any of it does
    /// not change what the run computes.
    pub fn obs(mut self, sinks: Sinks) -> Self {
        self.sinks = sinks;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Sets the number of scheduler worker threads driving the rank
    /// tasks. Unset, `REDCR_WORKERS` and then `available_parallelism()`
    /// decide. Worker count never changes simulation results, only how
    /// the tasks are multiplexed onto the host.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Scheduler placement hint for layers that renumber ranks: one
    /// affinity key per rank, equal for ranks that talk mostly to each
    /// other (`redcr-red` passes each replica's virtual rank). Unset, the
    /// rank index is the key — block placement, which suits tree
    /// collectives and stencil halos. Never changes simulation results.
    #[doc(hidden)]
    pub fn placement_keys(mut self, keys: Vec<u32>) -> Self {
        self.placement_keys = Some(keys);
        self
    }

    /// Runs `f` once per rank as tasks on the M:N scheduler pool and
    /// collects every rank's outcome.
    ///
    /// `f` receives the rank's [`Comm`] handle. The returned report contains
    /// each rank's result and timing plus world-wide statistics.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any rank closure (the lowest-ranked one if
    /// several panicked).
    pub fn run<T, F>(self, f: F) -> Result<RunReport<T>>
    where
        T: Send,
        F: Fn(&Comm) -> Result<T> + Send + Sync,
    {
        let death_times = match self.death_times {
            Some(times) => {
                assert_eq!(times.len(), self.n, "death_times must list one time per rank");
                times
            }
            None => vec![f64::INFINITY; self.n],
        };
        let shared = Arc::new(Shared::new(self.n, self.cost, death_times));
        let start_time = self.start_time;
        let sinks = &self.sinks;
        let f = &f;
        type Slot<T> = (Result<T>, RankTiming, crate::Drained);

        let pool = redcr_sched::PoolConfig::resolve(self.workers, self.n);
        let shared_for_tasks = &shared;
        let keys = self.placement_keys.as_deref();
        let outcomes = redcr_sched::run_batch(&pool, self.n, keys, sinks.profiler.as_deref(), {
            move |rank| -> Slot<T> {
                let shared = Arc::clone(shared_for_tasks);
                let comm = Comm::new(shared, rank as u32, start_time, sinks.rank(rank as u32));
                let obs = comm.obs();
                let result =
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm))) {
                        Ok(r) => r,
                        Err(payload) => {
                            // Peers parked on this rank leave once the batch
                            // stalls, and see the abort; the pool captures
                            // the payload.
                            comm.shared().trigger_abort();
                            std::panic::resume_unwind(payload);
                        }
                    };
                match &result {
                    // An injected per-rank death is survivable by
                    // design: peers detect it through the dead flag
                    // (set when the rank crossed its death time), so
                    // the world keeps running. Nor is a deadlock an
                    // abort: the stall that released this rank released
                    // every blocked rank, and raising the flag now would
                    // rename their `Deadlock` to `Aborted` depending on
                    // which of them ran first.
                    Err(crate::MpiError::Dead { .. } | crate::MpiError::Deadlock { .. }) => {}
                    // Any other failing rank (abort or app error) fails
                    // the run: peers parked in receives leave as
                    // `Aborted` once the batch stalls.
                    Err(_) => comm.shared().trigger_abort(),
                    Ok(_) => {}
                }
                let timing = RankTiming {
                    finish: comm.clock().now(),
                    busy: comm.clock().busy_time(),
                    comm: comm.clock().comm_time(),
                };
                obs.event(
                    timing.finish,
                    EventKind::RankFinish { busy: timing.busy, comm: timing.comm },
                );
                // The drain hands this rank's events and metrics back
                // rather than absorbing them here: task teardown order is
                // scheduling dependent, so absorbing after the batch
                // (below, in rank order) is what keeps the collected trace
                // and the histogram sums deterministic run-to-run.
                (result, timing, sinks.drain(obs))
            }
        });

        let mut results = Vec::with_capacity(self.n);
        let mut timings = Vec::with_capacity(self.n);
        for outcome in outcomes {
            match outcome {
                Ok((r, t, drained)) => {
                    sinks.absorb(drained);
                    results.push(r);
                    timings.push(t);
                }
                // Propagate the lowest-ranked panic, after absorbing the
                // events of every earlier rank (mirrors the old join-order
                // semantics).
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        let max_virtual_time = timings.iter().map(|t| t.finish).fold(f64::NEG_INFINITY, f64::max);
        let dead_ranks =
            (0..self.n).filter(|&r| shared.is_dead(crate::Rank::new(r as u32))).collect();
        Ok(RunReport {
            results,
            timings,
            max_virtual_time,
            aborted: shared.is_aborted(),
            dead_ranks,
            // SeqCst to pair with the SeqCst teardown flush in
            // `SendCounters::drop`; this runs once per world run, after
            // every rank thread joined, so strength is free here.
            messages_sent: shared.msgs_sent.load(Ordering::SeqCst),
            bytes_sent: shared.bytes_sent.load(Ordering::SeqCst),
        })
    }
}

/// Per-rank timing extracted at finalize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankTiming {
    /// The rank's virtual clock when its closure returned, seconds.
    pub finish: f64,
    /// Time attributed to computation, seconds.
    pub busy: f64,
    /// Time attributed to communication, seconds.
    pub comm: f64,
}

impl RankTiming {
    /// Observed communication fraction `α` for this rank.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.busy + self.comm;
        if total == 0.0 {
            0.0
        } else {
            self.comm / total
        }
    }
}

/// The outcome of a world run.
#[derive(Debug)]
pub struct RunReport<T> {
    /// Per-rank closure results, indexed by rank.
    pub results: Vec<Result<T>>,
    /// Per-rank timings, indexed by rank.
    pub timings: Vec<RankTiming>,
    /// Simulated wallclock: the maximum finish time over all ranks, seconds.
    pub max_virtual_time: f64,
    /// Whether the run aborted: a rank failed with an error other than its
    /// own death or a deadlock, or a layer escalated through
    /// [`Comm::abort_job`].
    pub aborted: bool,
    /// Ranks that fail-stopped at their sampled death time during the run
    /// (ascending rank order). Empty unless
    /// [`WorldBuilder::death_times`] was used.
    pub dead_ranks: Vec<usize>,
    /// Total number of point-to-point messages injected.
    pub messages_sent: u64,
    /// Total payload bytes injected.
    pub bytes_sent: u64,
}

impl<T> RunReport<T> {
    /// Returns all rank results, or the first error encountered.
    ///
    /// # Errors
    ///
    /// Returns the lowest-ranked error if any rank failed.
    pub fn into_results(self) -> Result<Vec<T>> {
        self.results.into_iter().collect()
    }

    /// The mean observed communication fraction `α` across ranks.
    pub fn mean_comm_fraction(&self) -> f64 {
        if self.timings.is_empty() {
            return 0.0;
        }
        self.timings.iter().map(RankTiming::comm_fraction).sum::<f64>() / self.timings.len() as f64
    }
}

/// World state shared by all rank threads.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) n: usize,
    pub(crate) cost: CostModel,
    pub(crate) mailboxes: Vec<Mailbox>,
    /// `death_times[r]`: absolute virtual time at which rank `r`
    /// fail-stops (INFINITY = never).
    pub(crate) death_times: Vec<f64>,
    /// `dead[r]` is set (by rank `r`'s own thread) once `r` observed its
    /// own death, i.e. all messages `r` will ever send are already in
    /// mailboxes. Receivers use this flag to stop waiting on `r`.
    dead: Vec<AtomicBool>,
    /// Read by a receive only once the batch has stalled (see the
    /// `mailbox` module docs), so the abort edge never cuts a run at a
    /// physically-timed point.
    aborted: AtomicBool,
    pub(crate) msgs_sent: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
}

impl Shared {
    fn new(n: usize, cost: CostModel, death_times: Vec<f64>) -> Self {
        Shared {
            n,
            cost,
            mailboxes: (0..n).map(|_| Mailbox::new()).collect(),
            death_times,
            dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
            aborted: AtomicBool::new(false),
            msgs_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
        }
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// Marks the world aborted. Nothing is woken: the ranks the abort
    /// strands leave their receives once the batch stalls.
    pub(crate) fn trigger_abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
    }

    /// The sampled death time of `rank`.
    pub(crate) fn death_time(&self, rank: crate::Rank) -> f64 {
        self.death_times[rank.index()]
    }

    /// Whether `rank` has observed its own death (its thread crossed its
    /// death time in program order).
    pub(crate) fn is_dead(&self, rank: crate::Rank) -> bool {
        self.dead[rank.index()].load(Ordering::SeqCst)
    }

    /// Marks `rank` dead (called by `rank`'s own thread) and wakes only
    /// the receivers parked on that specific source, so their waits
    /// re-evaluate to `SourceDead`. Receivers parked on other sources or
    /// on wildcards are left alone — a death can never unblock them.
    /// Returns `true` the first time the rank is marked (so the caller can
    /// record the death exactly once).
    pub(crate) fn mark_dead(&self, rank: crate::Rank) -> bool {
        if !self.dead[rank.index()].swap(true, Ordering::SeqCst) {
            for mb in self.mailboxes.iter() {
                mb.wake_for_death(rank);
            }
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world_runs() {
        let report = World::builder(1)
            .cost_model(CostModel::zero())
            .run(|comm| {
                comm.compute(2.0)?;
                Ok(comm.rank().index())
            })
            .unwrap();
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.max_virtual_time, 2.0);
        assert!(!report.aborted);
        assert_eq!(report.into_results().unwrap(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = World::builder(0);
    }

    #[test]
    fn start_time_offsets_clocks() {
        let report = World::builder(2)
            .cost_model(CostModel::zero())
            .start_time(100.0)
            .run(|comm| {
                comm.compute(1.0)?;
                Ok(comm.now())
            })
            .unwrap();
        for r in report.into_results().unwrap() {
            assert_eq!(r, 101.0);
        }
    }

    #[test]
    fn rank_death_does_not_abort_world() {
        let report = World::builder(3)
            .cost_model(CostModel::zero())
            .death_times(vec![f64::INFINITY, 5.0, f64::INFINITY])
            .run(|comm| {
                for _ in 0..10 {
                    comm.compute(1.0)?;
                }
                Ok(comm.rank().index())
            })
            .unwrap();
        assert!(!report.aborted, "a single rank death must not abort the world");
        assert_eq!(report.dead_ranks, vec![1]);
        assert!(matches!(
            report.results[1],
            Err(crate::MpiError::Dead { rank, at }) if rank == crate::Rank::new(1) && at == 5.0
        ));
        assert_eq!(*report.results[0].as_ref().unwrap(), 0);
        assert_eq!(*report.results[2].as_ref().unwrap(), 2);
    }

    #[test]
    fn send_to_dead_peer_reports_dead_peer() {
        let report = World::builder(2)
            .cost_model(CostModel::zero())
            .death_times(vec![f64::INFINITY, 1.0])
            .run(|comm| {
                if comm.rank().index() == 0 {
                    // Advance past the peer's death time, then try to send.
                    comm.compute(2.0)?;
                    match comm.send(crate::Rank::new(1), crate::Tag::new(0), b"hi") {
                        Err(crate::MpiError::DeadPeer { peer, .. }) => {
                            assert_eq!(peer, crate::Rank::new(1));
                            Ok(true)
                        }
                        other => panic!("expected DeadPeer, got {other:?}"),
                    }
                } else {
                    comm.compute(2.0)?; // dies at t=1.0
                    Ok(false)
                }
            })
            .unwrap();
        assert!(!report.aborted);
        assert!(report.results[0].as_ref().unwrap());
        assert!(matches!(report.results[1], Err(crate::MpiError::Dead { .. })));
    }

    #[test]
    fn recv_from_dead_sender_unblocks() {
        // Rank 1 dies before ever sending; rank 0's blocking receive must
        // unblock with DeadPeer instead of hanging forever.
        let report = World::builder(2)
            .cost_model(CostModel::zero())
            .death_times(vec![f64::INFINITY, 1.0])
            .run(|comm| {
                if comm.rank().index() == 0 {
                    match comm.recv(crate::Rank::new(1).into(), crate::Tag::new(0).into()) {
                        Err(crate::MpiError::DeadPeer { peer, .. }) => {
                            assert_eq!(peer, crate::Rank::new(1));
                            Ok(())
                        }
                        other => panic!("expected DeadPeer, got {other:?}"),
                    }
                } else {
                    comm.compute(5.0)?; // crosses death time, returns Dead
                    Ok(())
                }
            })
            .unwrap();
        assert!(!report.aborted);
        assert!(report.results[0].is_ok());
    }

    #[test]
    fn message_sent_before_death_still_delivered() {
        // Rank 1 sends, then dies. Rank 0 must receive the buffered message
        // even though the sender is long dead by the time it looks.
        let report = World::builder(2)
            .cost_model(CostModel::zero())
            .death_times(vec![f64::INFINITY, 2.0])
            .run(|comm| {
                if comm.rank().index() == 0 {
                    let (payload, _) =
                        comm.recv(crate::Rank::new(1).into(), crate::Tag::new(0).into())?;
                    assert_eq!(&payload[..], b"legacy");
                    Ok(())
                } else {
                    comm.compute(1.0)?;
                    comm.send(crate::Rank::new(0), crate::Tag::new(0), b"legacy")?;
                    comm.compute(5.0)?; // now cross the death time
                    Ok(())
                }
            })
            .unwrap();
        assert!(report.results[0].is_ok());
        assert!(matches!(report.results[1], Err(crate::MpiError::Dead { .. })));
    }

    #[test]
    fn rank_timing_comm_fraction() {
        let t = RankTiming { finish: 10.0, busy: 8.0, comm: 2.0 };
        assert!((t.comm_fraction() - 0.2).abs() < 1e-12);
        let idle = RankTiming { finish: 0.0, busy: 0.0, comm: 0.0 };
        assert_eq!(idle.comm_fraction(), 0.0);
    }
}
