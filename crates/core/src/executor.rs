//! The resilient executor: runs a steppable application under combined
//! replication + coordinated checkpointing + fault injection, restarting
//! from the last checkpoint after every sphere failure, until the
//! application completes.
//!
//! The executor is a state machine over one attempt timeline
//! ([`redcr_fault::AttemptPlan`]). [`ResilientExecutor::run`] is the loop;
//! each transition is a method of the private `Job` and is the single
//! place that charges its virtual time, emits its events and counters and
//! updates the running totals (DESIGN §4g has the full table):
//!
//! ```text
//! begin_attempt ──▶ run_segment ──▶ Ended::{Completed, Failed} ──▶ close_attempt
//!   ▲  │                ▲   │                    ▲                  │        │
//!   │  ▼ gives up       │   ▼ Quiesced           │ KilledInTransfer │        ▼
//!   │  (NoProgress,     └── heal ────────────────┘                  │   Next::Finish
//!   │  AttemptsExhausted)  Committed                                │   ──▶ finish
//!   └───────────────────────── Next::Restart ◀──────────────────────┘   (the report)
//! ```
//!
//! What the ranks of a segment run lives in `executor::segment`. No function here
//! may outgrow clippy's `too_many_lines` default: a transition that needs
//! more room wants splitting, not a longer body.

#![deny(clippy::too_many_lines)]

mod segment;

use std::sync::Arc;

use redcr_ckpt::codec::{Decode, Encode};
use redcr_ckpt::coordinator::CheckpointCoordinator;
use redcr_ckpt::restart;
use redcr_ckpt::snapshot::ProcessImage;
use redcr_ckpt::storage::{MemoryStorage, StableStorage, StorageCostModel};
use redcr_fault::{AttemptPlan, FailureInjector, FailureTrace, ReplicaGroups};
use redcr_model::partition::RedundancyPartition;
use redcr_mpi::metrics::{CounterKey, HistKey, MetricsRegistry};
use redcr_mpi::prof::{Profiler, SpanKey as ProfSpanKey};
use redcr_mpi::trace::heal::HealLedger;
use redcr_mpi::trace::{Collector, EventKind};
use redcr_mpi::{Communicator, MpiError, Obs, Sinks};
use redcr_red::stats::StatsSnapshot;
use redcr_red::{DetectorParams, ReplicatedWorld};

use crate::config::ExecutorConfig;
use crate::report::ExecutionReport;
use crate::{CoreError, Result};
use segment::{rank_segment, Detector, DonorImage, Resume, SegmentOutcome};

/// An application the executor can run, checkpoint and restart.
///
/// The three methods see the world through any [`Communicator`], so the
/// same implementation runs replicated or plain. `State` is everything that
/// must survive a restart.
pub trait ResilientApp: Sync {
    /// The checkpointable state.
    type State: Encode + Decode + Send + 'static;

    /// Builds the initial state (collective).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    fn init<C: Communicator>(&self, comm: &C) -> redcr_mpi::Result<Self::State>;

    /// Advances the application by one step (collective).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    fn step<C: Communicator>(&self, comm: &C, state: &mut Self::State) -> redcr_mpi::Result<()>;

    /// Whether the application has finished.
    fn is_done(&self, state: &Self::State) -> bool;
}

/// What the driver keeps of a segment's world once it has run: the
/// virtual clock it stopped at and every physical rank's outcome.
struct Ran<S> {
    clock: f64,
    results: Vec<redcr_mpi::Result<SegmentOutcome<S>>>,
}

/// How `run_segment` left the attempt.
enum Segment<S> {
    /// The failure detector fired and every live rank quiesced.
    Quiesced(Ran<S>),
    /// It was the attempt's last.
    Ended(Ended<S>),
}

/// How an attempt's last segment left it.
enum Ended<S> {
    /// Every virtual rank kept a live replica running to completion.
    Completed(Ran<S>),
    /// Some sphere lost its last replica; the world stopped at `clock`.
    Failed { clock: f64 },
}

/// How a heal cycle left the attempt.
#[derive(Debug, PartialEq)]
enum Healed {
    /// The suspects were respawned; the next segment starts at the commit.
    Committed,
    /// A sphere's last donor died before the commit: the attempt fails,
    /// its world having stopped at `clock`.
    KilledInTransfer { clock: f64 },
}

/// What follows a closed attempt.
enum Next<S> {
    Restart,
    /// The run is over; `finish` seals the report from the last segment.
    Finish(Ran<S>),
}

/// One attempt in flight: its failure timeline, its heal ledger and how
/// its next segment starts.
struct Attempt {
    plan: AttemptPlan,
    ledger: HealLedger,
    detector: Detector,
    resume: Resume,
    segment_start: f64,
}

/// The run-long half of the machine. Every transition is a method here.
struct Job<'a, S> {
    cfg: &'a ExecutorConfig,
    coordinator: CheckpointCoordinator,
    injector: FailureInjector,
    /// Sphere membership as the trace-side accounting wants it (`u32`
    /// ranks), mirrored once from the injector's [`ReplicaGroups`].
    spheres: Vec<Vec<u32>>,
    /// The sinks every segment's world records into. The driver writes
    /// its own rank-less events and counters to them directly and keeps
    /// a profile shard for its segment / heal spans (host clock only —
    /// no virtual time).
    sinks: Sinks,
    driver: Obs,
    /// The report in the making: every transition adds its own share of
    /// the totals, and `finish` seals it.
    report: ExecutionReport<S>,
    resume_time: f64,
    /// Livelock guard: consecutive restarts that found no new checkpoint.
    stagnant: u64,
    last_committed: Option<u64>,
}

impl<'a, S: Encode + Send> Job<'a, S> {
    fn new(cfg: &'a ExecutorConfig, storage: &Arc<dyn StableStorage>) -> Result<Self> {
        let partition = RedundancyPartition::new(cfg.n_virtual, cfg.degree)?;
        let counts: Vec<usize> =
            (0..partition.n_virtual()).map(|v| partition.replicas_of(v) as usize).collect();
        let groups = ReplicaGroups::from_counts(&counts);
        let n_physical = groups.n_physical();
        let spheres: Vec<Vec<u32>> =
            groups.iter().map(|m| m.iter().map(|&p| p as u32).collect()).collect();
        let sinks = Sinks {
            trace: cfg.tracing.then(|| Arc::new(Collector::new())),
            metrics: cfg.metrics.then(|| Arc::new(MetricsRegistry::new(cfg.scrape_interval))),
            profiler: cfg.profiling.then(|| Arc::new(Profiler::new())),
        };
        for (v, members) in spheres.iter().enumerate() {
            for (replica, &p) in members.iter().enumerate() {
                let kind = EventKind::Topology { sphere: v as u32, replica: replica as u32 };
                sinks.event(0.0, Some(p), kind);
            }
        }
        Ok(Job {
            cfg,
            coordinator: CheckpointCoordinator::new(Arc::clone(storage))
                .cost_model(StorageCostModel::fixed(cfg.checkpoint_cost, cfg.restart_cost)),
            injector: FailureInjector::new(groups, cfg.node_mtbf, cfg.seed),
            spheres,
            driver: sinks.driver(),
            sinks,
            report: ExecutionReport {
                total_virtual_time: 0.0,
                attempts: 0,
                failures: 0,
                masked_failures: 0,
                degraded_sphere_seconds: 0.0,
                checkpoints_committed: 0,
                respawns: 0,
                heal_latency_seconds: 0.0,
                recovered_voting_seconds: 0.0,
                replication: StatsSnapshot::default(),
                physical_messages: 0,
                physical_bytes: 0,
                n_physical,
                node_seconds: 0.0,
                failure_trace: FailureTrace::new(),
                trace: None,
                metrics: None,
                profile: None,
                final_states: Vec::new(),
            },
            resume_time: 0.0,
            stagnant: 0,
            last_committed: None,
        })
    }

    /// Restart → attempt. Takes the attempt's one look at stable storage,
    /// which decides both how the attempt resumes and, after a failure,
    /// whether the last one got anywhere; gives up when the livelock guard
    /// or the attempt budget says so; then samples the failure timeline.
    fn begin_attempt(&mut self) -> Result<Attempt> {
        let cfg = self.cfg;
        let storage = self.coordinator.storage().as_ref();
        let latest = restart::latest_complete(storage, cfg.n_virtual as u32)?;
        if self.report.attempts > 0 {
            // Livelock guard: a restart that found no new checkpoint
            // replays exactly the ground already lost.
            if latest == self.last_committed {
                self.stagnant += 1;
                if self.stagnant >= cfg.no_progress_limit {
                    return Err(CoreError::NoProgress { attempts: self.report.attempts });
                }
            } else {
                self.last_committed = latest;
                self.stagnant = 0;
            }
        }
        if self.report.attempts >= cfg.max_attempts {
            return Err(CoreError::AttemptsExhausted { attempts: self.report.attempts });
        }
        self.report.attempts += 1;

        let plan = self.injector.plan_attempt(self.resume_time);
        self.sinks.event(plan.start_time, None, EventKind::AttemptStart { attempt: plan.attempt });
        for d in plan.deaths() {
            self.sinks.event(d.abs, Some(d.process as u32), EventKind::Injected { rel: d.rel });
        }
        Ok(Attempt {
            detector: Detector {
                policy: cfg.heal_policy,
                params: DetectorParams::new(cfg.heartbeat_period, cfg.suspicion_timeout),
                attempt_start: plan.start_time,
            },
            resume: match latest {
                Some(seq) => Resume::Stored(seq),
                None => Resume::Scratch { pay_restart: self.report.attempts > 1 },
            },
            segment_start: self.resume_time,
            ledger: HealLedger::default(),
            plan,
        })
    }

    /// Runs one world segment from `attempt.segment_start` and classifies
    /// how it stopped.
    fn run_segment<A>(&mut self, app: &A, attempt: &Attempt) -> Result<Segment<S>>
    where
        A: ResilientApp<State = S>,
    {
        let cfg = self.cfg;
        let deaths = attempt.plan.absolute_death_times();
        let mut builder = ReplicatedWorld::builder(cfg.n_virtual, cfg.degree)?
            .cost_model(cfg.comm_cost)
            .death_times(deaths.to_vec())
            .start_time(attempt.segment_start)
            .obs(self.sinks.clone());
        if let Some(w) = cfg.workers {
            builder = builder.workers(w);
        }
        let coordinator = &self.coordinator;
        let span = self.driver.span(ProfSpanKey::ExecutorSegment);
        let world = builder.run(|comm| rank_segment(app, cfg, coordinator, attempt, comm))?;
        drop(span);

        self.report.replication = self.report.replication.add(&world.stats);
        self.report.physical_messages += world.physical_messages;
        self.report.physical_bytes += world.physical_bytes;
        // Any non-fail-stop error is a genuine bug, never a planned death
        // (Dead/DeadPeer/SphereDead/Aborted are all expected outcomes of
        // live injection).
        if let Some(e) =
            world.results.iter().filter_map(|r| r.as_ref().err()).find(|e| !e.is_fail_stop())
        {
            return Err(CoreError::Runtime(e.clone()));
        }
        let ran = Ran { clock: world.max_virtual_time, results: world.results };
        let failed = Ended::Failed { clock: ran.clock };
        if world.aborted {
            return Ok(Segment::Ended(failed));
        }
        if ran.results.iter().any(|r| matches!(r, Ok(SegmentOutcome::Quiesced { .. }))) {
            return Ok(Segment::Quiesced(ran));
        }
        // Completed iff every virtual rank kept at least one live replica
        // running to `Done`. A rank's *primary* may well be `Err(Dead)` —
        // a surviving shadow carries the state then.
        let done = |p: &usize| matches!(ran.results[*p], Ok(SegmentOutcome::Done { .. }));
        let completed = self.injector.groups().iter().all(|members| members.iter().any(done));
        Ok(Segment::Ended(if completed { Ended::Completed(ran) } else { failed }))
    }

    /// The heal cycle: name the suspects, capture the donor images, charge
    /// the modeled repair time, and either lose the kill-during-transfer
    /// race or respawn every suspect and point the attempt at a relaunch
    /// from live state.
    fn heal(&mut self, attempt: &mut Attempt, ran: Ran<S>) -> Result<Healed> {
        // Spans the suspect scan, donor vote, image transfer and relaunch
        // prep.
        let _span = self.driver.span(ProfSpanKey::ExecutorHeal);
        let (cfg, sinks, plan) = (self.cfg, &self.sinks, &mut attempt.plan);
        // The boundary the detector fired at: the agreed clock maximum,
        // advanced past the quiesce drain.
        let boundary = ran.results.iter().fold(ran.clock, |at, r| match r {
            Ok(SegmentOutcome::Quiesced { boundary, .. }) => at.max(*boundary),
            _ => at,
        });
        // Everyone who is not a suspect is a potential donor.
        let suspects: Vec<usize> =
            attempt.detector.suspects(plan.absolute_death_times(), boundary).collect();
        let spheres = &self.spheres;
        let sphere_of =
            |p: usize| spheres.iter().position(|m| m.contains(&(p as u32))).unwrap_or(0);
        let (donors, transfer_bytes) =
            donor_images(self.injector.groups(), &suspects, boundary, ran.results)?;
        // The respawn commits after the modeled repair work: fresh process
        // allocation plus shipping the donor images.
        let commit =
            boundary + cfg.respawn_cost + cfg.transfer_cost_per_byte * transfer_bytes as f64;

        // Detection happened and the respawn began regardless of whether
        // the transfer survives; record both per suspect.
        for &p in &suspects {
            let (rank, sphere) = (Some(p as u32), sphere_of(p) as u32);
            let suspected_at = attempt.detector.suspicion_time(plan.absolute_death_times()[p]);
            sinks.event(suspected_at, rank, EventKind::HeartbeatMiss { sphere });
            sinks.event(boundary, rank, EventKind::RespawnBegin { sphere });
        }
        if plan.kill_in_transfer(&suspects, commit, self.injector.trace_mut()) {
            // The respawn never commits; the attempt fails like any sphere
            // death, at the new (earlier) failure time.
            return Ok(Healed::KilledInTransfer { clock: ran.clock });
        }

        // Commit: respawn every suspect, drawing each incarnation's
        // lifetime from the injector's deterministic stream, and replay
        // the virtual map back to full voting strength.
        let rel_commit = commit - plan.start_time;
        for &p in &suspects {
            let (rank, v) = (Some(p as u32), sphere_of(p));
            let (sphere, copies) = (v as u32, spheres[v].len() as u32);
            let latency = commit - plan.absolute_death_times()[p];
            if let Some(d) = plan.respawn(p, commit, self.injector.resample_death()) {
                sinks.event(d.abs, rank, EventKind::Injected { rel: d.rel });
            }
            sinks.event(
                commit,
                rank,
                EventKind::RespawnCommit { sphere, rel: rel_commit, latency },
            );
            sinks.event(commit, rank, EventKind::RejoinVote { sphere, copies });
            attempt.ledger.commit(sphere, rel_commit, latency);
        }
        // The timeline changed: when (and whether) the job now fails, and
        // the failure log, follow it.
        plan.settle(self.injector.trace_mut());
        attempt.resume = Resume::Live(donors);
        attempt.segment_start = commit;
        Ok(Healed::Committed)
    }

    /// Ends the attempt on the virtual clock, emits its closing bracket,
    /// folds its account into the totals and decides what follows.
    fn close_attempt(&mut self, attempt: Attempt, ended: Ended<S>) -> Next<S> {
        let Attempt { plan, ledger, .. } = attempt;
        let (completed, clock) = match &ended {
            Ended::Completed(ran) => (true, ran.clock),
            Ended::Failed { clock } => (false, *clock),
        };
        // On a failure the survivors can be discovered slightly past the
        // sampled sphere-death time (the death materializes at the next
        // operation boundary), so take the max.
        let end = if completed || !plan.job_failure_time.is_finite() {
            clock
        } else {
            clock.max(plan.job_failure_time)
        };
        let rel_end = (end - plan.start_time).max(0.0);
        let rel_failure = plan.rel_failure();
        let killer = (!completed && rel_failure.is_finite()).then_some(plan.killer_sphere as u32);
        // Carries the exact relative values the accounting below compares,
        // so the trace analyzer reproduces it bit-for-bit.
        let bracket = EventKind::AttemptEnd {
            attempt: plan.attempt,
            completed,
            rel_end,
            rel_failure,
            killer,
        };
        self.sinks.event(end, None, bracket);

        // Degraded and recovered running time, the deaths redundancy
        // masked and the heal totals: the ledger the trace analyzer closes
        // too, replaying it from the events above.
        let deaths: Vec<(u32, f64)> =
            plan.deaths().iter().map(|d| (d.process as u32, d.rel)).collect();
        let account = ledger.close(&self.spheres, &deaths, completed, rel_end, rel_failure, killer);
        // No event carries the ledger's masked deaths or degraded
        // intervals, so these two metrics are stated here; the bracket
        // above already counted the attempt and any restart.
        for &span in &account.degraded_spans {
            self.sinks.observe(HistKey::DegradedInterval, span);
        }
        self.sinks.add(CounterKey::MaskedFailures, account.masked, end);
        let report = &mut self.report;
        report.masked_failures += account.masked;
        report.degraded_sphere_seconds += account.degraded_seconds;
        report.recovered_voting_seconds += account.recovered_seconds;
        report.respawns += account.respawns;
        report.heal_latency_seconds += account.heal_latency_seconds;

        match ended {
            Ended::Failed { .. } => {
                report.failures += 1;
                self.resume_time = end;
                Next::Restart
            }
            Ended::Completed(ran) => {
                // The planned *job* failure never materialized, so prune
                // its never-observed events from the log.
                self.injector.trace_mut().truncate_attempt(plan.attempt, end);
                Next::Finish(ran)
            }
        }
    }

    /// Collects the final states and seals the report.
    fn finish(self, ran: Ran<S>) -> Result<ExecutionReport<S>> {
        let groups = self.injector.groups();
        let mut final_states = Vec::with_capacity(groups.n_virtual());
        // The checkpoint decision is a collective (allreduce) and the
        // commit is post-barrier, so every live replica of every virtual
        // rank must report the same committed count. Divergence is
        // corruption and must surface, not vanish under a `max`.
        let mut agreed: Option<u64> = None;
        for (v, live) in live_by_sphere(groups, ran.results).into_iter().enumerate() {
            let virtual_rank = v as u32;
            let mut state = None;
            let mut counts: Vec<u64> = Vec::new();
            for outcome in live {
                if let SegmentOutcome::Done { state: s, checkpoints } = outcome {
                    state.get_or_insert(s);
                    counts.push(checkpoints);
                }
            }
            let Some(state) = state else {
                return Err(CoreError::Runtime(MpiError::App {
                    what: format!("no live replica of rank {v} produced a result"),
                }));
            };
            if counts.windows(2).any(|w| w[0] != w[1]) {
                return Err(CoreError::CheckpointDivergence { virtual_rank, counts });
            }
            match agreed {
                None => agreed = Some(counts[0]),
                Some(agreed) if agreed != counts[0] => {
                    let counts = vec![agreed, counts[0]];
                    return Err(CoreError::CheckpointDivergence { virtual_rank, counts });
                }
                Some(_) => {}
            }
            final_states.push(state);
        }

        // The driver's spans join the profile; it buffers no events.
        self.sinks.drain(&self.driver);
        let mut report = self.report;
        report.total_virtual_time = ran.clock;
        report.checkpoints_committed = agreed.unwrap_or(0);
        report.node_seconds = report.n_physical as f64 * ran.clock;
        report.failure_trace = self.injector.trace().clone();
        report.trace = self.sinks.trace.as_ref().map(|c| c.take());
        report.metrics = self.sinks.metrics.as_ref().map(|r| r.report());
        report.profile = self.sinks.profiler.as_ref().map(|p| p.report());
        report.final_states = final_states;
        Ok(report)
    }
}

/// Per virtual rank, the outcomes of its replicas that returned one, in
/// replica order.
fn live_by_sphere<T>(groups: &ReplicaGroups, results: Vec<redcr_mpi::Result<T>>) -> Vec<Vec<T>> {
    let mut slots: Vec<Option<T>> = results.into_iter().map(redcr_mpi::Result::ok).collect();
    groups.iter().map(|members| members.iter().filter_map(|&p| slots[p].take()).collect()).collect()
}

/// Captures one canonical image per virtual rank from its lowest-ranked
/// replica that reached the quiesce (the donor), at the heal `boundary`,
/// and counts the bytes to ship: only images of healing spheres — survivors
/// keep their state in place.
fn donor_images<S: Encode>(
    groups: &ReplicaGroups,
    suspects: &[usize],
    boundary: f64,
    results: Vec<redcr_mpi::Result<SegmentOutcome<S>>>,
) -> Result<(Vec<DonorImage>, u64)> {
    let mut donors = Vec::with_capacity(groups.n_virtual());
    let mut transfer_bytes = 0u64;
    for (v, live) in live_by_sphere(groups, results).into_iter().enumerate() {
        let donor = live.into_iter().find_map(|outcome| match outcome {
            SegmentOutcome::Quiesced { state, channel, cursor, .. } => {
                Some((state, channel, cursor))
            }
            SegmentOutcome::Done { .. } => None,
        });
        let Some((state, channel, cursor)) = donor else {
            return Err(CoreError::Runtime(MpiError::App {
                what: format!("no live donor replica for virtual rank {v}"),
            }));
        };
        let bytes = ProcessImage::write(v as u32, boundary, &state, &channel);
        if suspects.iter().any(|p| groups.members(v).contains(p)) {
            transfer_bytes += bytes.len() as u64;
        }
        donors.push(DonorImage { bytes, cursor });
    }
    Ok((donors, transfer_bytes))
}

/// Runs [`ResilientApp`]s to completion under failures.
#[derive(Debug)]
pub struct ResilientExecutor {
    config: ExecutorConfig,
    storage: Arc<dyn StableStorage>,
}

impl ResilientExecutor {
    /// An executor with in-memory stable storage.
    pub fn new(config: ExecutorConfig) -> Self {
        ResilientExecutor { config, storage: Arc::new(MemoryStorage::new()) }
    }

    /// An executor writing checkpoints to the given storage backend.
    pub fn with_storage(config: ExecutorConfig, storage: Arc<dyn StableStorage>) -> Self {
        ResilientExecutor { config, storage }
    }

    /// The configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Runs `app` to completion: plans per-process failure times per
    /// attempt, injects them **live** into the replicated runtime (each
    /// process fail-stops at its sampled time), checkpoints at the
    /// configured interval, and restarts from the last complete checkpoint
    /// whenever some sphere loses its *last* replica. Individual deaths
    /// that redundancy masks do not restart anything — they only show up
    /// in the report as [`masked_failures`] and degraded running time.
    ///
    /// [`masked_failures`]: ExecutionReport::masked_failures
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::AttemptsExhausted`] if the attempt budget runs
    /// out, [`CoreError::NoProgress`] if the livelock guard fires, or the
    /// underlying model/runtime/checkpoint error.
    pub fn run<A: ResilientApp>(&self, app: &A) -> Result<ExecutionReport<A::State>> {
        let mut job = Job::new(&self.config, &self.storage)?;
        loop {
            let mut attempt = job.begin_attempt()?;
            // One attempt is a sequence of world segments: the first
            // starts from stable storage (or scratch); each heal cycle
            // quiesces its segment, respawns the suspects, and relaunches
            // the next segment from transferred live state.
            let ended = loop {
                match job.run_segment(app, &attempt)? {
                    Segment::Ended(ended) => break ended,
                    Segment::Quiesced(ran) => match job.heal(&mut attempt, ran)? {
                        Healed::Committed => {}
                        Healed::KilledInTransfer { clock } => break Ended::Failed { clock },
                    },
                }
            };
            match job.close_attempt(attempt, ended) {
                Next::Restart => {}
                Next::Finish(ran) => return job.finish(ran),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::segment::Cursor;
    use super::*;
    use crate::apps::CgApp;
    use redcr_apps::cg::CgConfig;
    use redcr_ckpt::storage::SnapshotKey;
    use redcr_ckpt::CkptError;
    use redcr_red::HealPolicy;

    fn memory() -> Arc<dyn StableStorage> {
        Arc::new(MemoryStorage::new())
    }

    fn cg_app(n: usize, iterations: u64, pad: f64) -> CgApp {
        CgApp::new(CgConfig::small(n), iterations).with_step_pad(pad)
    }

    /// A healing 2×2 job whose first attempt is planned but not run, so the
    /// transitions can be driven by hand.
    fn heal_cfg(respawn_cost: f64) -> ExecutorConfig {
        ExecutorConfig::new(2, 2.0)
            .node_mtbf(10.0)
            .seed(1)
            .heal_policy(HealPolicy::OnDegrade)
            .heartbeat_period(0.5)
            .suspicion_timeout(0.5)
            .respawn_cost(respawn_cost)
    }

    /// A quiesced segment in which exactly the first replica to die is
    /// suspected: everyone else returns a `u64` state at the boundary.
    fn quiesced_at_first_suspicion(attempt: &Attempt) -> (usize, Ran<u64>) {
        let deaths = attempt.plan.absolute_death_times();
        let first = (0..deaths.len()).min_by(|&a, &b| deaths[a].total_cmp(&deaths[b])).unwrap();
        let boundary = attempt.detector.suspicion_time(deaths[first]);
        let suspects: Vec<usize> = attempt.detector.suspects(deaths, boundary).collect();
        assert_eq!(suspects, vec![first], "seed drifted");
        let cursor = Cursor { next_seq: 3, next_ckpt: boundary + 1.0, checkpoints: 2 };
        let results = (0..deaths.len())
            .map(|p| {
                if p == first {
                    return Err(MpiError::App { what: "dead".into() });
                }
                let state = 100 + p as u64;
                Ok(SegmentOutcome::Quiesced { state, channel: Vec::new(), boundary, cursor })
            })
            .collect();
        (first, Ran { clock: boundary, results })
    }

    #[test]
    fn heal_commit_relaunches_from_live_state() {
        let (cfg, storage) = (heal_cfg(0.25), memory());
        let mut job = Job::<u64>::new(&cfg, &storage).unwrap();
        let mut attempt = job.begin_attempt().unwrap();
        assert!(matches!(attempt.resume, Resume::Scratch { pay_restart: false }));
        let (suspect, ran) = quiesced_at_first_suspicion(&attempt);
        let (boundary, died_at) = (ran.clock, attempt.plan.absolute_death_times()[suspect]);

        assert_eq!(job.heal(&mut attempt, ran).unwrap(), Healed::Committed);
        // No transfer cost configured: the commit is the respawn cost away.
        assert_eq!(attempt.segment_start, boundary + 0.25);
        let Resume::Live(donors) = &attempt.resume else { panic!("a healed attempt resumes live") };
        assert_eq!(donors.len(), 2, "one donor image per virtual rank");
        let cursor = Cursor { next_seq: 3, next_ckpt: boundary + 1.0, checkpoints: 2 };
        assert!(donors.iter().all(|d| d.cursor == cursor && !d.bytes.is_empty()));
        // The suspect's new incarnation dies after the commit, and the
        // ledger saw one respawn of its sphere.
        assert!(attempt.plan.absolute_death_times()[suspect] > attempt.segment_start);
        assert_eq!(attempt.plan.deaths().len(), 5);
        let account = attempt.ledger.clone().close(&job.spheres, &[], true, 0.0, 0.0, None);
        assert_eq!(account.respawns, 1);
        assert_eq!(account.heal_latency_seconds, attempt.segment_start - died_at);
        assert_eq!(account.heal_commits, vec![((suspect % 2) as u32, attempt.segment_start)]);
    }

    #[test]
    fn heal_killed_in_transfer_fails_the_attempt_at_the_donor_death() {
        // A respawn so slow that the suspect's only donor dies first.
        let (cfg, storage) = (heal_cfg(1e6), memory());
        let mut job = Job::<u64>::new(&cfg, &storage).unwrap();
        let mut attempt = job.begin_attempt().unwrap();
        let (suspect, ran) = quiesced_at_first_suspicion(&attempt);
        let clock = ran.clock;
        let donor = job.injector.groups().members(suspect % 2)[1 - suspect / 2];
        let donor_death = attempt.plan.absolute_death_times()[donor];

        assert_eq!(job.heal(&mut attempt, ran).unwrap(), Healed::KilledInTransfer { clock });
        assert!(matches!(attempt.resume, Resume::Scratch { .. }), "nothing was relaunched");
        assert_eq!(attempt.plan.job_failure_time, donor_death);
        assert_eq!(attempt.plan.killer_sphere, suspect % 2);

        // Closing it is an ordinary restart, logged with one killer.
        let next = job.close_attempt(attempt, Ended::Failed { clock });
        assert!(matches!(next, Next::Restart));
        assert_eq!((job.report.failures, job.report.respawns), (1, 0));
        assert_eq!(job.resume_time, donor_death);
        let log = job.injector.trace();
        assert_eq!(log.job_failures(), 1);
        assert!(log.events().iter().all(|e| e.killed_job == (e.process == donor)));
        // The next attempt finds no checkpoint and pays the restart charge.
        let again = job.begin_attempt().unwrap();
        assert!(matches!(again.resume, Resume::Scratch { pay_restart: true }));
        assert_eq!(again.plan.start_time, donor_death);
    }

    #[test]
    fn heal_is_due_by_policy() {
        let detector =
            |policy| Detector { policy, params: DetectorParams::new(0.5, 0.5), attempt_start: 0.0 };
        // Rank 1 died at 3.2: last beat 3.0, suspected at 3.5.
        let deaths = [f64::INFINITY, 3.2];
        let on_degrade = detector(HealPolicy::OnDegrade);
        assert!(!on_degrade.heal_due(&deaths, 3.4, 100.0));
        assert!(on_degrade.heal_due(&deaths, 3.5, 100.0));
        assert_eq!(on_degrade.suspects(&deaths, 3.5).collect::<Vec<_>>(), vec![1]);
        // AtCheckpoint waits for the checkpoint deadline (inclusive).
        let at_checkpoint = detector(HealPolicy::AtCheckpoint);
        assert!(!at_checkpoint.heal_due(&deaths, 5.9, 6.0));
        assert!(at_checkpoint.heal_due(&deaths, 6.0, 6.0));
        assert!(!at_checkpoint.heal_due(&[f64::INFINITY; 2], 6.0, 6.0), "nobody to heal");
        assert!(!detector(HealPolicy::Never).heal_due(&deaths, 1e9, 0.0));
    }

    #[test]
    fn resume_is_decided_from_the_one_storage_listing() {
        use Resume::{Scratch, Stored};
        // Empty storage: from scratch, and only a restart pays for it (the
        // later-attempt case is driven in the kill-in-transfer test).
        let (cfg, storage) = (ExecutorConfig::new(2, 1.0), memory());
        let attempt = Job::<u64>::new(&cfg, &storage).unwrap().begin_attempt().unwrap();
        assert!(matches!(attempt.resume, Scratch { pay_restart: false }));

        // A complete generation already on storage is what the very first
        // attempt resumes from.
        for rank in 0..2 {
            storage.store(SnapshotKey::new(7, rank), b"image").unwrap();
        }
        storage.store(SnapshotKey::new(8, 0), b"torn generation").unwrap();
        let attempt = Job::<u64>::new(&cfg, &storage).unwrap().begin_attempt().unwrap();
        assert!(matches!(attempt.resume, Stored(7)));
    }

    /// Stable storage that cannot be listed.
    #[derive(Debug)]
    struct Unlistable;

    impl StableStorage for Unlistable {
        fn store(&self, _: SnapshotKey, _: &[u8]) -> redcr_ckpt::Result<()> {
            Ok(())
        }
        fn load(&self, key: SnapshotKey) -> redcr_ckpt::Result<Vec<u8>> {
            Err(CkptError::NotFound { what: key.to_string() })
        }
        fn list(&self) -> redcr_ckpt::Result<Vec<SnapshotKey>> {
            Err(CkptError::Storage(std::io::Error::other("listing denied")))
        }
        fn delete(&self, _: SnapshotKey) -> redcr_ckpt::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn unlistable_storage_is_a_checkpoint_error() {
        let executor =
            ResilientExecutor::with_storage(ExecutorConfig::new(2, 2.0), Arc::new(Unlistable));
        let err = executor.run(&cg_app(16, 3, 0.0)).unwrap_err();
        assert!(matches!(err, CoreError::Checkpoint(CkptError::Storage(_))), "got: {err}");
    }

    #[test]
    fn failure_free_run_completes_without_restarts() {
        let cfg = ExecutorConfig::new(4, 1.0);
        let report = ResilientExecutor::new(cfg).run(&cg_app(32, 10, 0.0)).unwrap();
        assert_eq!(report.attempts, 1);
        assert_eq!(report.failures, 0);
        assert_eq!(report.final_states.len(), 4);
        for s in &report.final_states {
            assert_eq!(s.iteration, 10);
        }
    }

    #[test]
    fn checkpoints_taken_at_interval() {
        // Each step pads 1.0 virtual second; checkpoint every 2.5 s.
        let cfg = ExecutorConfig::new(2, 1.0).checkpoint_interval(2.5).checkpoint_cost(0.1);
        let report = ResilientExecutor::new(cfg).run(&cg_app(16, 10, 1.0)).unwrap();
        assert_eq!(report.failures, 0);
        assert!(
            report.checkpoints_committed >= 2,
            "expected several checkpoints, got {}",
            report.checkpoints_committed
        );
        // Total time includes checkpoint costs.
        assert!(report.total_virtual_time >= 10.0);
    }

    #[test]
    fn recovers_from_failures_and_finishes() {
        // MTBF of 30 s per process over a ~40 s job with 4 processes at 1x:
        // several failures guaranteed; checkpoints every 5 s keep progress.
        let cfg = ExecutorConfig::new(4, 1.0)
            .node_mtbf(30.0)
            .checkpoint_interval(5.0)
            .checkpoint_cost(0.2)
            .restart_cost(1.0)
            .seed(12);
        let report = ResilientExecutor::new(cfg).run(&cg_app(32, 40, 1.0)).unwrap();
        assert!(report.failures > 0, "expected failures: {report:?}");
        assert_eq!(report.attempts, report.failures + 1);
        for s in &report.final_states {
            assert_eq!(s.iteration, 40, "application completed despite failures");
        }
        // Wallclock exceeds the failure-free time.
        assert!(report.total_virtual_time > 40.0);
        assert!(!report.failure_trace.is_empty());
    }

    #[test]
    fn redundancy_reduces_restarts_at_same_mtbf() {
        let run = |degree: f64, seed: u64| {
            let cfg = ExecutorConfig::new(4, degree)
                .node_mtbf(60.0)
                .checkpoint_interval(8.0)
                .checkpoint_cost(0.2)
                .restart_cost(1.0)
                .seed(seed);
            ResilientExecutor::new(cfg).run(&cg_app(32, 30, 1.0)).unwrap()
        };
        let mut fail1 = 0;
        let mut fail2 = 0;
        for seed in 0..5 {
            fail1 += run(1.0, seed).failures;
            fail2 += run(2.0, seed).failures;
        }
        assert!(fail2 < fail1, "dual redundancy must cut job failures: 1x={fail1} 2x={fail2}");
    }

    #[test]
    fn solution_identical_with_and_without_failures() {
        let clean = {
            let cfg = ExecutorConfig::new(4, 1.0);
            ResilientExecutor::new(cfg).run(&cg_app(32, 25, 1.0)).unwrap()
        };
        let stormy = {
            let cfg = ExecutorConfig::new(4, 2.0)
                .node_mtbf(40.0)
                .checkpoint_interval(4.0)
                .checkpoint_cost(0.1)
                .restart_cost(0.5)
                .seed(3);
            ResilientExecutor::new(cfg).run(&cg_app(32, 25, 1.0)).unwrap()
        };
        assert!(stormy.failures > 0, "storm run should see failures");
        for (a, b) in clean.final_states.iter().zip(&stormy.final_states) {
            assert_eq!(a.iteration, b.iteration);
            for (x, y) in a.x.iter().zip(&b.x) {
                assert!((x - y).abs() < 1e-12, "numerics must survive restarts");
            }
        }
    }

    #[test]
    fn masked_failures_counted_and_fatal_ones_excluded() {
        // At 2x with a harsh MTBF some attempts restart (sphere deaths) and
        // some individual deaths are masked; both tallies must be visible.
        let cfg = ExecutorConfig::new(4, 2.0)
            .node_mtbf(25.0)
            .checkpoint_interval(4.0)
            .checkpoint_cost(0.1)
            .restart_cost(0.5)
            .seed(8);
        let report = ResilientExecutor::new(cfg).run(&cg_app(32, 30, 1.0)).unwrap();
        assert!(report.masked_failures > 0, "2x under mtbf 25 must mask deaths: {report}");
        assert!(report.degraded_sphere_seconds > 0.0);
        for s in &report.final_states {
            assert_eq!(s.iteration, 30);
        }
    }

    #[test]
    fn livelock_guard_reports_no_progress() {
        // The job can never reach its first checkpoint, so every restart
        // replays from scratch: the guard must fire before the (large)
        // attempt budget.
        let cfg = ExecutorConfig::new(4, 1.0)
            .node_mtbf(0.5)
            .checkpoint_interval(10.0)
            .checkpoint_cost(1.0)
            .restart_cost(1.0)
            .max_attempts(10_000)
            .no_progress_limit(6);
        let err = ResilientExecutor::new(cfg).run(&cg_app(32, 1000, 1.0)).unwrap_err();
        assert!(
            matches!(err, CoreError::NoProgress { attempts: 6 }),
            "expected the livelock guard, got: {err}"
        );
    }

    #[test]
    fn attempt_budget_enforced() {
        // Absurd MTBF: the job can never finish a checkpoint.
        let cfg = ExecutorConfig::new(4, 1.0)
            .node_mtbf(0.5)
            .checkpoint_interval(10.0)
            .checkpoint_cost(1.0)
            .restart_cost(1.0)
            .max_attempts(5);
        let err = ResilientExecutor::new(cfg).run(&cg_app(32, 1000, 1.0)).unwrap_err();
        assert!(matches!(err, CoreError::AttemptsExhausted { attempts: 5 }));
    }
}
