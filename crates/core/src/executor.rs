//! The resilient executor: runs a steppable application under combined
//! replication + coordinated checkpointing + fault injection, restarting
//! from the last checkpoint after every sphere failure, until the
//! application completes.

use std::sync::Arc;

use serde::de::DeserializeOwned;
use serde::Serialize;

use redcr_ckpt::bookmark;
use redcr_ckpt::coordinator::CheckpointCoordinator;
use redcr_ckpt::restart;
use redcr_ckpt::snapshot::{ChannelMessage, ProcessImage};
use redcr_ckpt::storage::{MemoryStorage, StableStorage, StorageCostModel};
use redcr_ckpt::CountingComm;
use redcr_fault::{FailureEvent, FailureInjector, ReplicaGroups};
use redcr_model::partition::RedundancyPartition;
use redcr_mpi::collectives::ReduceOp;
use redcr_mpi::metrics::{CounterKey, HistKey, MetricsRegistry};
use redcr_mpi::prof::{Profiler, SpanKey as ProfSpanKey};
use redcr_mpi::trace::{heal, Collector, EventKind};
use redcr_mpi::{Communicator, MpiError, Sinks};
use redcr_red::{DetectorParams, HealPolicy, ReplicatedWorld};

use crate::config::ExecutorConfig;
use crate::report::ExecutionReport;
use crate::{CoreError, Result};

/// An application the executor can run, checkpoint and restart.
///
/// The three methods see the world through any [`Communicator`], so the
/// same implementation runs replicated or plain. `State` is everything that
/// must survive a restart.
pub trait ResilientApp: Sync {
    /// The checkpointable state.
    type State: Serialize + DeserializeOwned + Send + 'static;

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

/// What one world segment of an attempt produced on each rank. An attempt
/// is a sequence of segments: the failure detector splits it at heal
/// boundaries, and only the last segment runs the application to
/// completion.
enum SegmentOutcome<S> {
    /// The application finished; `checkpoints` counts commits across the
    /// whole attempt (carried over heal relaunches).
    Done { state: S, checkpoints: u64 },
    /// The failure detector fired at the collective boundary: the segment
    /// quiesced its channels so the executor can respawn the suspected
    /// replicas and relaunch every rank from live state.
    Heal {
        state: S,
        channel: Vec<ChannelMessage>,
        boundary: f64,
        next_seq: u64,
        next_ckpt: f64,
        checkpoints: u64,
    },
}

/// Live state carried across a heal relaunch: one serialized checkpoint
/// image per virtual rank (the donor replica's snapshot — the checkpoint
/// codec doubles as the state-transfer wire format) plus the checkpoint
/// cursor of the quiesced segment.
struct HealSeed {
    images: Vec<Vec<u8>>,
    next_seq: u64,
    next_ckpt: f64,
    checkpoints: u64,
}

/// Failure-detector inputs of one segment. Present only when the policy
/// heals, so the legacy `Never` path performs zero extra work.
struct HealCtx {
    policy: HealPolicy,
    params: DetectorParams,
    attempt_start: f64,
    deaths: Vec<f64>,
}

impl HealCtx {
    /// Whether any replica's suspicion deadline has elapsed at the agreed
    /// clock boundary `now_max`. Pure in the boundary and the (identical)
    /// death schedule, so every rank takes the same branch without any
    /// extra communication.
    fn suspects_at(&self, now_max: f64) -> bool {
        self.deaths.iter().any(|&d| self.params.suspicion_time(self.attempt_start, d) <= now_max)
    }
}

/// Absolute job-failure time of the current death timeline: the earliest
/// moment any sphere loses its last replica (max member death, minimized
/// over spheres; ties resolve to the lower sphere, matching the sampled
/// schedule's own `job_failure`).
fn job_failure_abs(groups: &ReplicaGroups, deaths_abs: &[f64]) -> (f64, usize) {
    let mut when = f64::INFINITY;
    let mut who = usize::MAX;
    for (v, members) in groups.iter().enumerate() {
        let dead_at = members
            .iter()
            .map(|&p| deaths_abs.get(p).copied().unwrap_or(f64::INFINITY))
            .fold(f64::NEG_INFINITY, f64::max);
        if dead_at < when {
            when = dead_at;
            who = v;
        }
    }
    (when, who)
}

/// Rewrites an attempt's failure log against its *current* timeline. A heal
/// commit changes which deaths occur and which one (if any) kills the job,
/// so the events recorded at plan time are dropped and re-recorded from the
/// live death list, with `killed_job` pointing at the recomputed killer.
fn rebuild_failure_log(
    injector: &mut FailureInjector,
    attempt: u64,
    deaths_log: &[(u32, f64)],
    job_fail_abs: f64,
    killer: usize,
) {
    let fatal: Vec<usize> = if job_fail_abs.is_finite() {
        injector.groups().members(killer).to_vec()
    } else {
        Vec::new()
    };
    let trace = injector.trace_mut();
    trace.truncate_attempt(attempt, f64::NEG_INFINITY);
    if !job_fail_abs.is_finite() {
        return;
    }
    for &(p, abs) in deaths_log {
        if abs <= job_fail_abs {
            trace.record(FailureEvent {
                attempt,
                time: abs,
                process: p as usize,
                killed_job: abs == job_fail_abs && fatal.contains(&(p as usize)),
            });
        }
    }
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
        let cfg = &self.config;
        let partition = RedundancyPartition::new(cfg.n_virtual, cfg.degree)?;
        let counts: Vec<usize> =
            (0..partition.n_virtual()).map(|v| partition.replicas_of(v) as usize).collect();
        let groups = ReplicaGroups::from_counts(&counts);
        let mut injector = FailureInjector::new(groups, cfg.node_mtbf, cfg.seed);
        let storage_cost = StorageCostModel::fixed(cfg.checkpoint_cost, cfg.restart_cost);
        let coordinator = CheckpointCoordinator::new(Arc::clone(&self.storage))
            .cost_model(storage_cost)
            .protocol(cfg.protocol);
        let params = DetectorParams::new(cfg.heartbeat_period, cfg.suspicion_timeout);
        // Sphere membership in the two shapes the heal paths need: members
        // per sphere (as u32, for the shared heal accounting) and sphere
        // per physical rank.
        let spheres: Vec<Vec<u32>> =
            injector.groups().iter().map(|m| m.iter().map(|&p| p as u32).collect()).collect();
        let mut sphere_of = vec![0usize; spheres.iter().map(Vec::len).sum()];
        for (v, members) in injector.groups().iter().enumerate() {
            for &p in members {
                if let Some(slot) = sphere_of.get_mut(p) {
                    *slot = v;
                }
            }
        }

        // The sinks every segment's world records into. The driver writes
        // its own rank-less events and counters to them directly and keeps
        // a profile shard for its segment / heal spans (host clock only —
        // no virtual time).
        let sinks = Sinks {
            trace: cfg.tracing.then(|| Arc::new(Collector::new())),
            metrics: cfg.metrics.then(|| Arc::new(MetricsRegistry::new())),
            profiler: cfg.profiling.then(|| Arc::new(Profiler::new())),
        };
        let driver = sinks.driver();
        for (v, members) in injector.groups().iter().enumerate() {
            for (replica, &p) in members.iter().enumerate() {
                sinks.event(
                    0.0,
                    Some(p as u32),
                    EventKind::Topology { sphere: v as u32, replica: replica as u32 },
                );
            }
        }

        let mut resume_time = 0.0f64;
        let mut attempts = 0u64;
        let mut failures = 0u64;
        let mut masked_failures = 0u64;
        let mut degraded_sphere_seconds = 0.0f64;
        let mut stagnant = 0u64;
        let mut last_committed: Option<u64> = None;
        let mut stats = redcr_red::stats::StatsSnapshot::default();
        let mut physical_messages = 0u64;
        let mut physical_bytes = 0u64;
        let mut respawns_total = 0u64;
        let mut heal_latency_total = 0.0f64;
        let mut recovered_total = 0.0f64;

        loop {
            if attempts >= cfg.max_attempts {
                return Err(CoreError::AttemptsExhausted { attempts });
            }
            attempts += 1;
            let plan = injector.plan_attempt(resume_time);
            let first_attempt = attempts == 1;
            sinks.event(plan.start_time, None, EventKind::AttemptStart { attempt: plan.attempt });
            for (p, &d) in plan.schedule.death_times.iter().enumerate() {
                if d.is_finite() {
                    sinks.event(
                        plan.start_time + d,
                        Some(p as u32),
                        EventKind::Injected { rel: d },
                    );
                }
            }

            // The attempt's *mutable* timeline: per-process absolute deaths
            // (updated by respawns), the death log in trace-emission order
            // (relative for the shared heal accounting, absolute for the
            // failure log), and the heal commits so far.
            let mut deaths_abs = plan.absolute_death_times();
            let mut deaths_rel: Vec<(u32, f64)> = Vec::new();
            let mut deaths_log: Vec<(u32, f64)> = Vec::new();
            for (p, &d) in plan.schedule.death_times.iter().enumerate() {
                if d.is_finite() {
                    deaths_rel.push((p as u32, d));
                    deaths_log.push((p as u32, plan.start_time + d));
                }
            }
            let mut heal_commits: Vec<(u32, f64)> = Vec::new();
            // Summed per attempt, folded into the run total once the
            // attempt ends — the same float-addition order the trace
            // analyzer uses, so the two stay bit-identical.
            let mut attempt_heal_latency = 0.0f64;
            let mut job_fail_abs = plan.job_failure_time;
            let mut killer = plan.killer_sphere;
            let mut seed: Option<Arc<HealSeed>> = None;
            let mut seg_start = resume_time;

            let coordinator = &coordinator;
            let storage = &self.storage;
            let interval = cfg.checkpoint_interval;
            let restart_cost = cfg.restart_cost;
            let app_ref = app;

            // One attempt is a sequence of world segments: the first starts
            // from stable storage (or scratch); each heal cycle quiesces
            // its segment, respawns the suspects, and relaunches the next
            // segment from transferred live state.
            let (report, completed) = loop {
                let mut builder = ReplicatedWorld::builder(cfg.n_virtual, cfg.degree)?
                    .voting_mode(cfg.voting)
                    .cost_model(cfg.comm_cost)
                    .death_times(deaths_abs.clone())
                    .start_time(seg_start)
                    .obs(sinks.clone());
                if let Some(w) = cfg.workers {
                    builder = builder.workers(w);
                }
                let heal_ctx = (cfg.heal_policy != HealPolicy::Never).then(|| HealCtx {
                    policy: cfg.heal_policy,
                    params,
                    attempt_start: plan.start_time,
                    deaths: deaths_abs.clone(),
                });
                let seed_ref = seed.clone();
                let seg_span = driver.span(ProfSpanKey::ExecutorSegment);
                let mut report = builder.run(move |comm| {
                    let (mut state, mut next_seq, mut next_ckpt, mut checkpoints, counting) =
                        match &seed_ref {
                            Some(seed) => {
                                // Heal relaunch: every rank — respawned or
                                // survivor — resumes from its sphere's
                                // transferred image. The transfer itself is
                                // charged on the executor side through the
                                // segment's start time, not here.
                                let v = comm.rank().index();
                                let bytes = seed.images.get(v).ok_or_else(|| MpiError::App {
                                    what: format!("no heal image for virtual rank {v}"),
                                })?;
                                let image = ProcessImage::from_stored_bytes(bytes)
                                    .map_err(MpiError::from)?;
                                let state: A::State = image.restore().map_err(MpiError::from)?;
                                let counting =
                                    CountingComm::with_restored_channel(comm, image.channel_state);
                                (state, seed.next_seq, seed.next_ckpt, seed.checkpoints, counting)
                            }
                            None => {
                                let n_ranks = comm.size() as u32;
                                let latest = restart::latest_complete(storage.as_ref(), n_ranks)
                                    .map_err(MpiError::from)?;
                                match latest {
                                    Some(seq) => {
                                        // Restore: charges the read cost R to
                                        // virtual time and primes the channel
                                        // state.
                                        let restored: redcr_ckpt::coordinator::Restored<A::State> =
                                            coordinator
                                                .restore(comm, seq)
                                                .map_err(MpiError::from)?;
                                        let counting = CountingComm::with_restored_channel(
                                            comm,
                                            restored.channel,
                                        );
                                        let next_ckpt = comm.now() + interval;
                                        (restored.state, seq + 1, next_ckpt, 0, counting)
                                    }
                                    None => {
                                        if !first_attempt {
                                            // Restarting from scratch still
                                            // pays the restart overhead
                                            // (process re-launch).
                                            comm.compute(restart_cost)?;
                                        }
                                        let counting = CountingComm::new(comm);
                                        let state = app_ref.init(&counting)?;
                                        let next_ckpt = comm.now() + interval;
                                        (state, 0, next_ckpt, 0, counting)
                                    }
                                }
                            }
                        };

                    loop {
                        app_ref.step(&counting, &mut state)?;
                        if app_ref.is_done(&state) {
                            return Ok(SegmentOutcome::Done { state, checkpoints });
                        }
                        // Collective clock agreement so that every rank and
                        // replica takes the checkpoint decision together.
                        let now_max = counting.allreduce_f64(&[counting.now()], ReduceOp::Max)?[0];
                        if let Some(ctx) = &heal_ctx {
                            let due = ctx.suspects_at(now_max)
                                && (ctx.policy != HealPolicy::AtCheckpoint || now_max >= next_ckpt);
                            if due {
                                // Every rank reaches this decision from the
                                // same agreed boundary, so the quiesce is
                                // collectively consistent.
                                let channel = bookmark::quiesce(&counting)?;
                                return Ok(SegmentOutcome::Heal {
                                    state,
                                    channel,
                                    boundary: now_max,
                                    next_seq,
                                    next_ckpt,
                                    checkpoints,
                                });
                            }
                        }
                        if now_max >= next_ckpt {
                            coordinator
                                .checkpoint(&counting, next_seq, &state)
                                .map_err(MpiError::from)?;
                            next_seq += 1;
                            checkpoints += 1;
                            next_ckpt = now_max + interval;
                        }
                    }
                })?;
                drop(seg_span);

                stats = stats.add(&report.stats);
                physical_messages += report.physical_messages;
                physical_bytes += report.physical_bytes;

                // Any non-fail-stop error is a genuine bug, never a planned
                // death (Dead/DeadPeer/SphereDead/Aborted are all expected
                // outcomes of live injection).
                for r in &report.results {
                    if let Err(e) = r {
                        if !e.is_fail_stop() {
                            return Err(CoreError::Runtime(e.clone()));
                        }
                    }
                }

                let healing = !report.aborted
                    && report.results.iter().any(|r| matches!(r, Ok(SegmentOutcome::Heal { .. })));
                if !healing {
                    // Completed iff no job abort was raised and every
                    // virtual rank kept at least one live replica running
                    // to `Done`. A rank's *primary* may well be `Err(Dead)`
                    // — a surviving shadow carries the state then.
                    let vmap = report.vmap().clone();
                    let completed = !report.aborted
                        && (0..cfg.n_virtual as u32).all(|v| {
                            vmap.replicas_of(redcr_mpi::Rank::new(v)).iter().any(|p| {
                                matches!(report.results[p.index()], Ok(SegmentOutcome::Done { .. }))
                            })
                        });
                    break (report, completed);
                }

                // === Heal cycle ===
                // Spans the suspect scan, donor vote, image transfer and
                // relaunch prep; dropped when this loop iteration ends.
                let _heal_span = driver.span(ProfSpanKey::ExecutorHeal);
                // The boundary the detector fired at: the agreed clock
                // maximum, advanced past the quiesce drain.
                let mut boundary = report.max_virtual_time;
                for r in &report.results {
                    if let Ok(SegmentOutcome::Heal { boundary: b, .. }) = r {
                        boundary = boundary.max(*b);
                    }
                }
                // Replicas whose suspicion deadline has elapsed at the
                // boundary; everyone else is a potential donor.
                let suspects: Vec<usize> = (0..deaths_abs.len())
                    .filter(|&p| params.suspicion_time(plan.start_time, deaths_abs[p]) <= boundary)
                    .collect();

                // Capture one canonical image per virtual rank from its
                // lowest-ranked replica that reached the quiesce (the
                // donor). Only images of healing spheres count as transfer
                // bytes — survivors keep their state in place.
                let vmap = report.vmap().clone();
                let mut images: Vec<Vec<u8>> = Vec::with_capacity(cfg.n_virtual as usize);
                let mut transfer_bytes = 0u64;
                let mut cursor: Option<(u64, f64, u64)> = None;
                for v in 0..cfg.n_virtual as u32 {
                    let mut donor_bytes = None;
                    for p in vmap.replicas_of(redcr_mpi::Rank::new(v)) {
                        let Some(outcome) = report.results[p.index()].take_ok() else { continue };
                        let SegmentOutcome::Heal {
                            state,
                            channel,
                            next_seq,
                            next_ckpt,
                            checkpoints,
                            ..
                        } = outcome
                        else {
                            continue;
                        };
                        let image =
                            ProcessImage::capture(v, boundary, &state)?.with_channel_state(channel);
                        donor_bytes = Some(image.to_stored_bytes()?);
                        cursor = Some((next_seq, next_ckpt, checkpoints));
                        break;
                    }
                    let Some(bytes) = donor_bytes else {
                        return Err(CoreError::Runtime(MpiError::App {
                            what: format!("no live donor replica for virtual rank {v}"),
                        }));
                    };
                    if suspects.iter().any(|&p| sphere_of.get(p) == Some(&(v as usize))) {
                        transfer_bytes += bytes.len() as u64;
                    }
                    images.push(bytes);
                }
                let Some((next_seq, next_ckpt, checkpoints)) = cursor else {
                    return Err(CoreError::Runtime(MpiError::App {
                        what: "heal cycle found no checkpoint cursor".into(),
                    }));
                };

                // The respawn commits after the modeled repair work: fresh
                // process allocation plus shipping the donor images.
                let commit = boundary
                    + cfg.respawn_cost
                    + cfg.transfer_cost_per_byte * transfer_bytes as f64;

                // Detection happened and the respawn began regardless of
                // whether the transfer survives; record both per suspect.
                for &p in &suspects {
                    let sphere = sphere_of.get(p).copied().unwrap_or(0) as u32;
                    let suspected_at = params.suspicion_time(plan.start_time, deaths_abs[p]);
                    sinks.event(suspected_at, Some(p as u32), EventKind::HeartbeatMiss { sphere });
                    sinks.event(boundary, Some(p as u32), EventKind::RespawnBegin { sphere });
                    sinks.inc(CounterKey::Suspicions, suspected_at);
                }

                // Kill-during-transfer race: a sphere survives the heal iff
                // some replica that is not itself being respawned outlives
                // the commit. Otherwise the job dies mid-heal, at the
                // moment its last donor went.
                let mut kill_time = f64::INFINITY;
                let mut kill_sphere = usize::MAX;
                for (v, members) in injector.groups().iter().enumerate() {
                    let last_donor = members
                        .iter()
                        .filter(|p| !suspects.contains(p))
                        .map(|&p| deaths_abs.get(p).copied().unwrap_or(f64::INFINITY))
                        .fold(f64::NEG_INFINITY, f64::max);
                    if last_donor.is_finite() && last_donor <= commit && last_donor < kill_time {
                        kill_time = last_donor;
                        kill_sphere = v;
                    }
                }
                if kill_sphere != usize::MAX {
                    // The respawn never commits; the attempt fails like any
                    // sphere death, at the new (earlier) failure time.
                    job_fail_abs = kill_time;
                    killer = kill_sphere;
                    rebuild_failure_log(
                        &mut injector,
                        plan.attempt,
                        &deaths_log,
                        job_fail_abs,
                        killer,
                    );
                    break (report, false);
                }

                // Commit: respawn every suspect, drawing each incarnation's
                // lifetime from the injector's deterministic stream, and
                // replay the virtual map back to full voting strength.
                for &p in &suspects {
                    let sphere = sphere_of.get(p).copied().unwrap_or(0) as u32;
                    let died_at = deaths_abs[p];
                    let rebirth = commit + injector.resample_death();
                    deaths_abs[p] = rebirth;
                    let rel_rebirth = rebirth - plan.start_time;
                    if rel_rebirth.is_finite() {
                        deaths_rel.push((p as u32, rel_rebirth));
                        deaths_log.push((p as u32, rebirth));
                    }
                    let latency = commit - died_at;
                    let rel_commit = commit - plan.start_time;
                    if rel_rebirth.is_finite() {
                        sinks.event(
                            rebirth,
                            Some(p as u32),
                            EventKind::Injected { rel: rel_rebirth },
                        );
                    }
                    sinks.event(
                        commit,
                        Some(p as u32),
                        EventKind::RespawnCommit { sphere, rel: rel_commit, latency },
                    );
                    let copies = spheres.get(sphere as usize).map(Vec::len).unwrap_or(0) as u32;
                    sinks.event(commit, Some(p as u32), EventKind::RejoinVote { sphere, copies });
                    sinks.inc(CounterKey::Respawns, commit);
                    sinks.observe(HistKey::HealLatency, latency);
                    respawns_total += 1;
                    attempt_heal_latency += latency;
                    // One commit per healed sphere per cycle: a cycle that
                    // respawns two replicas of one sphere commits it once.
                    let key = (sphere, rel_commit);
                    if !heal_commits.contains(&key) {
                        heal_commits.push(key);
                    }
                }

                // The timeline changed: recompute when (and whether) the
                // job now fails, and rewrite the failure log to match.
                let (when, who) = job_failure_abs(injector.groups(), &deaths_abs);
                job_fail_abs = when;
                killer = who;
                rebuild_failure_log(&mut injector, plan.attempt, &deaths_log, job_fail_abs, killer);

                seed = Some(Arc::new(HealSeed { images, next_seq, next_ckpt, checkpoints }));
                seg_start = commit;
            };

            // Where the attempt ended on the virtual clock. On a failure
            // the survivors can be discovered slightly past the sampled
            // sphere-death time (the death materializes at the next
            // operation boundary), so take the max.
            heal_latency_total += attempt_heal_latency;
            let attempt_end = if completed || !job_fail_abs.is_finite() {
                report.max_virtual_time
            } else {
                report.max_virtual_time.max(job_fail_abs)
            };
            let end_rel = (attempt_end - plan.start_time).max(0.0);
            let rel_failure = job_fail_abs - plan.start_time;
            let killer_seen = (!completed && rel_failure.is_finite()).then_some(killer as u32);
            // Carries the exact relative values the accounting below
            // compares, so the trace analyzer reproduces it bit-for-bit.
            sinks.event(
                attempt_end,
                None,
                EventKind::AttemptEnd {
                    attempt: plan.attempt,
                    completed,
                    rel_end: end_rel,
                    rel_failure,
                    killer: killer_seen,
                },
            );

            // Degraded and recovered running time, and the deaths that
            // redundancy masked: the accounting shared with the trace
            // analyzer, which replays it from the events above.
            let spans = heal::degraded_spans(&spheres, &deaths_rel, &heal_commits, end_rel);
            for &span in &spans {
                sinks.observe(HistKey::DegradedInterval, span);
            }
            degraded_sphere_seconds += spans.iter().fold(0.0f64, |acc, &s| acc + s);
            recovered_total +=
                heal::recovered_seconds(&spheres, &deaths_rel, &heal_commits, end_rel);
            let masked =
                heal::masked(&spheres, &deaths_rel, completed, end_rel, rel_failure, killer_seen);
            masked_failures += masked;

            sinks.inc(CounterKey::Attempts, attempt_end);
            sinks.add(CounterKey::MaskedFailures, masked, attempt_end);

            if !completed {
                failures += 1;
                sinks.inc(CounterKey::Restarts, attempt_end);
                resume_time = attempt_end;

                // Livelock guard: a restart that found no new checkpoint
                // replays exactly the ground already lost.
                let latest = restart::latest_complete(self.storage.as_ref(), cfg.n_virtual as u32)?;
                if latest == last_committed {
                    stagnant += 1;
                    if stagnant >= cfg.no_progress_limit {
                        return Err(CoreError::NoProgress { attempts });
                    }
                } else {
                    last_committed = latest;
                    stagnant = 0;
                }
                continue;
            }

            // Completed: the planned *job* failure never materialized, so
            // prune its never-observed events from the log.
            injector.trace_mut().truncate_attempt(plan.attempt, report.max_virtual_time);
            let total_time = report.max_virtual_time;
            let n_physical = report.n_physical;
            let vmap = report.vmap().clone();
            let mut results = report.results;
            let mut final_states = Vec::with_capacity(cfg.n_virtual as usize);
            // The checkpoint decision is a collective (allreduce) and the
            // commit is post-barrier, so every live replica of every
            // virtual rank must report the same committed count. Divergence
            // is corruption and must surface, not vanish under a `max`.
            let mut checkpoints_agreed: Option<u64> = None;
            for v in 0..cfg.n_virtual as u32 {
                let mut state = None;
                let mut counts: Vec<u64> = Vec::new();
                for p in vmap.replicas_of(redcr_mpi::Rank::new(v)) {
                    if let Some(SegmentOutcome::Done { state: s, checkpoints: ckpts }) =
                        results[p.index()].take_ok()
                    {
                        if state.is_none() {
                            state = Some(s);
                        }
                        counts.push(ckpts);
                    }
                }
                let Some(state) = state else {
                    return Err(CoreError::Runtime(MpiError::App {
                        what: format!("no live replica of rank {v} produced a result"),
                    }));
                };
                if counts.windows(2).any(|w| w[0] != w[1]) {
                    return Err(CoreError::CheckpointDivergence { virtual_rank: v, counts });
                }
                match checkpoints_agreed {
                    None => checkpoints_agreed = Some(counts[0]),
                    Some(agreed) if agreed != counts[0] => {
                        return Err(CoreError::CheckpointDivergence {
                            virtual_rank: v,
                            counts: vec![agreed, counts[0]],
                        });
                    }
                    Some(_) => {}
                }
                final_states.push(state);
            }
            let checkpoints_committed = checkpoints_agreed.unwrap_or(0);

            // The driver's spans join the profile; it buffers no events.
            sinks.drain(&driver);
            return Ok(ExecutionReport {
                total_virtual_time: total_time,
                attempts,
                failures,
                masked_failures,
                degraded_sphere_seconds,
                checkpoints_committed,
                respawns: respawns_total,
                heal_latency_seconds: heal_latency_total,
                recovered_voting_seconds: recovered_total,
                replication: stats,
                physical_messages,
                physical_bytes,
                n_physical,
                node_seconds: n_physical as f64 * total_time,
                failure_trace: injector.trace().clone(),
                trace: sinks.trace.as_ref().map(|c| c.take()),
                metrics: sinks.metrics.as_ref().map(|r| r.report(cfg.scrape_interval)),
                profile: sinks.profiler.as_ref().map(|p| p.report()),
                final_states,
            });
        }
    }
}

/// Small helper: move the Ok value out of a `Result` slot.
trait TakeOk<T> {
    fn take_ok(&mut self) -> Option<T>;
}

impl<T> TakeOk<T> for redcr_mpi::Result<T> {
    fn take_ok(&mut self) -> Option<T> {
        std::mem::replace(self, Err(MpiError::App { what: "result already taken".into() })).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::CgApp;
    use redcr_apps::cg::CgConfig;

    fn cg_app(n: usize, iterations: u64, pad: f64) -> CgApp {
        CgApp::new(CgConfig::small(n), iterations).with_step_pad(pad)
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
