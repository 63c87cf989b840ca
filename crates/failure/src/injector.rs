//! The attempt-level failure injector driving restart loops.

use std::sync::Arc;

use crate::poisson::ExpSampler;
use crate::schedule::{FailureSchedule, ReplicaGroups};
use crate::trace::{FailureEvent, FailureTrace};

/// One scheduled fail-stop on an attempt's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Death {
    /// The physical process that dies.
    pub process: usize,
    /// Seconds after the attempt start: the value the flight recorder's
    /// `Injected` events and the masked / degraded accounting carry.
    pub rel: f64,
    /// Absolute virtual time: what the runtime is launched with and what
    /// the failure log records.
    pub abs: f64,
}

/// One attempt's failure timeline. [`FailureInjector::plan_attempt`]
/// samples it; a self-healing run then changes it in place, one
/// [`respawn`](Self::respawn) per replaced replica.
///
/// The plan is the single owner of three things. **Every death**, once,
/// with its relative and its absolute time, in emission order (the sampled
/// schedule in rank order, then each heal cycle's fresh incarnations in
/// respawn order) — [`deaths`](Self::deaths) — next to the per-process
/// death times a world is launched with —
/// [`absolute_death_times`](Self::absolute_death_times). **When the job
/// fails**, by [`ReplicaGroups::first_sphere_death`] over those launch
/// times; the failure's relative time is the killing death's own stored
/// value ([`rel_failure`](Self::rel_failure)), never a subtraction of
/// absolute times. **The attempt's failure log**, rewritten from the death
/// list whenever the failure moves ([`settle`](Self::settle),
/// [`kill_in_transfer`](Self::kill_in_transfer)).
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptPlan {
    /// Attempt index (0-based).
    pub attempt: u64,
    /// Virtual time (seconds, absolute) at which the attempt starts.
    pub start_time: f64,
    /// Absolute virtual time at which the job fails (first sphere fully
    /// dead) on the timeline as it stands; `INFINITY` if it never does. If
    /// the application finishes earlier, the failure never materializes.
    pub job_failure_time: f64,
    /// The sphere (virtual process) whose death kills the job
    /// (`usize::MAX` if none does).
    pub killer_sphere: usize,
    /// The raw sampled schedule (relative to `start_time`): the first
    /// incarnation of every process.
    pub schedule: FailureSchedule,
    groups: Arc<ReplicaGroups>,
    deaths: Vec<Death>,
    launch: Vec<f64>,
    rel_failure: f64,
}

impl AttemptPlan {
    fn new(
        attempt: u64,
        start_time: f64,
        schedule: FailureSchedule,
        groups: Arc<ReplicaGroups>,
    ) -> Self {
        let mut plan = AttemptPlan {
            attempt,
            start_time,
            job_failure_time: f64::INFINITY,
            killer_sphere: usize::MAX,
            launch: vec![f64::INFINITY; schedule.death_times.len()],
            deaths: Vec::with_capacity(schedule.death_times.len()),
            rel_failure: f64::INFINITY,
            schedule,
            groups,
        };
        for p in 0..plan.launch.len() {
            let rel = plan.schedule.death_times[p];
            plan.record(p, rel, start_time + rel);
        }
        plan
    }

    /// The one place a death enters the timeline. An incarnation that
    /// never dies only clears its process's launch time.
    fn record(&mut self, process: usize, rel: f64, abs: f64) -> Option<Death> {
        self.launch[process] = abs;
        rel.is_finite().then(|| {
            let death = Death { process, rel, abs };
            self.deaths.push(death);
            death
        })
    }

    /// Every scheduled fail-stop of the attempt so far, in emission order.
    pub fn deaths(&self) -> &[Death] {
        &self.deaths
    }

    /// Per-process death times as **absolute** virtual seconds, ready to
    /// hand to the runtime's live fail-stop injection (`death_times`
    /// builders): the current incarnation of each process. Processes that
    /// never die stay at `f64::INFINITY`.
    pub fn absolute_death_times(&self) -> &[f64] {
        &self.launch
    }

    /// The job failure relative to the attempt start: the killing death's
    /// own [`Death::rel`], bit for bit (`INFINITY` if the job never fails).
    pub fn rel_failure(&self) -> f64 {
        self.rel_failure
    }

    /// Replaces `process` at absolute time `commit` with a fresh
    /// incarnation that lives `lifetime` more seconds, and returns its
    /// death (`None` if it never dies). Call [`settle`](Self::settle) once
    /// the heal cycle's respawns are in.
    pub fn respawn(&mut self, process: usize, commit: f64, lifetime: f64) -> Option<Death> {
        let abs = commit + lifetime;
        self.record(process, abs - self.start_time, abs)
    }

    /// Re-decides when (and whether) the job fails on the timeline as it
    /// stands and rewrites the attempt's events in `log` to match.
    pub fn settle(&mut self, log: &mut FailureTrace) {
        self.fail_at(self.first_sphere_death(&[]), log);
    }

    /// The kill-during-transfer race of a heal cycle that would commit at
    /// `commit`: a sphere survives the heal iff some member that is not
    /// itself being respawned outlives the commit. If one does not, the
    /// job dies with that sphere's last donor — the plan and `log` are
    /// moved to that earlier failure — and this returns `true`.
    pub fn kill_in_transfer(
        &mut self,
        suspects: &[usize],
        commit: f64,
        log: &mut FailureTrace,
    ) -> bool {
        let failure = self.first_sphere_death(suspects).filter(|&(time, ..)| time <= commit);
        if failure.is_some() {
            self.fail_at(failure, log);
        }
        failure.is_some()
    }

    fn first_sphere_death(&self, skip: &[usize]) -> Option<(f64, usize, usize)> {
        self.groups.first_sphere_death(|p| (!skip.contains(&p)).then(|| self.launch[p]))
    }

    /// Moves the job failure and rewrites the attempt's failure log: the
    /// deaths that "occur" are those up to the failure, and the one that
    /// completes the killer sphere is marked. An attempt that never fails
    /// logs nothing (with an infinite MTBF no failure ever materializes).
    fn fail_at(&mut self, failure: Option<(f64, usize, usize)>, log: &mut FailureTrace) {
        let (time, sphere, process) = failure.unwrap_or((f64::INFINITY, usize::MAX, usize::MAX));
        self.job_failure_time = time;
        self.killer_sphere = sphere;
        self.rel_failure = f64::INFINITY;
        log.truncate_attempt(self.attempt, f64::NEG_INFINITY);
        for d in self.deaths.iter().filter(|d| failure.is_some() && d.abs <= time) {
            if d.process == process {
                // The killing death is the last incarnation of the killer
                // sphere's last member; earlier ones died before it.
                self.rel_failure = d.rel;
            }
            log.record(FailureEvent {
                attempt: self.attempt,
                time: d.abs,
                process: d.process,
                killed_job: d.abs == time && self.groups.members(sphere).contains(&d.process),
            });
        }
    }
}

/// Samples fresh failure schedules per attempt and records the resulting
/// event trace, mirroring the paper's injector semantics (spares replace
/// failed nodes at restart, so every attempt starts fully alive).
#[derive(Debug, Clone)]
pub struct FailureInjector {
    groups: Arc<ReplicaGroups>,
    sampler: ExpSampler,
    attempts: u64,
    trace: FailureTrace,
}

impl FailureInjector {
    /// Creates an injector for the given sphere structure with per-process
    /// MTBF `mtbf_seconds` and a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `mtbf_seconds` is not positive and finite.
    pub fn new(groups: ReplicaGroups, mtbf_seconds: f64, seed: u64) -> Self {
        FailureInjector {
            groups: Arc::new(groups),
            sampler: ExpSampler::new(mtbf_seconds, seed),
            attempts: 0,
            trace: FailureTrace::new(),
        }
    }

    /// The sphere structure.
    pub fn groups(&self) -> &ReplicaGroups {
        &self.groups
    }

    /// The accumulated failure-event trace.
    pub fn trace(&self) -> &FailureTrace {
        &self.trace
    }

    /// Mutable access to the trace: the log an [`AttemptPlan`] rewrites
    /// when its failure moves, and that is pruned when an attempt
    /// completes before its planned failure.
    pub fn trace_mut(&mut self) -> &mut FailureTrace {
        &mut self.trace
    }

    /// Draws one fresh exponential lifetime from the injector's stream:
    /// the time-to-failure of a respawned replica, **relative to its rejoin
    /// commit** (the `lifetime` of [`AttemptPlan::respawn`]). The
    /// self-healing executor uses this so respawned incarnations fail at
    /// the same per-process MTBF as the original processes, from the same
    /// deterministic seed sequence.
    pub fn resample_death(&mut self) -> f64 {
        self.sampler.sample()
    }

    /// Plans the next attempt starting at absolute virtual time
    /// `start_time`: samples fresh per-process failures, decides when the
    /// job would die and logs the deaths up to then.
    pub fn plan_attempt(&mut self, start_time: f64) -> AttemptPlan {
        let schedule = FailureSchedule::sample(self.groups.n_physical(), &mut self.sampler);
        let mut plan =
            AttemptPlan::new(self.attempts, start_time, schedule, Arc::clone(&self.groups));
        self.attempts += 1;
        plan.settle(&mut self.trace);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_death_times_offset_by_start() {
        let mut inj = FailureInjector::new(ReplicaGroups::uniform(3, 2), 500.0, 11);
        let plan = inj.plan_attempt(100.0);
        let abs = plan.absolute_death_times();
        assert_eq!(abs.len(), 6);
        for (a, d) in abs.iter().zip(&plan.schedule.death_times) {
            if d.is_finite() {
                assert_eq!(*a, 100.0 + d);
            } else {
                assert_eq!(*a, f64::INFINITY);
            }
        }
    }

    #[test]
    fn plans_are_sequential_and_fresh() {
        let mut inj = FailureInjector::new(ReplicaGroups::uniform(4, 2), 1000.0, 5);
        let a = inj.plan_attempt(0.0);
        let b = inj.plan_attempt(a.job_failure_time + 60.0);
        assert_eq!(a.attempt, 0);
        assert_eq!(b.attempt, 1);
        assert!(b.start_time > a.job_failure_time);
        assert_ne!(a.schedule, b.schedule, "fresh samples per attempt");
    }

    #[test]
    fn failure_times_absolute() {
        let mut inj = FailureInjector::new(ReplicaGroups::uniform(2, 1), 10.0, 9);
        let plan = inj.plan_attempt(500.0);
        assert!(plan.job_failure_time > 500.0);
    }

    #[test]
    fn trace_records_killing_event() {
        let mut inj = FailureInjector::new(ReplicaGroups::uniform(3, 1), 100.0, 11);
        let plan = inj.plan_attempt(0.0);
        let killers: Vec<&FailureEvent> =
            inj.trace().events().iter().filter(|e| e.killed_job).collect();
        assert_eq!(killers.len(), 1);
        assert_eq!(killers[0].time, plan.job_failure_time);
    }

    #[test]
    fn deterministic_across_reconstruction() {
        let mk = || FailureInjector::new(ReplicaGroups::uniform(8, 2), 250.0, 77);
        let mut a = mk();
        let mut b = mk();
        for i in 0..5 {
            let pa = a.plan_attempt(i as f64 * 100.0);
            let pb = b.plan_attempt(i as f64 * 100.0);
            assert_eq!(pa, pb);
        }
    }

    /// A plan over an explicit schedule, settled into `log`.
    fn plan_of(
        groups: &ReplicaGroups,
        start: f64,
        rel_deaths: &[f64],
        log: &mut FailureTrace,
    ) -> AttemptPlan {
        let schedule = FailureSchedule { death_times: rel_deaths.to_vec() };
        let mut plan = AttemptPlan::new(0, start, schedule, Arc::new(groups.clone()));
        plan.settle(log);
        plan
    }

    #[test]
    fn donor_dying_exactly_at_the_commit_is_killed_in_transfer() {
        // Spheres {0,2} {1,3}. Rank 0 is the suspect; its donor, rank 2,
        // dies at absolute 17.5.
        let groups = ReplicaGroups::uniform(2, 2);
        let mut log = FailureTrace::new();
        let mut plan = plan_of(&groups, 10.0, &[2.0, 30.0, 7.5, 40.0], &mut log);
        assert_eq!((plan.job_failure_time, plan.killer_sphere), (17.5, 0));

        // A commit strictly before the donor's death is safe and leaves
        // the timeline alone.
        let before = plan.clone();
        assert!(!plan.kill_in_transfer(&[0], 17.25, &mut log));
        assert_eq!(plan, before);
        // A commit exactly at it is not (`<=`).
        assert!(plan.kill_in_transfer(&[0], 17.5, &mut log));
        assert_eq!((plan.job_failure_time, plan.killer_sphere), (17.5, 0));
        assert_eq!(plan.rel_failure().to_bits(), 7.5f64.to_bits());
        let killers: Vec<usize> =
            log.events().iter().filter(|e| e.killed_job).map(|e| e.process).collect();
        assert_eq!(killers, vec![2]);

        // With every member of sphere 0 a suspect there is no donor left
        // to lose; sphere 1's donors die long after the commit.
        assert!(!plan.kill_in_transfer(&[0, 2], 18.0, &mut log));
    }

    #[test]
    fn immortal_incarnation_is_recorded_nowhere() {
        let groups = ReplicaGroups::uniform(2, 2);
        let mut log = FailureTrace::new();
        let mut plan = plan_of(&groups, 0.0, &[2.0, 30.0, 7.5, 40.0], &mut log);
        let deaths_before = plan.deaths().to_vec();
        assert_eq!(plan.respawn(0, 3.0, f64::INFINITY), None);
        plan.settle(&mut log);
        assert_eq!(plan.deaths(), deaths_before.as_slice(), "no death recorded");
        assert_eq!(plan.absolute_death_times()[0], f64::INFINITY);
        // Sphere 0 can no longer die, so sphere 1 (at 40) kills the job,
        // and the log holds exactly the four sampled deaths.
        assert_eq!((plan.job_failure_time, plan.killer_sphere), (40.0, 1));
        assert_eq!(log.len(), 4);
        assert!(log.events().iter().all(|e| e.time.is_finite()));

        // A mortal one is recorded once, relative and absolute.
        let reborn = plan.respawn(2, 8.0, 1.5).expect("finite lifetime");
        assert_eq!(reborn, Death { process: 2, rel: 9.5, abs: 9.5 });
        assert_eq!(plan.deaths().last(), Some(&reborn));
        assert_eq!(plan.absolute_death_times()[2], 9.5);
    }

    /// The executor's old closed form, kept as the reference: the min over
    /// spheres of the max member death, over absolute launch times.
    fn job_failure_abs(groups: &ReplicaGroups, deaths_abs: &[f64]) -> (f64, usize) {
        let mut when = f64::INFINITY;
        let mut who = usize::MAX;
        for (v, members) in groups.iter().enumerate() {
            let dead_at = members.iter().map(|&p| deaths_abs[p]).fold(f64::NEG_INFINITY, f64::max);
            if dead_at < when {
                when = dead_at;
                who = v;
            }
        }
        (when, who)
    }

    /// A time in [0, 10): half of them on a coarse grid so ties are common.
    fn draw(next: &mut impl FnMut() -> u64) -> f64 {
        if next().is_multiple_of(2) {
            (next() % 8) as f64 * 1.25
        } else {
            (next() >> 11) as f64 / (1u64 << 53) as f64 * 10.0
        }
    }

    #[test]
    fn timeline_job_failure_is_the_old_closed_form_under_random_respawns() {
        // SplitMix64: a fixed stream, no dependency.
        let mut state = 2012u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let (mut respawned, mut immortal, mut moved) = (0, 0, 0);
        for _ in 0..4_000 {
            let counts: Vec<usize> =
                (0..1 + next() % 5).map(|_| 1 + (next() % 3) as usize).collect();
            let groups = ReplicaGroups::from_counts(&counts);
            let rel: Vec<f64> = (0..groups.n_physical()).map(|_| draw(&mut next)).collect();
            let start = if next().is_multiple_of(3) { 0.0 } else { draw(&mut next) * 7.0 };
            let mut log = FailureTrace::new();
            let mut plan = plan_of(&groups, start, &rel, &mut log);
            let mut reference: Vec<f64> = rel.iter().map(|d| start + d).collect();
            let before = plan.job_failure_time;
            for _ in 0..next() % 4 {
                let p = (next() % groups.n_physical() as u64) as usize;
                let commit = reference[p] + draw(&mut next);
                let lifetime =
                    if next().is_multiple_of(5) { f64::INFINITY } else { draw(&mut next) };
                immortal += lifetime.is_infinite() as usize;
                respawned += 1;
                plan.respawn(p, commit, lifetime);
                reference[p] = commit + lifetime;
            }
            plan.settle(&mut log);
            moved += (plan.job_failure_time != before) as usize;

            assert_eq!(plan.absolute_death_times(), reference.as_slice());
            let (when, who) = job_failure_abs(&groups, &reference);
            assert_eq!(plan.job_failure_time.to_bits(), when.to_bits(), "{groups:?} {reference:?}");
            assert_eq!(plan.killer_sphere, who);
            // The relative failure is a stored death of the killer sphere,
            // and the log marks at least the death that completed it.
            if when.is_finite() {
                assert!(plan.deaths().iter().any(|d| groups.members(who).contains(&d.process)
                    && d.abs == when
                    && d.rel.to_bits() == plan.rel_failure().to_bits()));
                assert!(log.job_failures() >= 1);
                assert!(log.events().iter().all(|e| e.time <= when));
            } else {
                assert!(plan.rel_failure().is_infinite() && log.is_empty());
            }
        }
        // The generator really reaches the cases it claims to.
        assert!(respawned > 4_000 && immortal > 500 && moved > 500);
    }

    #[test]
    fn higher_redundancy_survives_longer_on_average() {
        let horizon = |replicas: usize, seed: u64| {
            let mut inj = FailureInjector::new(ReplicaGroups::uniform(8, replicas), 100.0, seed);
            (0..50).map(|i| inj.plan_attempt(i as f64).job_failure_time - i as f64).sum::<f64>()
        };
        let h1: f64 = (0..5).map(|s| horizon(1, s)).sum();
        let h2: f64 = (0..5).map(|s| horizon(2, s)).sum();
        let h3: f64 = (0..5).map(|s| horizon(3, s)).sum();
        assert!(h2 > 2.0 * h1, "h1={h1} h2={h2}");
        assert!(h3 > h2, "h2={h2} h3={h3}");
    }
}
