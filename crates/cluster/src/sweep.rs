//! Seeded Monte-Carlo aggregation over many simulated runs, and the one
//! work queue that spreads indexed jobs over host threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::simulate::SimError;
use crate::stats::JobStats;

/// Runs jobs `0..n` on up to `threads` host threads and returns their
/// results in index order.
///
/// `worker(k, claims)` is called once per worker `k` and runs its jobs
/// through [`Claims::each`]; whatever it does around that call (a profiler
/// shard, say) is per worker. Workers claim indices from one atomic
/// counter, and each result goes into its own index's slot, so the output
/// does not depend on which worker ran which job. With one worker, or at
/// most one job, worker 0 runs inline on the caller; with no job, `worker`
/// is not called.
///
/// # Panics
///
/// Panics if a job panics, or if the workers return with an index
/// unclaimed (a `worker` that does not call [`Claims::each`]).
pub fn work_queue<T, F>(n: usize, threads: usize, worker: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize, Claims<'_, T>) + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let claims = || Claims { next: &next, slots: &slots };
    let workers = threads.min(n);
    if workers > 1 {
        std::thread::scope(|scope| {
            for k in 0..workers {
                let (worker, claims) = (&worker, claims());
                scope.spawn(move || worker(k, claims));
            }
        });
    } else if n > 0 {
        worker(0, claims());
    }
    slots.into_iter().map(|slot| slot.into_inner().expect("every index claimed")).collect()
}

/// A worker's handle on a [`work_queue`]: the indices not yet claimed.
pub struct Claims<'a, T> {
    next: &'a AtomicUsize,
    slots: &'a [OnceLock<T>],
}

impl<T> Claims<'_, T> {
    /// Claims indices until none is left, storing `job(i)` in slot `i`.
    pub fn each(self, mut job: impl FnMut(usize) -> T) {
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            let Some(slot) = self.slots.get(i) else { break };
            if slot.set(job(i)).is_err() {
                unreachable!("index {i} claimed twice");
            }
        }
    }
}

/// Fractional (expected-value) means of the per-run event counts.
///
/// [`JobStats`] stores counts as `u64`, so the element-wise mean in
/// [`Aggregate::mean`] has to round — which reported rare events (true
/// mean < 0.5) as exactly 0 across a whole sweep. These are the unrounded
/// means; use them whenever the magnitude matters. The masked deaths are
/// an `f64` in [`JobStats`] already, so their mean is exact in
/// [`Aggregate::mean`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CountMeans {
    /// Mean failures endured per completed run.
    pub failures: f64,
    /// Mean checkpoints committed per completed run.
    pub checkpoints: f64,
    /// Mean attempts per completed run (1 = failure-free).
    pub attempts: f64,
}

/// Aggregate of a Monte-Carlo batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Number of runs requested.
    pub runs: usize,
    /// Number of runs that completed (non-divergent).
    pub completed: usize,
    /// Mean total time over completed runs.
    pub mean_total_time: f64,
    /// Sample standard deviation of the total time.
    pub std_total_time: f64,
    /// Element-wise mean of the completed runs' stats. The `u64` count
    /// fields are **rounded** to the nearest integer; read
    /// [`Aggregate::mean_counts`] for the exact fractional means.
    pub mean: JobStats,
    /// Unrounded means of the `u64` count fields (failures, checkpoints,
    /// attempts).
    pub mean_counts: CountMeans,
}

impl Aggregate {
    /// Fraction of runs that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.completed as f64 / self.runs as f64
        }
    }

    /// Standard error of the mean total time.
    pub fn sem_total_time(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.std_total_time / (self.completed as f64).sqrt()
        }
    }
}

/// Runs `runs` seeded simulations (`f(seed)` for seeds `0..runs`) on up to
/// `threads` host threads through [`work_queue`] and aggregates the
/// outcomes in seed order, so the result is bit-identical at any thread
/// count. Divergent runs ([`SimError::TooManyAttempts`]) are counted but
/// excluded from the means; any other error aborts the sweep.
///
/// # Errors
///
/// Propagates the non-divergence error of the lowest failing seed.
pub fn monte_carlo<F>(runs: usize, threads: usize, f: F) -> Result<Aggregate, SimError>
where
    F: Fn(u64) -> Result<JobStats, SimError> + Sync,
{
    let outcomes = work_queue(runs, threads, |_, claims| claims.each(|seed| f(seed as u64)));

    let mut completed_stats = Vec::with_capacity(runs);
    for outcome in outcomes {
        match outcome {
            Ok(stats) => completed_stats.push(stats),
            Err(SimError::TooManyAttempts { .. }) => {}
            Err(e) => return Err(e),
        }
    }

    let completed = completed_stats.len();
    let mut mean = JobStats::default();
    let mut mean_counts = CountMeans::default();
    let mut mean_total = 0.0;
    if completed > 0 {
        for s in &completed_stats {
            // Exhaustive destructuring: adding a field to `JobStats`
            // without aggregating it here is a compile error, not a
            // silently-zero mean (masked_failures was once dropped here).
            let JobStats {
                total_time,
                work_time,
                checkpoint_time,
                recompute_time,
                restart_time,
                failures,
                masked_failures,
                checkpoints,
                attempts,
            } = *s;
            mean.total_time += total_time;
            mean.work_time += work_time;
            mean.checkpoint_time += checkpoint_time;
            mean.recompute_time += recompute_time;
            mean.restart_time += restart_time;
            mean.failures += failures;
            mean.masked_failures += masked_failures;
            mean.checkpoints += checkpoints;
            mean.attempts += attempts;
        }
        let n = completed as f64;
        mean.total_time /= n;
        mean.work_time /= n;
        mean.checkpoint_time /= n;
        mean.recompute_time /= n;
        mean.restart_time /= n;
        mean.masked_failures /= n;
        // The fractional means are the real aggregate; the `u64` fields of
        // `mean` can only hold a rounded copy (a rare event with true mean
        // 0.2 used to vanish to 0 here — keep both, rounded for the
        // integer-typed struct, exact in `mean_counts`).
        mean_counts = CountMeans {
            failures: mean.failures as f64 / n,
            checkpoints: mean.checkpoints as f64 / n,
            attempts: mean.attempts as f64 / n,
        };
        mean.failures = mean_counts.failures.round() as u64;
        mean.checkpoints = mean_counts.checkpoints.round() as u64;
        mean.attempts = mean_counts.attempts.round() as u64;
        mean_total = mean.total_time;
    }
    let variance = if completed > 1 {
        completed_stats.iter().map(|s| (s.total_time - mean_total).powi(2)).sum::<f64>()
            / (completed - 1) as f64
    } else {
        0.0
    };

    Ok(Aggregate {
        runs,
        completed,
        mean_total_time: mean_total,
        std_total_time: variance.sqrt(),
        mean,
        mean_counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure_source::SphereSource;
    use crate::job::{FailureExposure, JobConfig};
    use crate::simulate::simulate_job;

    fn run_one(seed: u64) -> Result<JobStats, SimError> {
        let cfg = JobConfig {
            work: 50.0,
            checkpoint_cost: 0.2,
            checkpoint_interval: 2.0,
            restart_cost: 0.5,
            exposure: FailureExposure::AllTime,
            max_attempts: 1_000_000,
        };
        let mut src = SphereSource::poisson(25.0, seed);
        simulate_job(&cfg, &mut src)
    }

    #[test]
    fn aggregates_many_runs() {
        let agg = monte_carlo(64, 8, run_one).unwrap();
        assert_eq!(agg.runs, 64);
        assert_eq!(agg.completed, 64);
        assert!(agg.mean_total_time > 50.0);
        assert!(agg.std_total_time > 0.0);
        assert!(agg.sem_total_time() < agg.std_total_time);
        assert!((agg.mean.work_time - 50.0).abs() < 1e-6);
        assert_eq!(agg.completion_rate(), 1.0);
    }

    #[test]
    fn deterministic_given_seeds() {
        let caller = std::thread::current().id();
        let inline = monte_carlo(16, 1, |seed| {
            assert_eq!(std::thread::current().id(), caller, "one worker runs on the caller");
            run_one(seed)
        })
        .unwrap();
        for threads in [2, 3, 4, 17, 64] {
            let agg = monte_carlo(16, threads, run_one).unwrap();
            assert_eq!(agg, inline, "thread count {threads} must not matter");
        }
    }

    #[test]
    fn divergent_runs_excluded() {
        let agg = monte_carlo(8, 2, |seed| {
            if seed % 2 == 0 {
                run_one(seed)
            } else {
                Err(SimError::TooManyAttempts { attempts: 10 })
            }
        })
        .unwrap();
        assert_eq!(agg.completed, 4);
        assert!((agg.completion_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn masked_failures_survive_aggregation() {
        // Regression: the mean loop used to drop masked_failures, so 2x
        // sweeps always reported a mean of zero masked deaths. Under a
        // harsh MTBF at dual redundancy nearly every run masks something.
        use redcr_fault::ReplicaGroups;

        let cfg = JobConfig {
            work: 50.0,
            checkpoint_cost: 0.2,
            checkpoint_interval: 2.0,
            restart_cost: 0.5,
            exposure: FailureExposure::AllTime,
            max_attempts: 1_000_000,
        };
        let agg = monte_carlo(32, 4, |seed| {
            let mut src = SphereSource::new(ReplicaGroups::uniform(8, 2), 6.0, seed);
            simulate_job(&cfg, &mut src)
        })
        .unwrap();
        assert_eq!(agg.completed, 32);
        assert!(
            agg.mean.masked_failures > 0.0,
            "2x redundancy at mtbf 6 must mask deaths on average: {:?}",
            agg.mean
        );
    }

    #[test]
    fn rare_events_keep_fractional_means() {
        // Regression: the count means were rounded to u64, so any event
        // rarer than 0.5 per run reported as exactly 0 across an entire
        // sweep. At MTBF 1000 h a 50 h job fails in roughly 5% of runs —
        // rare, but emphatically not never.
        let cfg = JobConfig {
            work: 50.0,
            checkpoint_cost: 0.2,
            checkpoint_interval: 2.0,
            restart_cost: 0.5,
            exposure: FailureExposure::AllTime,
            max_attempts: 1_000_000,
        };
        let agg = monte_carlo(256, 8, |seed| {
            let mut src = SphereSource::poisson(1000.0, seed);
            simulate_job(&cfg, &mut src)
        })
        .unwrap();
        assert_eq!(agg.completed, 256);
        assert_eq!(agg.mean.failures, 0, "rounded mean hides the rare failures");
        assert!(
            agg.mean_counts.failures > 0.0 && agg.mean_counts.failures < 0.5,
            "fractional mean must surface them: {:?}",
            agg.mean_counts
        );
        // attempts = failures + 1 run-for-run, so the means must agree.
        assert!(
            (agg.mean_counts.attempts - 1.0 - agg.mean_counts.failures).abs() < 1e-12,
            "{:?}",
            agg.mean_counts
        );
    }

    #[test]
    fn fractional_and_rounded_means_agree_when_events_are_common() {
        let agg = monte_carlo(64, 8, run_one).unwrap();
        assert_eq!(agg.mean.checkpoints, agg.mean_counts.checkpoints.round() as u64);
        assert_eq!(agg.mean.attempts, agg.mean_counts.attempts.round() as u64);
        assert!(agg.mean_counts.checkpoints > 0.0);
    }

    #[test]
    fn zero_runs_ok() {
        let agg = monte_carlo(0, 4, run_one).unwrap();
        assert_eq!(agg.completed, 0);
        assert_eq!(agg.mean_total_time, 0.0);
    }
}
