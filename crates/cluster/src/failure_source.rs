//! Failure sources feeding the timeline simulator.

use std::sync::Arc;

use redcr_fault::{ExpSampler, ReplicaGroups};

/// Supplies, per attempt, the (relative) time at which the job fails.
///
/// Times are measured on the attempt's *exposure clock* (see
/// [`FailureExposure`](crate::job::FailureExposure)): under `AllTime` this
/// is wall time from attempt start; under `WorkOnly` it advances only while
/// the job is doing useful work.
pub trait FailureSource {
    /// The failure time of attempt `attempt` (relative to the attempt's
    /// start, in exposure-clock units). `f64::INFINITY` means the attempt
    /// is failure-free.
    fn next_failure(&mut self, attempt: u64) -> f64;

    /// Individual process deaths from the most recent [`next_failure`]
    /// sample that occurred by exposure time `exposure` **without** killing
    /// the job — deaths masked by surviving replicas. Sources without
    /// process granularity report 0.
    ///
    /// [`next_failure`]: FailureSource::next_failure
    fn masked_before(&self, _exposure: f64) -> u64 {
        0
    }
}

/// Memoryless system-level failures at a fixed rate (system MTBF `Θ`):
/// the aggregated view the analytic model uses (Eq. 10).
#[derive(Debug, Clone)]
pub struct PoissonSource {
    sampler: ExpSampler,
}

impl PoissonSource {
    /// Failures with mean inter-arrival `system_mtbf` (same unit as the job
    /// durations), deterministically seeded.
    ///
    /// # Panics
    ///
    /// Panics if `system_mtbf` is not positive.
    pub fn new(system_mtbf: f64, seed: u64) -> Self {
        PoissonSource { sampler: ExpSampler::new(system_mtbf, seed) }
    }
}

impl FailureSource for PoissonSource {
    fn next_failure(&mut self, _attempt: u64) -> f64 {
        self.sampler.sample()
    }
}

/// Relative half-width of the band around a threshold draw inside which
/// [`SphereSource`] takes the exact logarithm, 2⁻³⁰.
///
/// Two draws whose ratio is outside `1 ± BAND` have times `−θ·ln x` that
/// differ by at least `θ·BAND/37` relative (`|ln x| ≤ 37` for `x ≥ 2⁻⁵³`),
/// about 2⁻³⁵. The one assumption is that libm's `ln` and `exp` are
/// accurate to far better than that; glibc's are within 1 ULP (2⁻⁵²).
/// Then the computed times of such draws are ordered exactly as the draws
/// are, ties included, and only draws inside the band need their time.
const BAND: f64 = 1.0 / (1u64 << 30) as f64;

/// The draws within `BAND` of `x`: below `lo` a draw's time is surely
/// later than `x`'s, above `hi` surely earlier.
fn band(x: f64) -> (f64, f64) {
    (x * (1.0 - BAND), x * (1.0 + BAND))
}

/// Per-physical-process sampling with replica-sphere semantics: the job
/// fails when the first whole sphere is dead (partial redundancy, via
/// `redcr-fault`). Fresh samples per attempt (spares replace failed nodes).
///
/// An attempt draws one uniform `x = 1 − u` per process, in process order,
/// and compares draws instead of times: the map to a death time,
/// `−θ·ln x`, reverses order, so the sphere that dies first is the one
/// whose smallest draw is largest. Only the draws within a relative 2⁻³⁰ of
/// that candidate get their exact time, which makes the failure time and the
/// killer sphere bit-identical to sampling every time and applying
/// [`FailureSchedule::job_failure`](redcr_fault::FailureSchedule::job_failure),
/// at one `ln` per attempt instead of one per process.
#[derive(Debug, Clone)]
pub struct SphereSource {
    groups: Arc<ReplicaGroups>,
    sampler: ExpSampler,
    /// Fast path: when no process is replicated, the job failure time is
    /// the minimum of `N` i.i.d. exponentials — a single `Exp(θ/N)` draw.
    min_sampler: Option<ExpSampler>,
    /// The most recent attempt's draw per physical process (reused).
    draws: Vec<f64>,
    /// Most recent failure: `(failure_time, killer_sphere)`, kept for
    /// masked-death accounting.
    last: Option<(f64, usize)>,
}

impl SphereSource {
    /// Creates a source for the given sphere structure with per-process
    /// MTBF `node_mtbf` (same unit as job durations).
    ///
    /// # Panics
    ///
    /// Panics if `node_mtbf` is not positive.
    pub fn new(groups: ReplicaGroups, node_mtbf: f64, seed: u64) -> Self {
        Self::seeded(Arc::new(groups), node_mtbf, seed)
    }

    /// The same source under another seed, sharing the sphere structure:
    /// exactly `SphereSource::new(groups.clone(), node_mtbf, seed)`, without
    /// rebuilding the groups for every Monte-Carlo trial.
    pub(crate) fn reseeded(&self, seed: u64) -> Self {
        Self::seeded(Arc::clone(&self.groups), self.sampler.mean(), seed)
    }

    fn seeded(groups: Arc<ReplicaGroups>, node_mtbf: f64, seed: u64) -> Self {
        let n = groups.n_physical();
        let min_sampler = (n == groups.n_virtual() && node_mtbf.is_finite())
            .then(|| ExpSampler::new(node_mtbf / n as f64, seed ^ 0x5eed));
        let sampler = ExpSampler::new(node_mtbf, seed);
        SphereSource { groups, sampler, min_sampler, draws: Vec::new(), last: None }
    }

    /// The sphere structure.
    pub fn groups(&self) -> &ReplicaGroups {
        &self.groups
    }

    /// The job rule on the last attempt's draws: `(failure_time,
    /// killer_sphere)`, exactly as on their times.
    fn job_failure(&self) -> (f64, usize) {
        let (draws, sampler) = (&self.draws, &self.sampler);
        // A larger draw is an earlier death, so the job rule on `−x` finds
        // the candidate: the largest over spheres of a sphere's least draw.
        let (neg_candidate, _, _) =
            self.groups.first_sphere_death(|p| Some(-draws[p])).expect("every sphere has a member");
        // The same rule on exact times inside the band; outside it a draw
        // is surely earlier (−∞) or surely later (+∞) than the candidate.
        let (lo, hi) = band(-neg_candidate);
        let (failure, killer, _) = self
            .groups
            .first_sphere_death(|p| {
                let x = draws[p];
                Some(if x > hi {
                    f64::NEG_INFINITY
                } else if x < lo {
                    f64::INFINITY
                } else {
                    sampler.time(x)
                })
            })
            .expect("the candidate sphere dies at a finite time");
        (failure, killer)
    }

    /// Processes of the last attempt dead by exposure `t`: the draws at or
    /// above `exp(−t/θ)`, with the exact time compared inside the band.
    fn dead_by(&self, t: f64) -> usize {
        let (lo, hi) = band((-t / self.sampler.mean()).exp());
        self.draws.iter().filter(|&&x| x > hi || (x >= lo && self.sampler.time(x) <= t)).count()
    }
}

impl FailureSource for SphereSource {
    fn next_failure(&mut self, _attempt: u64) -> f64 {
        if let Some(min_sampler) = &mut self.min_sampler {
            // Unreplicated fast path: the first death kills the job, so no
            // death is ever masked and the draws are not needed.
            return min_sampler.sample();
        }
        if self.sampler.mean().is_infinite() {
            // Nobody ever dies, and an infinite mean draws nothing.
            self.last = None;
            return f64::INFINITY;
        }
        let n = self.groups.n_physical();
        self.draws.clear();
        self.draws.extend((0..n).map(|_| self.sampler.draw()));
        let (failure, killer) = self.job_failure();
        self.last = Some((failure, killer));
        failure
    }

    /// The masked-death rule: of the processes dead by `exposure`, those
    /// that did not kill the job — everything up to the last failure except
    /// the killer sphere's own members.
    fn masked_before(&self, exposure: f64) -> u64 {
        let Some((failure, killer)) = self.last else { return 0 };
        if exposure >= failure {
            self.dead_by(failure).saturating_sub(self.groups.members(killer).len()) as u64
        } else {
            self.dead_by(exposure) as u64
        }
    }
}

/// A scripted list of per-attempt failure times (tests); attempts beyond
/// the list are failure-free.
#[derive(Debug, Clone)]
pub struct ScheduledSource {
    times: Vec<f64>,
}

impl ScheduledSource {
    /// Creates a source failing attempt `i` at `times[i]`.
    pub fn new(times: Vec<f64>) -> Self {
        ScheduledSource { times }
    }
}

impl FailureSource for ScheduledSource {
    fn next_failure(&mut self, attempt: u64) -> f64 {
        self.times.get(attempt as usize).copied().unwrap_or(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use redcr_fault::FailureSchedule;

    use super::*;

    #[test]
    fn scheduled_source_replays_then_clean() {
        let mut s = ScheduledSource::new(vec![1.0, 2.0]);
        assert_eq!(s.next_failure(0), 1.0);
        assert_eq!(s.next_failure(1), 2.0);
        assert_eq!(s.next_failure(2), f64::INFINITY);
    }

    #[test]
    fn poisson_source_mean() {
        let mut s = PoissonSource::new(10.0, 3);
        let n = 50_000;
        let sum: f64 = (0..n).map(|i| s.next_failure(i)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn sphere_source_counts_masked_deaths() {
        // 2x spheres with a harsh MTBF: by the time the job dies, several
        // processes outside the killer sphere usually died too — all of
        // them masked. Before the failure, *every* sampled death is masked.
        let mut s = SphereSource::new(ReplicaGroups::uniform(8, 2), 5.0, 4);
        let mut saw_masked = false;
        for attempt in 0..50 {
            let failure = s.next_failure(attempt);
            assert!(failure.is_finite());
            assert_eq!(s.masked_before(0.0), 0, "no deaths at exposure 0");
            let at_failure = s.masked_before(failure);
            let just_before = s.masked_before(failure * (1.0 - 1e-12));
            assert!(at_failure <= just_before, "the killer sphere is not masked");
            saw_masked |= at_failure > 0;
        }
        assert!(saw_masked, "masked deaths must occur under mtbf 5 at 2x");
        // The unreplicated fast path has nothing to mask.
        let mut plain = SphereSource::new(ReplicaGroups::uniform(8, 1), 5.0, 4);
        let failure = plain.next_failure(0);
        assert_eq!(plain.masked_before(failure), 0);
    }

    /// The reference sampler: a time for every process from the same
    /// stream, the job rule on those times, and deaths counted by listing
    /// them.
    struct Oracle {
        groups: ReplicaGroups,
        sampler: ExpSampler,
        last: (FailureSchedule, usize, f64),
    }

    impl Oracle {
        fn next_failure(&mut self) -> f64 {
            let schedule = FailureSchedule::sample(self.groups.n_physical(), &mut self.sampler);
            let (failure, killer) = schedule.job_failure(&self.groups);
            self.last = (schedule, killer, failure);
            failure
        }

        fn masked_before(&self, exposure: f64) -> u64 {
            let (schedule, killer, failure) = &self.last;
            if exposure >= *failure {
                let dead = schedule.dead_by(*failure).len();
                dead.saturating_sub(self.groups.members(*killer).len()) as u64
            } else {
                schedule.dead_by(exposure).len() as u64
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn sphere_source_matches_the_per_process_oracle(
            counts in proptest::collection::vec(1usize..4, 1..49),
            log_mtbf in -3.0f64..3.0,
            seed in proptest::any::<u64>(),
            shape in 0u8..6,
        ) {
            // Shape 0 is a failure-free system, shape 1 the all-singleton
            // fast path; the rest keep the drawn replica counts.
            let work = 10.0;
            let mtbf = if shape == 0 { f64::INFINITY } else { work * 10f64.powf(log_mtbf) };
            let counts = if shape == 1 { vec![1; counts.len()] } else { counts };
            let groups = ReplicaGroups::from_counts(&counts);
            let n = groups.n_physical();
            let mut source = SphereSource::new(groups.clone(), mtbf, seed);
            let mut oracle = Oracle {
                sampler: ExpSampler::new(mtbf, seed),
                groups,
                last: (FailureSchedule { death_times: Vec::new() }, usize::MAX, f64::INFINITY),
            };
            let unreplicated = n == counts.len() && mtbf.is_finite();
            let mut fast = unreplicated.then(|| ExpSampler::new(mtbf / n as f64, seed ^ 0x5eed));
            let mut probe = ExpSampler::new(mtbf, seed.wrapping_add(1));
            for attempt in 0..50 {
                let failure = source.next_failure(attempt);
                if let Some(fast) = &mut fast {
                    proptest::prop_assert_eq!(failure.to_bits(), fast.sample().to_bits());
                    proptest::prop_assert_eq!(source.masked_before(failure), 0);
                    continue;
                }
                let expected = oracle.next_failure();
                proptest::prop_assert_eq!(failure.to_bits(), expected.to_bits(), "attempt {}", attempt);
                let exposures = [
                    0.0,
                    failure,
                    failure * (1.0 - 1e-12),
                    failure * (1.0 + 1e-12),
                    probe.sample(),
                    work,
                ];
                for exposure in exposures.into_iter().filter(|e| e.is_finite()) {
                    proptest::prop_assert_eq!(
                        source.masked_before(exposure),
                        oracle.masked_before(exposure),
                        "attempt {} exposure {}",
                        attempt,
                        exposure
                    );
                }
            }
        }
    }

    #[test]
    fn equal_draws_tie_like_equal_times() {
        // Spheres {0, 2, 3} and {1, 4} both die with a draw of 0.25, so
        // their times tie and the job rule gives the failure to the lower
        // sphere. Process 4's draw sits inside the band, just above 0.25.
        let groups = ReplicaGroups::from_counts(&[3, 2]);
        let mut source = SphereSource::new(groups.clone(), 3.0, 0);
        source.draws = vec![0.25, 0.25, 0.9, 0.5, 0.25 * (1.0 + 1e-12)];
        let times: Vec<f64> = source.draws.iter().map(|&x| source.sampler.time(x)).collect();
        let oracle = FailureSchedule { death_times: times };
        let (failure, killer) = source.job_failure();
        let (expected, expected_killer) = oracle.job_failure(&groups);
        assert_eq!((failure.to_bits(), killer), (expected.to_bits(), expected_killer));
        assert_eq!(killer, 0);
        for t in [0.0, 0.1, failure * (1.0 - 1e-12), failure, 10.0] {
            assert_eq!(source.dead_by(t), oracle.dead_by(t).len(), "t = {t}");
        }
    }

    #[test]
    fn reseeded_is_new_with_that_seed() {
        let groups = ReplicaGroups::from_counts(&[2, 1, 3, 1, 2]);
        let template = SphereSource::new(groups.clone(), 4.0, 1);
        for seed in 0..20 {
            let mut a = template.reseeded(seed);
            let mut b = SphereSource::new(groups.clone(), 4.0, seed);
            for attempt in 0..20 {
                assert_eq!(a.next_failure(attempt).to_bits(), b.next_failure(attempt).to_bits());
                assert_eq!(a.masked_before(2.0), b.masked_before(2.0));
            }
        }
    }

    #[test]
    fn sphere_source_redundancy_extends_lifetime() {
        let mean_of = |groups: ReplicaGroups, seed| {
            let mut s = SphereSource::new(groups, 100.0, seed);
            (0..2000).map(|i| s.next_failure(i)).sum::<f64>() / 2000.0
        };
        let m1 = mean_of(ReplicaGroups::uniform(16, 1), 1);
        let m2 = mean_of(ReplicaGroups::uniform(8, 2), 1);
        // 1x on 16 nodes: MTBF ~ 100/16 = 6.25. Dual redundancy: far longer.
        assert!((m1 - 6.25).abs() < 1.0, "m1 = {m1}");
        assert!(m2 > 4.0 * m1, "m2 = {m2}");
    }
}
