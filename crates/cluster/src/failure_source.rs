//! Failure sources feeding the timeline simulator.
//!
//! # How [`SphereSource`] samples an attempt
//!
//! An attempt draws one uniform `x = 1 − u` per process, in process order,
//! and compares draws instead of times: the map to a death time,
//! `−θ·ln x`, reverses order, so the sphere that dies first is the one
//! whose least draw is largest, the *candidate*. Only draws within a
//! relative 2⁻³⁰ of the candidate (the band) get their exact time, which
//! makes the failure time, the killer sphere and every masked count
//! bit-identical to timing every process and applying
//! [`FailureSchedule`](redcr_fault::FailureSchedule)'s rules, at one `ln`
//! per attempt instead of one per process.
//!
//! The draw loop folds each draw into its sphere as it is drawn: into its
//! replicated sphere's least draw, or into the top two draws over singleton
//! spheres. A singleton's draw *is* its sphere's least draw, so none exceeds
//! the candidate, and one below the band dies surely later than the failure:
//! it can neither kill the job nor be dead by then. So when the second
//! singleton lies below the band, the job rule runs on the top singleton and
//! the replicated spheres whose least draw is in the band, and a masked count
//! reads only the replicated members and the top singleton: an attempt costs
//! its draws plus its replicated members. When the second singleton lies in
//! the band too, the general rule runs instead, over every sphere and every
//! draw.

use std::ops::Range;
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

/// Tags a singleton sphere in [`Spheres::slot`]; the low bits hold the
/// sphere's index.
const SINGLETON: u32 = 1 << 31;

/// The sphere structure as an attempt reads it, built once per job and
/// shared by every reseeded copy of its source.
#[derive(Debug)]
struct Spheres {
    groups: ReplicaGroups,
    /// Per process: `SINGLETON | v` for the one member of sphere `v`, else
    /// the index of its sphere in `replicated`.
    slot: Vec<u32>,
    /// The spheres of two or more members, in sphere order: the sphere and
    /// the range of its members in `members`.
    replicated: Vec<(usize, Range<usize>)>,
    /// The members of the replicated spheres, sphere after sphere.
    members: Vec<usize>,
}

impl Spheres {
    fn new(groups: ReplicaGroups) -> Self {
        assert!(groups.n_virtual() < SINGLETON as usize, "too many spheres");
        let mut slot = vec![0; groups.n_physical()];
        let (mut replicated, mut members) = (Vec::new(), Vec::new());
        for (v, sphere) in groups.iter().enumerate() {
            if let &[p] = sphere {
                slot[p] = SINGLETON | v as u32;
            } else {
                for &p in sphere {
                    slot[p] = replicated.len() as u32;
                }
                let start = members.len();
                members.extend_from_slice(sphere);
                replicated.push((v, start..members.len()));
            }
        }
        Spheres { groups, slot, replicated, members }
    }
}

/// An attempt's job failure, kept for masked-death accounting.
#[derive(Debug, Clone, Copy)]
struct Failure {
    time: f64,
    killer: usize,
    /// The largest singleton draw (0 if there is none), the only singleton
    /// that can be dead by `time`; `None` after the general rule, when
    /// every draw is counted.
    top_singleton: Option<f64>,
}

/// Per-physical-process sampling with replica-sphere semantics: the job
/// fails when the first whole sphere is dead (partial redundancy, via
/// `redcr-fault`). Fresh samples per attempt (spares replace failed nodes).
/// The [module docs](self) describe how an attempt is sampled.
#[derive(Debug, Clone)]
pub struct SphereSource {
    spheres: Arc<Spheres>,
    sampler: ExpSampler,
    /// Fast path: when no process is replicated, the job failure time is
    /// the minimum of `N` i.i.d. exponentials — a single `Exp(θ/N)` draw.
    min_sampler: Option<ExpSampler>,
    /// The most recent attempt's draw per physical process (reused).
    draws: Vec<f64>,
    /// The most recent attempt's least draw per replicated sphere (reused).
    least: Vec<f64>,
    /// The most recent attempt's failure.
    last: Option<Failure>,
}

impl SphereSource {
    /// Creates a source for the given sphere structure with per-process
    /// MTBF `node_mtbf` (same unit as job durations).
    ///
    /// # Panics
    ///
    /// Panics if `node_mtbf` is not positive.
    pub fn new(groups: ReplicaGroups, node_mtbf: f64, seed: u64) -> Self {
        Self::seeded(Arc::new(Spheres::new(groups)), node_mtbf, seed)
    }

    /// Memoryless failures at a fixed rate, the aggregated view the
    /// analytic model takes (Eq. 10): one singleton sphere failing with
    /// mean `mtbf`.
    #[cfg(test)]
    pub(crate) fn poisson(mtbf: f64, seed: u64) -> Self {
        Self::new(ReplicaGroups::uniform(1, 1), mtbf, seed)
    }

    /// The same source under another seed, sharing the sphere structure:
    /// exactly `SphereSource::new(groups.clone(), node_mtbf, seed)`, without
    /// rebuilding the spheres for every Monte-Carlo trial.
    pub(crate) fn reseeded(&self, seed: u64) -> Self {
        Self::seeded(Arc::clone(&self.spheres), self.sampler.mean(), seed)
    }

    fn seeded(spheres: Arc<Spheres>, node_mtbf: f64, seed: u64) -> Self {
        let n = spheres.groups.n_physical();
        let min_sampler = (n == spheres.groups.n_virtual() && node_mtbf.is_finite())
            .then(|| ExpSampler::new(node_mtbf / n as f64, seed ^ 0x5eed));
        let sampler = ExpSampler::new(node_mtbf, seed);
        SphereSource {
            spheres,
            sampler,
            min_sampler,
            draws: Vec::new(),
            least: Vec::new(),
            last: None,
        }
    }

    /// One attempt on the draws `next` yields, one per process in process
    /// order: the job failure time, kept with its killer in `last`.
    fn attempt(&mut self, mut next: impl FnMut() -> f64) -> f64 {
        let spheres = &*self.spheres;
        self.draws.resize(spheres.slot.len(), 0.0);
        self.least.clear();
        self.least.resize(spheres.replicated.len(), f64::INFINITY);
        // Draws are positive, so 0 stands for "no singleton yet".
        let (mut top, mut second, mut top_sphere) = (0.0, 0.0, usize::MAX);
        for (draw, &slot) in self.draws.iter_mut().zip(&spheres.slot) {
            let x = next();
            *draw = x;
            if slot & SINGLETON == 0 {
                let least = &mut self.least[slot as usize];
                *least = least.min(x);
            } else if x > top {
                (second, top, top_sphere) = (top, x, (slot ^ SINGLETON) as usize);
            } else if x > second {
                second = x;
            }
        }
        let candidate = self.least.iter().fold(top, |c, &least| c.max(least));
        let (lo, hi) = band(candidate);
        let (draws, sampler) = (&self.draws, &self.sampler);
        // A sphere's time under the band: its members' latest, where a draw
        // above the band is surely earlier than any inside it.
        let sphere_time = |members: &[usize]| {
            members
                .iter()
                .map(|&p| draws[p])
                .filter(|&x| x <= hi)
                .fold(f64::NEG_INFINITY, |t, x| t.max(sampler.time(x)))
        };
        let failure = if second < lo {
            // The first to die of the top singleton and the replicated
            // spheres in the band; ties go to the lower sphere.
            let mut first = (top >= lo).then(|| (sampler.time(top), top_sphere));
            for ((v, members), &least) in spheres.replicated.iter().zip(&self.least) {
                if least >= lo {
                    let next = (sphere_time(&spheres.members[members.clone()]), *v);
                    if first.is_none_or(|first| next < first) {
                        first = Some(next);
                    }
                }
            }
            let (time, killer) = first.expect("the candidate's sphere lies in the band");
            Failure { time, killer, top_singleton: Some(top) }
        } else {
            // The general rule: every sphere, a sphere whose least draw is
            // below the band surely later than the candidate's.
            let (time, killer, _) = spheres
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
            Failure { time, killer, top_singleton: None }
        };
        self.last = Some(failure);
        failure.time
    }

    /// Processes of the last attempt dead by exposure `t ≤ failure.time`:
    /// the draws at or above `exp(−t/θ)`, with the exact time compared
    /// inside the band.
    fn dead_by(&self, failure: Failure, t: f64) -> usize {
        let (lo, hi) = band((-t / self.sampler.mean()).exp());
        let dead = |x: f64| x > hi || (x >= lo && self.sampler.time(x) <= t);
        match failure.top_singleton {
            // A draw of 0 (no singleton) has an infinite time: never dead.
            Some(top) => {
                let members = &self.spheres.members;
                members.iter().filter(|&&p| dead(self.draws[p])).count() + usize::from(dead(top))
            }
            None => self.draws.iter().filter(|&&x| dead(x)).count(),
        }
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
        // The generator lives in a local for the draw loop.
        let mut sampler = self.sampler.clone();
        let failure = self.attempt(|| sampler.draw());
        self.sampler = sampler;
        failure
    }

    /// The masked-death rule: of the processes dead by `exposure`, those
    /// that did not kill the job — everything up to the last failure except
    /// the killer sphere's own members.
    fn masked_before(&self, exposure: f64) -> u64 {
        let Some(failure) = self.last else { return 0 };
        if exposure >= failure.time {
            let killers = self.spheres.groups.members(failure.killer).len();
            self.dead_by(failure, failure.time).saturating_sub(killers) as u64
        } else {
            self.dead_by(failure, exposure) as u64
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
        let mut s = SphereSource::poisson(10.0, 3);
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

    /// The ids `0..n` in an order seeded by `seed`.
    fn permutation(n: usize, seed: u64) -> Vec<usize> {
        let mut keys = ExpSampler::new(1.0, seed ^ 0x9e37);
        let mut ids: Vec<(f64, usize)> = (0..n).map(|p| (keys.draw(), p)).collect();
        ids.sort_by(|a, b| a.0.total_cmp(&b.0));
        ids.into_iter().map(|(_, p)| p).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn sphere_source_matches_the_per_process_oracle(
            counts in proptest::collection::vec(1usize..4, 1..49),
            log_mtbf in -3.0f64..3.0,
            seed in proptest::any::<u64>(),
            shape in 0u8..8,
        ) {
            // Shape 0 is a failure-free system, shape 1 the all-singleton
            // fast path, shape 2 replicates every sphere, and shapes 3 and
            // 4 deal the physical ids out in a seeded order, so primaries
            // need not come first nor members be contiguous. The rest keep
            // the drawn replica counts in `from_counts`' layout.
            let work = 10.0;
            let mtbf = if shape == 0 { f64::INFINITY } else { work * 10f64.powf(log_mtbf) };
            let counts: Vec<usize> = match shape {
                1 => vec![1; counts.len()],
                2 => counts.iter().map(|&c| c.max(2)).collect(),
                _ => counts,
            };
            let groups = if matches!(shape, 3 | 4) {
                let mut ids = permutation(counts.iter().sum(), seed).into_iter();
                ReplicaGroups::new(counts.iter().map(|&c| ids.by_ref().take(c).collect()).collect())
            } else {
                ReplicaGroups::from_counts(&counts)
            };
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

    /// Runs one attempt of a source on `groups` on hand-set draws and checks
    /// its failure, killer, dead and masked counts against `FailureSchedule`
    /// on the draws' times. Returns the killer and whether the general rule
    /// ran.
    fn check_hand_set(groups: ReplicaGroups, draws: &[f64]) -> (usize, bool) {
        let mut source = SphereSource::new(groups.clone(), 3.0, 0);
        let mut next = draws.iter().copied();
        let failure = source.attempt(|| next.next().expect("one draw per process"));
        let last = source.last.expect("the attempt failed");
        let times = draws.iter().map(|&x| source.sampler.time(x)).collect();
        let oracle = FailureSchedule { death_times: times };
        let (expected, expected_killer) = oracle.job_failure(&groups);
        assert_eq!((failure.to_bits(), last.killer), (expected.to_bits(), expected_killer));
        for t in [0.0, 0.1, failure * (1.0 - 1e-12), failure] {
            assert_eq!(source.dead_by(last, t), oracle.dead_by(t).len(), "t = {t}");
        }
        // Past the failure, the dead at the failure minus the killer sphere.
        let masked = oracle.dead_by(failure).len() - groups.members(last.killer).len();
        assert_eq!(source.masked_before(failure + 1.0), masked as u64);
        (last.killer, last.top_singleton.is_none())
    }

    #[test]
    fn equal_draws_tie_like_equal_times() {
        // Spheres {0, 2, 3} and {1, 4} both die with a draw of 0.25, so
        // their times tie and the job rule gives the failure to the lower
        // sphere. Process 4's draw sits inside the band, just above 0.25.
        let groups = ReplicaGroups::from_counts(&[3, 2]);
        let draws = [0.25, 0.25, 0.9, 0.5, 0.25 * (1.0 + 1e-12)];
        assert_eq!(check_hand_set(groups, &draws), (0, false));
    }

    #[test]
    fn tied_singletons_take_the_general_rule() {
        // Singletons {1} and {2} tie at the candidate 0.6; the lower wins.
        // Sphere {0, 3} dies later, with its least draw 0.3.
        let groups = ReplicaGroups::from_counts(&[2, 1, 1]);
        assert_eq!(check_hand_set(groups, &[0.3, 0.6, 0.6, 0.8]), (1, true));
    }

    #[test]
    fn a_singleton_ties_with_a_replicated_sphere() {
        // The singleton and the replicated sphere {·, ·} both die with a
        // draw of 0.4; the lower sphere wins, whichever kind it is.
        let replicated_first = ReplicaGroups::from_counts(&[2, 1]);
        assert_eq!(check_hand_set(replicated_first, &[0.4, 0.4, 0.7]), (0, false));
        let singleton_first = ReplicaGroups::from_counts(&[1, 2]);
        assert_eq!(check_hand_set(singleton_first, &[0.4, 0.7, 0.4]), (0, false));
    }

    #[test]
    fn a_second_singleton_in_the_band_takes_the_general_rule() {
        // Two singletons within 1e-12 of each other, inside the band but
        // not tied: the larger draw dies first, whichever sphere it is in.
        let close = 0.6 * (1.0 - 1e-12);
        let groups = ReplicaGroups::from_counts(&[1, 1, 2]);
        assert_eq!(check_hand_set(groups.clone(), &[0.6, close, 0.2, 0.9]), (0, true));
        assert_eq!(check_hand_set(groups.clone(), &[close, 0.6, 0.2, 0.9]), (1, true));
        // Small draws one ULP apart whose times round to the same value:
        // the smaller draw, in the lower sphere, ties the top singleton, so
        // it kills the job and is dead by the failure too.
        let time = |x: f64| ExpSampler::new(3.0, 0).time(x);
        let x = (0..)
            .map(|k| 1e-5 * (1.0 + f64::from(k) * 1e-3))
            .find(|&x| time(x) == time(x.next_down()))
            .expect("adjacent small draws share a time");
        assert_eq!(check_hand_set(groups, &[x.next_down(), x, 1e-7, 0.9]), (0, true));
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
