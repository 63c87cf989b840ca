//! Failure sources feeding the timeline simulator.
//!
//! # How [`SphereSource`] samples an attempt
//!
//! A job of replica spheres fails when its first sphere has lost every
//! member. With `y = 1 − e^{−t/θ}` the chance that one process has failed
//! by `t`, a sphere of `k` members is dead by `t` with probability `y^k`,
//! and the job survives to `t` with probability `S(t) = Π_k (1 − y^k)^{n_k}`
//! over its sphere sizes `k`, `n_k` spheres each (Eqs. 4 and 9 under Eq. 2's
//! exponential law). An attempt draws from that law, not per process:
//!
//! - **The failure time and the killer's size.** The spheres of one size
//!   fail independently of the others, so each size class gets its own
//!   first death: one `Exp(1)` draw `h` is its cumulative hazard
//!   `−n_k·ln(1 − y^k)` then, which gives `y = (1 − e^{−h/n_k})^{1/k}` in
//!   closed form (`t = θh/n` for singletons). The job fails at the earliest
//!   class's time, and that class holds the killer: the minimum of the
//!   classes has exactly the job's law, and its class falls to size `k` in
//!   proportion to `n_k` times one `k`-sphere's hazard at `t`.
//! - **The masked deaths.** At the failure every other sphere still has a
//!   live member, so its dead count is Bin(k, y) conditioned on being below
//!   `k`, independently. The simulator only ever reports masked deaths as a
//!   mean, so [`masked_before`] returns that count's conditional expectation
//!   [`masked_mean`]`(k, y)` summed over the spheres (Rao–Blackwell): the
//!   mean is unbiased with a smaller variance, and nothing is drawn. A
//!   completed attempt reports the same at the `y` of its exposure `x`,
//!   conditioned on the job surviving `x`.
//!
//! The failure time and the killer's size are exact in law, and each masked
//! value is the exact expected count given them; the module's `law` tests
//! check both against [`FailureSchedule`](redcr_fault::FailureSchedule)
//! timing every process. They are not one per-process schedule's, bit for
//! bit or jointly: a completed attempt's masked mean ignores how long after
//! `x` the job would have died, and the simulator uses no more of the
//! failure time than whether it fell before `x`, so nothing it reports
//! depends on the joint law. The unreplicated job's failure times are bit
//! for bit those of `ExpSampler::new(θ/N, seed ^ 0x5eed)`, which the r = 1
//! results pinned in `results/` depend on.
//!
//! [`masked_before`]: FailureSource::masked_before

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redcr_fault::ReplicaGroups;

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

    /// The expected number of individual process deaths of the most recent
    /// [`next_failure`] attempt that occurred by exposure time `exposure`
    /// **without** killing the job — deaths masked by surviving replicas —
    /// given that attempt's failure time. Sources without process
    /// granularity report 0.
    ///
    /// [`next_failure`]: FailureSource::next_failure
    fn masked_before(&self, _exposure: f64) -> f64 {
        0.0
    }
}

/// An attempt's job failure, kept for masked-death accounting.
#[derive(Debug, Clone, Copy)]
struct Failure {
    time: f64,
    /// The size class of the sphere that died first.
    killer: usize,
}

/// Per-attempt sampling of a job of replica spheres from its exact failure
/// law: the job fails when the first whole sphere is dead (partial
/// redundancy). Fresh samples per attempt (spares replace failed nodes).
/// The [module docs](self) describe how an attempt is sampled.
#[derive(Debug, Clone)]
pub struct SphereSource {
    /// The sphere sizes, ascending, each with its number of spheres.
    classes: Vec<(u32, u64)>,
    node_mtbf: f64,
    rng: StdRng,
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
        assert!(node_mtbf > 0.0, "node MTBF must be positive, got {node_mtbf}");
        let mut sizes: Vec<u32> = groups.iter().map(|sphere| sphere.len() as u32).collect();
        sizes.sort_unstable();
        let classes = sizes.chunk_by(|a, b| a == b).map(|c| (c[0], c.len() as u64)).collect();
        Self::seeded(classes, node_mtbf, seed)
    }

    /// Memoryless failures at a fixed rate, the aggregated view the
    /// analytic model takes (Eq. 10): one singleton sphere failing with
    /// mean `mtbf`.
    #[cfg(test)]
    pub(crate) fn poisson(mtbf: f64, seed: u64) -> Self {
        Self::new(ReplicaGroups::uniform(1, 1), mtbf, seed)
    }

    /// The same source under another seed: exactly
    /// `SphereSource::new(groups.clone(), node_mtbf, seed)`, without
    /// recounting the spheres for every Monte-Carlo trial.
    pub(crate) fn reseeded(&self, seed: u64) -> Self {
        Self::seeded(self.classes.clone(), self.node_mtbf, seed)
    }

    fn seeded(classes: Vec<(u32, u64)>, node_mtbf: f64, seed: u64) -> Self {
        // The seed mix keeps the unreplicated job's stream (module docs).
        let rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        SphereSource { classes, node_mtbf, rng, last: None }
    }

    /// The size of the sphere that killed the last attempt.
    #[cfg(test)]
    fn killer_size(&self) -> usize {
        self.last.map_or(1, |failure| self.classes[failure.killer].0 as usize)
    }
}

impl FailureSource for SphereSource {
    fn next_failure(&mut self, _attempt: u64) -> f64 {
        if self.node_mtbf.is_infinite() {
            // Nobody ever dies, and an infinite MTBF draws nothing.
            self.last = None;
            return f64::INFINITY;
        }
        let mut first = Failure { time: f64::INFINITY, killer: 0 };
        for (class, &(k, n)) in self.classes.iter().enumerate() {
            // The class's cumulative hazard −n·ln(1 − y^k) at its first
            // sphere death: Exp(1).
            let hazard = -(1.0 - self.rng.gen::<f64>()).ln();
            let time = if k == 1 {
                // The first of n exponentials, θ/n·h as `ExpSampler` rounds it.
                self.node_mtbf / n as f64 * hazard
            } else {
                // y^k, then y as its k-th root: `sqrt` is correctly rounded,
                // and `cbrt` is closer than `powf` with 1/3 rounded.
                let x = -(-hazard / n as f64).exp_m1();
                let y = match k {
                    2 => x.sqrt(),
                    3 => x.cbrt(),
                    _ => x.powf(1.0 / f64::from(k)),
                };
                -self.node_mtbf * (-y).ln_1p()
            };
            if time < first.time {
                first = Failure { time, killer: class };
            }
        }
        self.last = Some(first);
        first.time
    }

    /// The masked-death rule: of the processes dead by `exposure`, those
    /// that did not kill the job — everything up to the last failure except
    /// the killer sphere's own members — in expectation: Σ over the classes
    /// of (n_k − [killer ∈ k])·[`masked_mean`]`(k, y)`.
    fn masked_before(&self, exposure: f64) -> f64 {
        let Some(failure) = self.last else { return 0.0 };
        // The classes ascend, so the last is replicated or none is.
        if self.classes.last().is_none_or(|&(k, _)| k < 2) {
            return 0.0;
        }
        let killer = (exposure >= failure.time).then_some(failure.killer);
        let y = -(-exposure.min(failure.time) / self.node_mtbf).exp_m1();
        let spheres = |class, n| (n - u64::from(killer == Some(class))) as f64;
        self.classes
            .iter()
            .enumerate()
            .map(|(class, &(k, n))| spheres(class, n) * masked_mean(k, y))
            .sum()
    }
}

/// E[Bin(k, y) | < k]: the expected dead members of a `k`-sphere that still
/// has a live one, when each member is dead with probability `y`.
///
/// Computed as k·y·Σ_{i<k−1} yⁱ / Σ_{i<k} yⁱ, which is exact at both ends (0
/// at y = 0, k − 1 at y = 1) where k·y·(1 − y^{k−1})/(1 − y^k) is 0/0.
pub fn masked_mean(k: u32, y: f64) -> f64 {
    // Σ_{i<k−1} yⁱ, and y^{k−1} after it.
    let (mut head, mut power) = (0.0, 1.0);
    for _ in 1..k {
        head += power;
        power *= y;
    }
    f64::from(k) * y * head / (head + power)
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
    use redcr_fault::{ExpSampler, FailureSchedule};

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
            assert_eq!(s.masked_before(0.0), 0.0, "no deaths at exposure 0");
            saw_masked |= s.masked_before(failure) > 0.0;
        }
        assert!(saw_masked, "masked deaths must occur under mtbf 5 at 2x");
        // The unreplicated fast path has nothing to mask.
        let mut plain = SphereSource::new(ReplicaGroups::uniform(8, 1), 5.0, 4);
        let failure = plain.next_failure(0);
        assert_eq!(plain.masked_before(failure), 0.0);
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
                assert_eq!(a.masked_before(2.0).to_bits(), b.masked_before(2.0).to_bits());
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

    /// The statistical oracle: `SphereSource` against the law of a job of
    /// replica spheres, shape by shape over r ∈ {1, 1.25, 1.5, 2, 2.5, 3} and
    /// N ∈ {4, 128, 4096} virtual processes, at fixed seeds.
    ///
    /// - The failure time, by a Kolmogorov–Smirnov test against
    ///   S(t) = Π_k (1 − y^k)^{n_k} from `redcr_model::reliability`.
    /// - The killer's sphere size by a two-sample χ² test against the
    ///   per-process `FailureSchedule`, at N ≤ 128 only.
    /// - The mean masked value (at the failure, and at the median of T given
    ///   survival to it) by a two-sided Welch z test against the mean count
    ///   of the same `FailureSchedule` reference, at N ≤ 128 only.
    /// - At N = 4096, the killer's size by a χ² test against the analytic
    ///   law: P(size k | failure at y) = w_k / Σ w, w_k = n_k·k·y^{k−1}/(1 − y^k),
    ///   averaged over the quantiles of T.
    ///
    /// Each check alarms falsely with probability at most 10⁻³ (the Welch z
    /// by the central limit theorem, at 10⁵ and 2·10⁴ attempts). There are
    /// 18 KS checks, 9 killer checks (the shapes with two sphere sizes) and
    /// 20 masked-mean checks (the replicated shapes at N ≤ 128), so a
    /// correct sampler fails some check at a random seed with probability at
    /// most 1 − (1 − 10⁻³)⁴⁷ ≈ 4.6 %. Apart from these, `masked_mean` is
    /// checked exactly against the conditional binomial's pmf.
    mod law {
        use redcr_model::partition::RedundancyPartition;
        use redcr_model::reliability::{sphere_reliability, Approximation};

        use super::*;

        const DEGREES: [f64; 6] = [1.0, 1.25, 1.5, 2.0, 2.5, 3.0];
        /// Attempts drawn from the source under test, per shape.
        const ATTEMPTS: u64 = 100_000;
        /// Attempts drawn from the per-process reference, per shape.
        const REFERENCE_ATTEMPTS: u64 = 20_000;
        const MTBF: f64 = 7.0;
        /// Dvoretzky–Kiefer–Wolfowitz: P(√n·D > λ) ≤ 2·e^{−2λ²} at every
        /// n, so λ = √(ln(2/α)/2) for α = 10⁻³.
        const KS_LAMBDA: f64 = 1.949_466;
        /// The standard normal's 1 − 10⁻³ quantile.
        const Z: f64 = 3.090_232;
        /// The standard normal's 1 − 10⁻³/2 quantile: a two-sided z at 10⁻³.
        const Z_TWO_SIDED: f64 = 3.290_527;

        /// The 1 − 10⁻³ quantile of χ²(df), by Wilson–Hilferty (slightly
        /// conservative at df = 1: 11.2 against 10.8).
        fn chi2_critical(df: usize) -> f64 {
            let (d, c) = (df as f64, 2.0 / (9.0 * df as f64));
            d * (1.0 - c + Z * c.sqrt()).powi(3)
        }

        /// The job's sphere classes, `(size, count)`, as the model
        /// partitions `n` virtual processes at degree `degree`.
        fn classes(n: u64, degree: f64) -> Vec<(usize, usize)> {
            let p = RedundancyPartition::new(n, degree).unwrap();
            [(p.floor_replicas(), p.n_floor_set()), (p.ceil_replicas(), p.n_ceil_set())]
                .into_iter()
                .filter(|&(_, count)| count > 0)
                .map(|(k, count)| (k as usize, count as usize))
                .collect()
        }

        /// S(t): every sphere still has a live member at `t`.
        fn survival(classes: &[(usize, usize)], t: f64) -> f64 {
            classes
                .iter()
                .map(|&(k, count)| {
                    let alive = sphere_reliability(t, MTBF, k as u64, Approximation::Exact);
                    alive.unwrap().powi(count as i32)
                })
                .product()
        }

        /// The `t` with S(t) = `s`, by bisection.
        fn quantile(classes: &[(usize, usize)], s: f64) -> f64 {
            let (mut lo, mut hi) = (0.0, 64.0 * MTBF);
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if survival(classes, mid) > s {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        }

        /// The analytic law of the killer's size: the mean over the
        /// quantiles of T of each class's share of the hazard.
        fn killer_law(classes: &[(usize, usize)]) -> Vec<f64> {
            const NODES: usize = 2000;
            let mut law = vec![0.0; classes.len()];
            for i in 0..NODES {
                let t = quantile(classes, 1.0 - (i as f64 + 0.5) / NODES as f64);
                let y = 1.0 - (-t / MTBF).exp();
                let weights: Vec<f64> = classes
                    .iter()
                    .map(|&(k, count)| {
                        count as f64 * k as f64 * y.powi(k as i32 - 1) / (1.0 - y.powi(k as i32))
                    })
                    .collect();
                let total: f64 = weights.iter().sum();
                for (p, w) in law.iter_mut().zip(&weights) {
                    *p += w / total / NODES as f64;
                }
            }
            law
        }

        /// What a sampler yields over many attempts: the failure times, a
        /// histogram of the killer's size and the masked values.
        #[derive(Default)]
        struct Sample {
            times: Vec<f64>,
            killers: Vec<u64>,
            at_failure: Vec<f64>,
            /// At the exposure, over the attempts that survive it.
            at_exposure: Vec<f64>,
        }

        impl Sample {
            fn record(&mut self, time: f64, killer: usize, at_failure: f64) {
                self.times.push(time);
                bump(&mut self.killers, killer);
                self.at_failure.push(at_failure);
            }
        }

        fn bump(histogram: &mut Vec<u64>, value: usize) {
            if histogram.len() <= value {
                histogram.resize(value + 1, 0);
            }
            histogram[value] += 1;
        }

        fn sample_source(groups: &ReplicaGroups, seed: u64, exposure: f64) -> Sample {
            let mut source = SphereSource::new(groups.clone(), MTBF, seed);
            let mut sample = Sample::default();
            for attempt in 0..ATTEMPTS {
                let time = source.next_failure(attempt);
                let killer = source.killer_size();
                sample.record(time, killer, source.masked_before(time));
                if time > exposure {
                    sample.at_exposure.push(source.masked_before(exposure));
                }
            }
            sample
        }

        /// The reference: a time for every process, the job rule on those
        /// times, and deaths counted by listing them.
        fn sample_reference(groups: &ReplicaGroups, seed: u64, exposure: f64) -> Sample {
            let mut sampler = ExpSampler::new(MTBF, seed);
            let mut sample = Sample::default();
            for _ in 0..REFERENCE_ATTEMPTS {
                let schedule = FailureSchedule::sample(groups.n_physical(), &mut sampler);
                let (time, killer) = schedule.job_failure(groups);
                let killer = groups.members(killer).len();
                sample.record(time, killer, (schedule.dead_by(time).len() - killer) as f64);
                if time > exposure {
                    sample.at_exposure.push(schedule.dead_by(exposure).len() as f64);
                }
            }
            sample
        }

        /// √n·D of the times against the law's CDF 1 − S(t).
        fn ks(times: &mut [f64], classes: &[(usize, usize)]) -> f64 {
            times.sort_by(f64::total_cmp);
            let n = times.len() as f64;
            let d = times.iter().enumerate().fold(0.0f64, |d, (i, &t)| {
                let cdf = 1.0 - survival(classes, t);
                d.max((i as f64 + 1.0) / n - cdf).max(cdf - i as f64 / n)
            });
            d * n.sqrt()
        }

        /// The two-sample χ² statistic and its degrees of freedom, over
        /// histograms whose bins are merged from the low end until each
        /// expects at least 5 draws of the smaller sample.
        fn chi2_two_sample(a: &[u64], b: &[u64]) -> (f64, usize) {
            let (na, nb) = (a.iter().sum::<u64>() as f64, b.iter().sum::<u64>() as f64);
            let least = 5.0 * (na + nb) / na.min(nb);
            let (mut bins, mut open) = (Vec::<(f64, f64)>::new(), (0.0, 0.0));
            for i in 0..a.len().max(b.len()) {
                open.0 += a.get(i).copied().unwrap_or(0) as f64;
                open.1 += b.get(i).copied().unwrap_or(0) as f64;
                if open.0 + open.1 >= least {
                    bins.push(std::mem::take(&mut open));
                }
            }
            // The thin tail joins the last bin.
            match bins.last_mut() {
                Some(last) => (last.0, last.1) = (last.0 + open.0, last.1 + open.1),
                None => bins.push(open),
            }
            let (ka, kb) = ((nb / na).sqrt(), (na / nb).sqrt());
            let stat = bins.iter().map(|&(x, y)| (ka * x - kb * y).powi(2) / (x + y)).sum();
            (stat, bins.len() - 1)
        }

        /// |Welch z| of the means of `a` and `b`: their difference over the
        /// standard error of that difference.
        fn welch_z(a: &[f64], b: &[f64]) -> f64 {
            let mean_and_var = |xs: &[f64]| {
                let n = xs.len() as f64;
                let mean = xs.iter().sum::<f64>() / n;
                (mean, xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0) / n)
            };
            let ((ma, va), (mb, vb)) = (mean_and_var(a), mean_and_var(b));
            (ma - mb).abs() / (va + vb).sqrt()
        }

        /// Checks every shape at `n` virtual processes; at `n ≤ 128` against
        /// the reference too. Prints one line of statistics per shape.
        fn check_shapes(n: u64) {
            let mut alarms = Vec::new();
            let mut check = |shape: &str, what: &str, stat: f64, critical: f64| {
                print!(" {what} {stat:.2}/{critical:.2}");
                if stat > critical {
                    alarms.push(format!("{shape}: {what} {stat} > {critical}"));
                }
            };
            for degree in DEGREES {
                let shape = format!("N = {n}, r = {degree}");
                let classes = classes(n, degree);
                let counts: Vec<usize> =
                    classes.iter().flat_map(|&(k, count)| std::iter::repeat_n(k, count)).collect();
                let groups = ReplicaGroups::from_counts(&counts);
                let seed = n * 1000 + (degree * 4.0) as u64;
                let exposure = quantile(&classes, 0.5);
                let mut sample = sample_source(&groups, seed, exposure);
                print!("{shape}:");
                check(&shape, "KS", ks(&mut sample.times, &classes), KS_LAMBDA);
                if classes.len() == 1 && classes[0].0 == 1 {
                    let masked = sample.at_failure.iter().chain(&sample.at_exposure);
                    assert!(masked.into_iter().all(|&m| m == 0.0), "{shape}: nothing is masked");
                } else if n <= 128 {
                    let reference = sample_reference(&groups, !seed, exposure);
                    let (stat, df) = chi2_two_sample(&sample.killers, &reference.killers);
                    if df > 0 {
                        check(&shape, "killer", stat, chi2_critical(df));
                    }
                    let means = [
                        ("masked at failure", &sample.at_failure, &reference.at_failure),
                        ("masked at exposure", &sample.at_exposure, &reference.at_exposure),
                    ];
                    for (what, a, b) in means {
                        check(&shape, what, welch_z(a, b), Z_TWO_SIDED);
                    }
                } else if classes.len() > 1 {
                    let law = killer_law(&classes);
                    let stat = classes
                        .iter()
                        .zip(&law)
                        .map(|(&(k, _), p)| {
                            let expected = p * ATTEMPTS as f64;
                            (sample.killers.get(k).map_or(0.0, |&c| c as f64) - expected).powi(2)
                                / expected
                        })
                        .sum();
                    check(&shape, "killer", stat, chi2_critical(classes.len() - 1));
                }
                println!();
            }
            assert!(alarms.is_empty(), "{alarms:#?}");
        }

        /// The conditional binomial's mean, from its pmf:
        /// Σ_{j<k} j·C(k, j)·yʲ(1 − y)^{k−j} over Σ_{j<k} C(k, j)·yʲ(1 − y)^{k−j}.
        fn conditional_mean_by_pmf(k: u32, y: f64) -> f64 {
            let (mut choose, mut weighted, mut total) = (1.0, 0.0, 0.0);
            for j in 0..k {
                let p = choose * y.powi(j as i32) * (1.0 - y).powi((k - j) as i32);
                weighted += f64::from(j) * p;
                total += p;
                choose *= f64::from(k - j) / f64::from(j + 1);
            }
            weighted / total
        }

        #[test]
        fn masked_mean_is_the_conditional_binomial_mean() {
            for k in [2, 3, 4] {
                for y in [0.0, 1e-12, 1e-3, 0.3, 0.9, 1.0] {
                    // At y = 1 the pmf sum is 0/0; its limit is k − 1, all
                    // but the one live member.
                    let exact =
                        if y == 1.0 { f64::from(k - 1) } else { conditional_mean_by_pmf(k, y) };
                    let mean = masked_mean(k, y);
                    assert!(
                        (mean - exact).abs() <= 1e-13 * exact,
                        "k = {k}, y = {y}: {mean} against {exact}"
                    );
                }
            }
        }

        #[test]
        fn sphere_source_follows_the_law_at_4() {
            check_shapes(4);
        }

        #[test]
        fn sphere_source_follows_the_law_at_128() {
            check_shapes(128);
        }

        #[test]
        fn sphere_source_follows_the_law_at_4096() {
            check_shapes(4096);
        }
    }
}
