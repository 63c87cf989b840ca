//! Failure schedules: sampled per-process death times and the sphere
//! structure that decides when the *job* (rather than a process) fails.

use crate::poisson::ExpSampler;

/// The virtual→physical grouping: `groups[v]` lists the physical process
/// ids forming virtual process `v`'s replica sphere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaGroups {
    groups: Vec<Vec<usize>>,
    n_physical: usize,
}

impl ReplicaGroups {
    /// Builds groups from explicit member lists.
    ///
    /// # Panics
    ///
    /// Panics if the lists do not form a partition of `0..n_physical`
    /// (every physical id appearing exactly once), or any group is empty.
    pub fn new(groups: Vec<Vec<usize>>) -> Self {
        let n_physical: usize = groups.iter().map(Vec::len).sum();
        let mut seen = vec![false; n_physical];
        for g in &groups {
            assert!(!g.is_empty(), "every virtual process needs at least one replica");
            for &p in g {
                assert!(p < n_physical, "physical id {p} out of range {n_physical}");
                assert!(!seen[p], "physical id {p} appears in two spheres");
                seen[p] = true;
            }
        }
        ReplicaGroups { groups, n_physical }
    }

    /// Uniform redundancy: `n_virtual` spheres of exactly `replicas`
    /// members, laid out like the replication layer: the
    /// [`from_counts`](Self::from_counts) layout with every count equal.
    ///
    /// # Panics
    ///
    /// Panics if `n_virtual == 0` or `replicas == 0`.
    pub fn uniform(n_virtual: usize, replicas: usize) -> Self {
        Self::from_counts(&vec![replicas; n_virtual])
    }

    /// Builds groups from per-virtual replica counts (partial redundancy),
    /// using the primaries-then-shadows layout.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty or contains a zero.
    pub fn from_counts(counts: &[usize]) -> Self {
        assert!(!counts.is_empty());
        let n_virtual = counts.len();
        let mut groups: Vec<Vec<usize>> = (0..n_virtual).map(|v| vec![v]).collect();
        let mut next = n_virtual;
        for (v, &c) in counts.iter().enumerate() {
            assert!(c > 0, "virtual process {v} needs at least one replica");
            for _ in 1..c {
                groups[v].push(next);
                next += 1;
            }
        }
        ReplicaGroups { groups, n_physical: next }
    }

    /// Number of virtual processes (spheres).
    pub fn n_virtual(&self) -> usize {
        self.groups.len()
    }

    /// Total number of physical processes.
    pub fn n_physical(&self) -> usize {
        self.n_physical
    }

    /// The member physical ids of sphere `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn members(&self, v: usize) -> &[usize] {
        &self.groups[v]
    }

    /// Iterates over spheres.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.groups.iter().map(Vec::as_slice)
    }

    /// The one job-failure rule: a sphere dies with the **last** of its
    /// members, and the job dies with the **first** sphere to do so.
    /// `death_of` gives a process's death time, or `None` to leave the
    /// process out of its sphere (a sphere with nobody left in is skipped).
    /// Returns `(time, sphere, last member to die)`, ties going to the
    /// lower sphere and the earlier replica, or `None` if no sphere ever
    /// dies.
    pub fn first_sphere_death(
        &self,
        death_of: impl Fn(usize) -> Option<f64>,
    ) -> Option<(f64, usize, usize)> {
        let later = |a: (f64, usize), b: (f64, usize)| if b.0 > a.0 { b } else { a };
        self.iter()
            .enumerate()
            .filter_map(|(v, members)| {
                let (t, p) =
                    members.iter().filter_map(|&p| Some((death_of(p)?, p))).reduce(later)?;
                t.is_finite().then_some((t, v, p))
            })
            .reduce(|first, next| if next.0 < first.0 { next } else { first })
    }
}

/// One attempt's sampled failure times.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureSchedule {
    /// `death_time[p]`: seconds (relative to attempt start) at which
    /// physical process `p` fail-stops. Always finite: under a Poisson
    /// process every node eventually fails.
    pub death_times: Vec<f64>,
}

impl FailureSchedule {
    /// Samples a schedule for `n_physical` processes with per-process MTBF
    /// `mtbf` (seconds) from `sampler`.
    pub fn sample(n_physical: usize, sampler: &mut ExpSampler) -> Self {
        FailureSchedule { death_times: (0..n_physical).map(|_| sampler.sample()).collect() }
    }

    /// The earliest individual process failure.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty.
    pub fn first_process_failure(&self) -> f64 {
        self.death_times.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The time at which the **job** fails: the minimum over spheres of the
    /// sphere's death time, where a sphere dies when its *last* replica
    /// dies. Returns `(time, sphere_index)`; for a failure-free schedule
    /// (infinite death times) the time is `INFINITY` and the sphere index
    /// is the sentinel `usize::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `groups` references physical ids outside this schedule.
    pub fn job_failure(&self, groups: &ReplicaGroups) -> (f64, usize) {
        assert_eq!(groups.n_physical(), self.death_times.len());
        groups
            .first_sphere_death(|p| Some(self.death_times[p]))
            .map_or((f64::INFINITY, usize::MAX), |(time, sphere, _)| (time, sphere))
    }

    /// Physical processes dead by time `t`.
    pub fn dead_by(&self, t: f64) -> Vec<usize> {
        self.death_times.iter().enumerate().filter(|(_, d)| **d <= t).map(|(p, _)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_groups_layout() {
        let g = ReplicaGroups::uniform(3, 2);
        assert_eq!(g.n_virtual(), 3);
        assert_eq!(g.n_physical(), 6);
        assert_eq!(g.members(0), &[0, 3]);
        assert_eq!(g.members(2), &[2, 5]);
        // At three replicas too: a sphere's shadows sit next to each
        // other, after every primary, as the replication layer has them.
        for n in [1, 3, 8] {
            assert_eq!(ReplicaGroups::uniform(n, 3), ReplicaGroups::from_counts(&vec![3; n]));
        }
        assert_eq!(ReplicaGroups::uniform(3, 3).members(0), &[0, 3, 4]);
    }

    #[test]
    fn from_counts_partial() {
        // 1.5x over 4: evens get 2 replicas.
        let g = ReplicaGroups::from_counts(&[2, 1, 2, 1]);
        assert_eq!(g.n_physical(), 6);
        assert_eq!(g.members(0), &[0, 4]);
        assert_eq!(g.members(1), &[1]);
        assert_eq!(g.members(2), &[2, 5]);
    }

    #[test]
    #[should_panic(expected = "two spheres")]
    fn overlapping_groups_rejected() {
        let _ = ReplicaGroups::new(vec![vec![0, 1], vec![1]]);
    }

    #[test]
    fn job_failure_needs_whole_sphere() {
        let groups = ReplicaGroups::uniform(2, 2); // spheres {0,2} {1,3}
        let sched = FailureSchedule { death_times: vec![1.0, 100.0, 50.0, 2.0] };
        // Sphere 0 dies at max(1, 50) = 50; sphere 1 at max(100, 2) = 100.
        let (t, sphere) = sched.job_failure(&groups);
        assert_eq!(t, 50.0);
        assert_eq!(sphere, 0);
        assert_eq!(sched.first_process_failure(), 1.0);
    }

    #[test]
    fn no_redundancy_job_fails_at_first_failure() {
        let groups = ReplicaGroups::uniform(4, 1);
        let sched = FailureSchedule { death_times: vec![9.0, 3.0, 7.0, 5.0] };
        let (t, sphere) = sched.job_failure(&groups);
        assert_eq!(t, 3.0);
        assert_eq!(sphere, 1);
    }

    #[test]
    fn dead_by_filters() {
        let sched = FailureSchedule { death_times: vec![1.0, 5.0, 3.0] };
        assert_eq!(sched.dead_by(0.5), Vec::<usize>::new());
        assert_eq!(sched.dead_by(3.0), vec![0, 2]);
        assert_eq!(sched.dead_by(10.0), vec![0, 1, 2]);
    }

    #[test]
    fn redundancy_extends_expected_job_lifetime() {
        // Statistical check across seeds: dual redundancy survives far
        // longer than no redundancy on the same cluster size.
        let mut sum1 = 0.0;
        let mut sum2 = 0.0;
        for seed in 0..200 {
            let mut s = ExpSampler::new(100.0, seed);
            let sched1 = FailureSchedule::sample(16, &mut s);
            sum1 += sched1.job_failure(&ReplicaGroups::uniform(16, 1)).0;
            let sched2 = FailureSchedule::sample(16, &mut s);
            sum2 += sched2.job_failure(&ReplicaGroups::uniform(8, 2)).0;
        }
        assert!(
            sum2 > 3.0 * sum1,
            "dual-redundant lifetime {sum2} should dwarf 1x lifetime {sum1}"
        );
    }
}
