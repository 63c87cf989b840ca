//! Simulation outcomes: the four-bucket time breakdown of the paper's
//! Table 2 (work / checkpoint / recompute / restart).

/// Where a finished job's time went.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobStats {
    /// Total wallclock, `T_total`.
    pub total_time: f64,
    /// Time spent executing *new* work (sums to the job's work amount).
    pub work_time: f64,
    /// Time spent writing checkpoints (including partial, failed ones).
    pub checkpoint_time: f64,
    /// Time spent re-executing work lost to failures.
    pub recompute_time: f64,
    /// Time spent in restart phases (including partial ones).
    pub restart_time: f64,
    /// Number of failures endured.
    pub failures: u64,
    /// Expected masked deaths given this run's failure times: individual
    /// process deaths absorbed by redundancy (a replica died but its sphere
    /// survived, so the job did not restart). Sources without process
    /// granularity report 0.
    pub masked_failures: f64,
    /// Number of checkpoints committed.
    pub checkpoints: u64,
    /// Number of attempts (1 = failure-free).
    pub attempts: u64,
}

impl JobStats {
    /// Fraction of total time in each bucket:
    /// `(work, checkpoint, recompute, restart)` — the paper's Table 2 rows.
    pub fn breakdown(&self) -> (f64, f64, f64, f64) {
        if self.total_time == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.work_time / self.total_time,
            self.checkpoint_time / self.total_time,
            self.recompute_time / self.total_time,
            self.restart_time / self.total_time,
        )
    }

    /// The C/R efficiency: useful work over total time (the "useful vs
    /// scheduled machine time" ratio of the paper's introduction).
    pub fn efficiency(&self) -> f64 {
        if self.total_time == 0.0 {
            0.0
        } else {
            self.work_time / self.total_time
        }
    }

    /// Internal consistency: the buckets must sum to the total.
    pub fn is_consistent(&self) -> bool {
        let sum = self.work_time + self.checkpoint_time + self.recompute_time + self.restart_time;
        (sum - self.total_time).abs() <= 1e-6 * self.total_time.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_fractions() {
        let s = JobStats {
            total_time: 100.0,
            work_time: 35.0,
            checkpoint_time: 20.0,
            recompute_time: 10.0,
            restart_time: 35.0,
            failures: 5,
            masked_failures: 2.0,
            checkpoints: 10,
            attempts: 6,
        };
        let (w, c, r, rs) = s.breakdown();
        assert_eq!((w, c, r, rs), (0.35, 0.2, 0.1, 0.35));
        assert!(s.is_consistent());
        assert_eq!(s.efficiency(), 0.35);
    }

    #[test]
    fn zero_total_guard() {
        let s = JobStats::default();
        assert_eq!(s.breakdown(), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(s.efficiency(), 0.0);
    }
}
