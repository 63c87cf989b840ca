//! Execution reports.

use std::fmt;

use redcr_fault::FailureTrace;
use redcr_red::stats::StatsSnapshot;

/// Everything a resilient execution produced.
#[derive(Debug)]
pub struct ExecutionReport<S> {
    /// Total simulated wallclock, virtual seconds (across all attempts,
    /// restarts and checkpoints).
    pub total_virtual_time: f64,
    /// Attempts performed (1 = failure-free).
    pub attempts: u64,
    /// Job failures endured (sphere deaths).
    pub failures: u64,
    /// Individual process fail-stops that were **masked** by redundancy:
    /// the process died but its sphere kept at least one live replica, so
    /// the attempt did not have to restart because of it.
    ///
    /// The rule, per attempt ([`redcr_mpi::trace::heal::masked`]): a
    /// completed attempt masked every scheduled death up to its end; a
    /// failed one masked every death up to the job failure — the killing
    /// death's own time, inclusive — except one per member of the killer
    /// sphere. So over a run, the non-killing events of
    /// [`failure_trace`](Self::failure_trace) number `masked_failures`
    /// plus, per failed attempt, the killer sphere's size minus one.
    pub masked_failures: u64,
    /// Total virtual seconds spheres spent running **degraded** (at least
    /// one replica dead but the sphere still alive), summed over spheres
    /// and attempts.
    pub degraded_sphere_seconds: f64,
    /// Coordinated checkpoints committed in the final (successful) attempt
    /// history.
    pub checkpoints_committed: u64,
    /// Replicas respawned and rejoined by the self-healing layer, across
    /// all attempts. Zero unless
    /// [`ExecutorConfig::heal_policy`](crate::ExecutorConfig::heal_policy)
    /// heals.
    pub respawns: u64,
    /// Total heal latency, virtual seconds: for each respawn, the span
    /// from the replica's death to its rejoin commit, summed across all
    /// attempts.
    pub heal_latency_seconds: f64,
    /// Recovered voting-seconds: virtual seconds healed spheres spent back
    /// at full voting strength that they would have spent degraded (or
    /// dead) without healing, summed across all attempts.
    pub recovered_voting_seconds: f64,
    /// Aggregated replication-layer statistics across all attempts.
    pub replication: StatsSnapshot,
    /// Physical messages injected across all attempts.
    pub physical_messages: u64,
    /// Physical payload bytes injected.
    pub physical_bytes: u64,
    /// Physical processes used per attempt.
    pub n_physical: usize,
    /// Resource usage: physical processes × total time.
    pub node_seconds: f64,
    /// The failure injector's event log.
    pub failure_trace: FailureTrace,
    /// The flight-recorder trace, present iff
    /// [`ExecutorConfig::tracing`](crate::ExecutorConfig::tracing) was set.
    /// Feed it to [`redcr_mpi::trace::Analysis::analyze`] to rebuild
    /// per-attempt timelines and derived quantities.
    pub trace: Option<redcr_mpi::trace::Trace>,
    /// The metrics report (totals, per-rank counters and the scraped
    /// virtual-time series), present iff
    /// [`ExecutorConfig::metrics`](crate::ExecutorConfig::metrics) was set.
    pub metrics: Option<redcr_mpi::metrics::MetricsReport>,
    /// The wall-clock self-profile (per-scope span totals, counters and
    /// sampled tracks), present iff
    /// [`ExecutorConfig::profiling`](crate::ExecutorConfig::profiling) was
    /// set. Host-clock observations of the simulator itself; contains no
    /// virtual time and never influences it.
    pub profile: Option<redcr_mpi::prof::ProfReport>,
    /// Final application state of each virtual rank (primary replicas).
    pub final_states: Vec<S>,
}

impl<S> ExecutionReport<S> {
    /// Simulated wallclock in virtual hours.
    pub fn total_hours(&self) -> f64 {
        self.total_virtual_time / 3600.0
    }

    /// A one-screen human-readable summary: the [`Display`](fmt::Display)
    /// block plus, when the metrics plane ran, a compact metrics section
    /// (votes, checkpoint commit latency, message latency with
    /// p50/p90/p99 quantile estimates), plus, when the profiler ran, a
    /// one-line wall-clock parking summary.
    pub fn summarize(&self) -> String {
        use redcr_mpi::metrics::{CounterKey, HistKey};
        let mut out = self.to_string();
        if let Some(m) = &self.metrics {
            let t = &m.totals;
            out.push('\n');
            out.push_str(&format!(
                "  metrics          : {} sends / {} recvs across {} ranks ({} samples @ {} s)\n",
                t.counter(CounterKey::Sends),
                t.counter(CounterKey::Recvs),
                m.per_rank.len(),
                m.series.len(),
                m.scrape_interval,
            ));
            out.push_str(&format!(
                "  votes / commits  : {} votes (mean {:.3e} s), {} commits (mean {:.3e} s)\n",
                t.counter(CounterKey::Votes),
                t.histogram(HistKey::VoteLatency).mean(),
                t.counter(CounterKey::CheckpointCommits),
                t.histogram(HistKey::CommitLatency).mean(),
            ));
            let lat = t.histogram(HistKey::MessageLatency);
            out.push_str(&format!(
                "  message latency  : mean {:.3e} s over {} receives",
                lat.mean(),
                lat.count(),
            ));
            if let (Some(p50), Some(p90), Some(p99)) =
                (lat.quantile(0.5), lat.quantile(0.9), lat.quantile(0.99))
            {
                out.push_str(&format!(
                    "\n  latency quantiles: p50 {p50:.3e} s, p90 {p90:.3e} s, p99 {p99:.3e} s",
                ));
            }
        }
        if let Some(p) = &self.profile {
            out.push('\n');
            out.push_str("  profile          : ");
            out.push_str(&p.park_summary());
            out.push('\n');
            out.push_str("  scheduler        : ");
            out.push_str(&p.sched_summary());
        }
        out
    }
}

impl<S> fmt::Display for ExecutionReport<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "resilient execution report")?;
        writeln!(f, "  wallclock        : {:.3} virtual s", self.total_virtual_time)?;
        writeln!(f, "  attempts         : {} ({} failures)", self.attempts, self.failures)?;
        writeln!(
            f,
            "  masked failures  : {} ({:.3} degraded sphere-seconds)",
            self.masked_failures, self.degraded_sphere_seconds
        )?;
        writeln!(f, "  checkpoints      : {}", self.checkpoints_committed)?;
        if self.respawns > 0 {
            writeln!(
                f,
                "  respawns         : {} ({:.3} s heal latency, {:.3} s recovered voting)",
                self.respawns, self.heal_latency_seconds, self.recovered_voting_seconds
            )?;
        }
        writeln!(f, "  physical procs   : {}", self.n_physical)?;
        writeln!(f, "  node-seconds     : {:.3}", self.node_seconds)?;
        writeln!(
            f,
            "  phys messages    : {} ({} bytes)",
            self.physical_messages, self.physical_bytes
        )?;
        write!(
            f,
            "  msg amplification: {:.2}x, votes {} (mismatches {})",
            self.replication.send_amplification(),
            self.replication.votes,
            self.replication.mismatches_detected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_numbers() {
        let report: ExecutionReport<()> = ExecutionReport {
            total_virtual_time: 12.5,
            attempts: 3,
            failures: 2,
            masked_failures: 1,
            degraded_sphere_seconds: 0.5,
            checkpoints_committed: 4,
            respawns: 2,
            heal_latency_seconds: 1.25,
            recovered_voting_seconds: 3.5,
            replication: StatsSnapshot::default(),
            physical_messages: 100,
            physical_bytes: 1000,
            n_physical: 8,
            node_seconds: 100.0,
            failure_trace: FailureTrace::new(),
            trace: None,
            metrics: None,
            profile: None,
            final_states: vec![],
        };
        let s = report.to_string();
        assert!(s.contains("attempts"));
        assert!(s.contains('3'));
        assert!(s.contains("respawns"));
        assert!(s.contains("1.250"));
        assert!((report.total_hours() - 12.5 / 3600.0).abs() < 1e-15);
        // Without metrics, summarize() is exactly the Display block.
        assert_eq!(report.summarize(), s);
    }
}
