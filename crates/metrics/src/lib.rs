//! # redcr-metrics — a virtual-time metrics plane for the redcr stack
//!
//! Monotonic counters, gauges and log2-bucketed histograms, collected the
//! same way the flight recorder and the replication statistics are: each
//! rank thread owns a lock-free [`RankMetrics`] shard (plain `Cell`s on the
//! hot path — no atomics, no locks, nothing that grows per increment),
//! minted by and drained into a shared [`MetricsRegistry`] exactly once at
//! rank teardown. Layers above
//! the runtime reach the shard through the rank's telemetry handle
//! (`Communicator::obs()`, shared with the recorder and the profiler), so
//! when metrics are off the entire plane costs one `Option` check per
//! site.
//!
//! Counter increments carry their **virtual-time** stamp, and the scrape
//! grid's spacing is fixed when the registry is built, so an increment is
//! added straight into the grid cell `((k−1)·interval, k·interval]` its
//! stamp falls in: a shard holds one `[u64; CounterKey::COUNT]` per cell it
//! touched, the registry merges cells by `k`, and
//! [`MetricsRegistry::scrape`] is a running sum over them — a monotone time
//! series at a fixed virtual-second cadence whose final sample equals the
//! drained totals exactly. The increments themselves are not kept: the
//! flight recorder is the per-event log, this plane is a fold.
//!
//! Nothing in this crate advances a virtual clock: enabling metrics never
//! changes what a run computes, only what it reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod registry;
mod shard;

pub use histogram::Histogram;
pub use registry::{MetricsRegistry, MetricsReport, MetricsSnapshot, ScrapePoint};
pub use shard::{GridCell, RankDrain, RankMetrics};

/// Monotonic counters tracked per rank and in the registry totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterKey {
    /// Physical point-to-point messages sent.
    Sends,
    /// Physical point-to-point messages received.
    Recvs,
    /// Physical payload bytes sent.
    BytesSent,
    /// Physical payload bytes received.
    BytesReceived,
    /// Rank fail-stops observed (each rank records its own death once).
    Deaths,
    /// Receive-path votes over redundant copies.
    Votes,
    /// Wildcard-receive leader failovers.
    Failovers,
    /// Coordinated checkpoints committed (post-barrier, per rank).
    CheckpointCommits,
    /// Checkpoint restores performed.
    Restores,
    /// Execution attempts started.
    Attempts,
    /// Restarts (failed attempts).
    Restarts,
    /// Process deaths masked by redundancy.
    MaskedFailures,
    /// Replicas respawned and rejoined by the self-healing layer.
    Respawns,
    /// Heartbeat suspicion deadlines that elapsed (dead replicas detected).
    Suspicions,
}

impl CounterKey {
    /// Number of counter keys.
    pub const COUNT: usize = Self::ALL.len();

    /// Every counter key, in declaration (= index) order.
    pub const ALL: [CounterKey; 14] = [
        CounterKey::Sends,
        CounterKey::Recvs,
        CounterKey::BytesSent,
        CounterKey::BytesReceived,
        CounterKey::Deaths,
        CounterKey::Votes,
        CounterKey::Failovers,
        CounterKey::CheckpointCommits,
        CounterKey::Restores,
        CounterKey::Attempts,
        CounterKey::Restarts,
        CounterKey::MaskedFailures,
        CounterKey::Respawns,
        CounterKey::Suspicions,
    ];

    /// Stable snake_case name (used in exports and reports).
    pub fn name(self) -> &'static str {
        match self {
            CounterKey::Sends => "sends_total",
            CounterKey::Recvs => "recvs_total",
            CounterKey::BytesSent => "bytes_sent_total",
            CounterKey::BytesReceived => "bytes_received_total",
            CounterKey::Deaths => "deaths_total",
            CounterKey::Votes => "votes_total",
            CounterKey::Failovers => "failovers_total",
            CounterKey::CheckpointCommits => "checkpoint_commits_total",
            CounterKey::Restores => "restores_total",
            CounterKey::Attempts => "attempts_total",
            CounterKey::Restarts => "restarts_total",
            CounterKey::MaskedFailures => "masked_failures_total",
            CounterKey::Respawns => "respawns_total",
            CounterKey::Suspicions => "suspicions_total",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Last-value gauges (merged by latest virtual-time stamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GaugeKey {
    /// The rank's virtual clock at teardown, seconds.
    VirtualTime,
}

impl GaugeKey {
    /// Number of gauge keys.
    pub const COUNT: usize = Self::ALL.len();

    /// Every gauge key, in declaration (= index) order.
    pub const ALL: [GaugeKey; 1] = [GaugeKey::VirtualTime];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            GaugeKey::VirtualTime => "virtual_time_seconds",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Log2-bucketed histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistKey {
    /// Virtual seconds from message injection to receive completion.
    MessageLatency,
    /// Payload size of sent messages, bytes.
    PayloadSize,
    /// Virtual seconds one receive-path vote took (gather + compare).
    VoteLatency,
    /// Virtual seconds from checkpoint begin to post-barrier commit.
    CommitLatency,
    /// Length of one sphere's degraded interval, virtual seconds.
    DegradedInterval,
    /// Heal latency: virtual seconds from a replica's death to its
    /// respawned incarnation's rejoin commit.
    HealLatency,
}

impl HistKey {
    /// Number of histogram keys.
    pub const COUNT: usize = Self::ALL.len();

    /// Every histogram key, in declaration (= index) order.
    pub const ALL: [HistKey; 6] = [
        HistKey::MessageLatency,
        HistKey::PayloadSize,
        HistKey::VoteLatency,
        HistKey::CommitLatency,
        HistKey::DegradedInterval,
        HistKey::HealLatency,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            HistKey::MessageLatency => "message_latency_seconds",
            HistKey::PayloadSize => "payload_size_bytes",
            HistKey::VoteLatency => "vote_latency_seconds",
            HistKey::CommitLatency => "commit_latency_seconds",
            HistKey::DegradedInterval => "degraded_interval_seconds",
            HistKey::HealLatency => "heal_latency_seconds",
        }
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_indices_are_dense_and_distinct() {
        let mut seen = [false; CounterKey::COUNT];
        for k in CounterKey::ALL {
            assert!(!seen[k.index()], "duplicate index for {k:?}");
            seen[k.index()] = true;
            assert!(!k.name().is_empty());
        }
        assert!(seen.iter().all(|&s| s));
        // `index` is the declaration position, so `ALL` must list the
        // variants in declaration order.
        for (i, k) in CounterKey::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        for (i, k) in HistKey::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        for (i, k) in GaugeKey::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
