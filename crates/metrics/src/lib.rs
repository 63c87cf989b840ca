//! # redcr-metrics — a virtual-time metrics plane for the redcr stack
//!
//! Monotonic counters, gauges and log2-bucketed histograms, folded from the
//! flight recorder's events. Each rank thread owns a lock-free
//! [`RankMetrics`] shard (plain `Cell`s on the hot path — no atomics, no
//! locks, nothing that grows per event), minted by and drained into a
//! shared [`MetricsRegistry`] exactly once at rank teardown. A layer states
//! what happened once, as an event on the rank's telemetry handle
//! (`Communicator::obs()`, shared with the recorder and the profiler); the
//! handle passes it to [`RankMetrics::fold`], the one `match` that maps an
//! event kind to the metrics it stands for. The executor driver's events
//! fold the same way into the registry's rank-less shard
//! ([`MetricsRegistry::fold`]). Four values that no event carries — a
//! message's and a vote's latency, the masked deaths and degraded
//! intervals of the executor's heal ledger — are recorded directly with
//! [`RankMetrics::observe`], [`MetricsRegistry::add`] and
//! [`MetricsRegistry::observe`]. When metrics are off the plane costs one
//! `Option` check per event.
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

/// Declares a key enum: its variants in index order, with `ALL`, `COUNT`
/// and a stable snake_case `name` (used in exports and reports) for each.
macro_rules! keys {
    ($(#[$doc:meta])* $key:ident { $($(#[$vdoc:meta])* $variant:ident => $name:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $key {
            $($(#[$vdoc])* $variant,)+
        }

        impl $key {
            /// Every key, in declaration (= index) order.
            pub const ALL: [$key; [$($name),+].len()] = [$($key::$variant),+];
            /// Number of keys.
            pub const COUNT: usize = Self::ALL.len();

            /// Stable snake_case name.
            pub fn name(self) -> &'static str {
                match self {
                    $($key::$variant => $name,)+
                }
            }

            pub(crate) fn index(self) -> usize {
                self as usize
            }
        }
    };
}

keys! {
    /// Monotonic counters tracked per rank and in the registry totals.
    CounterKey {
        /// Physical point-to-point messages sent.
        Sends => "sends_total",
        /// Physical point-to-point messages received.
        Recvs => "recvs_total",
        /// Physical payload bytes sent.
        BytesSent => "bytes_sent_total",
        /// Physical payload bytes received.
        BytesReceived => "bytes_received_total",
        /// Rank fail-stops observed (each rank records its own death once).
        Deaths => "deaths_total",
        /// Receive-path votes over redundant copies.
        Votes => "votes_total",
        /// Wildcard-receive leader failovers.
        Failovers => "failovers_total",
        /// Coordinated checkpoints committed (post-barrier, per rank).
        CheckpointCommits => "checkpoint_commits_total",
        /// Checkpoint restores performed.
        Restores => "restores_total",
        /// Execution attempts started.
        Attempts => "attempts_total",
        /// Restarts (failed attempts).
        Restarts => "restarts_total",
        /// Process deaths masked by redundancy.
        MaskedFailures => "masked_failures_total",
        /// Replicas respawned and rejoined by the self-healing layer.
        Respawns => "respawns_total",
        /// Heartbeat suspicion deadlines that elapsed (dead replicas detected).
        Suspicions => "suspicions_total",
    }
}

keys! {
    /// Last-value gauges (merged by latest virtual-time stamp).
    GaugeKey {
        /// The rank's virtual clock at teardown, seconds.
        VirtualTime => "virtual_time_seconds",
    }
}

keys! {
    /// Log2-bucketed histograms.
    HistKey {
        /// Virtual seconds from message injection to receive completion.
        MessageLatency => "message_latency_seconds",
        /// Payload size of sent messages, bytes.
        PayloadSize => "payload_size_bytes",
        /// Virtual seconds one receive-path vote took (gather + compare).
        VoteLatency => "vote_latency_seconds",
        /// Virtual seconds from checkpoint begin to post-barrier commit.
        CommitLatency => "commit_latency_seconds",
        /// Length of one sphere's degraded interval, virtual seconds.
        DegradedInterval => "degraded_interval_seconds",
        /// Heal latency: virtual seconds from a replica's death to its
        /// respawned incarnation's rejoin commit.
        HealLatency => "heal_latency_seconds",
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
