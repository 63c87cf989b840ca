//! The metrics plane is a fold over the events: replaying a traced run's
//! events through a fresh registry must give back the run's own metrics,
//! except for the four values no event carries. A metric bumped with no
//! event behind it makes the replay come up short.

use std::collections::BTreeMap;

use redcr_core::ExecutionReport;
use redcr_metrics::{CounterKey, GaugeKey, HistKey, MetricsRegistry, MetricsReport, RankMetrics};
use redcr_trace::EventKind;

/// The histograms of values no event carries: a message's latency (its
/// send time), a vote's (its gather start) and the executor ledger's
/// degraded intervals. With the ledger's masked deaths, these are the
/// four metrics stated directly rather than folded.
const NOT_IN_EVENTS: [HistKey; 3] =
    [HistKey::MessageLatency, HistKey::VoteLatency, HistKey::DegradedInterval];

/// Whether the executor driver states events of this kind (rank-less,
/// through `Sinks::event`) rather than a rank through its handle.
fn from_the_driver(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::Topology { .. }
            | EventKind::AttemptStart { .. }
            | EventKind::Injected { .. }
            | EventKind::HeartbeatMiss { .. }
            | EventKind::RespawnBegin { .. }
            | EventKind::RespawnCommit { .. }
            | EventKind::RejoinVote { .. }
            | EventKind::AttemptEnd { .. }
    )
}

/// Folds `report`'s trace into a fresh registry on the run's scrape grid:
/// rank events into per-rank shards, each absorbed at the `RankFinish`
/// that closes its rank's segment, and driver events rank-less.
fn replay<S>(report: &ExecutionReport<S>, interval: f64) -> MetricsReport {
    let registry = MetricsRegistry::new(interval);
    let mut shards: BTreeMap<u32, RankMetrics> = BTreeMap::new();
    for e in report.trace.as_ref().expect("the run was traced").events() {
        if from_the_driver(&e.kind) {
            registry.fold(e.time, &e.kind);
            continue;
        }
        let rank = e.rank.expect("a rank event names its rank");
        let shard = shards.entry(rank).or_insert_with(|| registry.shard(rank));
        shard.fold(e.time, &e.kind);
        if matches!(e.kind, EventKind::RankFinish { .. }) {
            registry.absorb(shard.drain());
        }
    }
    for (rank, shard) in &shards {
        let rest = shard.drain().counters;
        assert_eq!(rest, [0; CounterKey::COUNT], "rank {rank}'s events end in a RankFinish");
    }
    registry.report()
}

/// Asserts that `report`'s metrics are its trace folded: every counter
/// total, per-rank counter, scrape point and histogram (count and sum
/// bits) and the gauge, but for the four metrics no event carries.
pub fn assert_metrics_fold_the_trace<S>(what: &str, report: &ExecutionReport<S>) {
    let live = report.metrics.as_ref().expect("metrics were on");
    let folded = replay(report, live.scrape_interval);
    let masked = CounterKey::MaskedFailures;
    let (want, got) = (&live.totals, &folded.totals);
    for key in CounterKey::ALL {
        let expected = if key == masked { 0 } else { want.counter(key) };
        assert_eq!(got.counter(key), expected, "{what}: {}", key.name());
    }
    assert_eq!(folded.per_rank, live.per_rank, "{what}: per-rank counters");
    assert_eq!(folded.series.len(), live.series.len(), "{what}: scrape points");
    for (g, w) in folded.series.iter().zip(&live.series) {
        let mut counters = w.counters;
        counters[masked as usize] = 0;
        assert_eq!(g.time.to_bits(), w.time.to_bits(), "{what}: scrape grid");
        assert_eq!(g.counters, counters, "{what}: scrape point at t={}", w.time);
    }
    for key in HistKey::ALL {
        let (g, w) = (got.histogram(key), want.histogram(key));
        if NOT_IN_EVENTS.contains(&key) {
            assert_eq!(g.observations(), 0, "{what}: {} is in no event", key.name());
        } else {
            assert_eq!(g, w, "{what}: {}", key.name());
            assert_eq!(g.sum().to_bits(), w.sum().to_bits(), "{what}: {} sum", key.name());
        }
    }
    let clock = |m: &MetricsReport| m.totals.gauge(GaugeKey::VirtualTime).map(f64::to_bits);
    assert_eq!(clock(&folded), clock(live), "{what}: virtual-time gauge");
}
