//! Telemetry: the three world-shared sinks and the one per-rank handle.
//!
//! [`Sinks`] bundles the flight-recorder [`Collector`], the
//! [`MetricsRegistry`] and the wall-clock [`Profiler`], each optional.
//! Builders and the executor driver hold one. Every rank task mints one
//! [`Obs`] from it: rank-local shards (plain `Cell`/`Vec` updates, no locks
//! or atomics) for exactly the sinks that are on — the recorder encodes
//! one event per call, in 11–13 bytes for the common kinds, into a
//! fixed-capacity byte chunk; the metrics shard grows only with the
//! scrape-grid cells it touches (the registry mints it, so it folds onto
//! the registry's grid) and resolves an event's cell with no division
//! while the stamps stay in one cell; the profile shard counts every span
//! and reads the host clock for about one in sixteen. Layers reach the
//! handle through [`Communicator::obs`](crate::Communicator::obs) and state
//! what happened once: `obs.event(t, kind)` hands the one event to the
//! recorder and to the metrics shard, which folds it into the counters,
//! gauge and histograms it stands for, and `obs.span(key)` times host
//! work. A sink that is off costs one predictable branch. The one other
//! metrics door, [`Obs::observe`], is for the two latencies no event
//! carries. Nothing here advances a virtual clock, so a run computes the
//! same bits with any sink on or off.
//!
//! # Absorb order
//!
//! A rank's handle is drained exactly once, at rank teardown
//! ([`Sinks::drain`]). The profile shard merges into its sink right there,
//! inside the task: that merge is order-independent. Trace events and the
//! metrics shard's records are *returned* instead — the event chunks
//! themselves, which the collector adopts, so an event is never copied —
//! and the world absorbs them after the batch in rank order
//! ([`Sinks::absorb`]): task teardown order depends on host scheduling,
//! and neither the collected trace nor a histogram's floating-point sum
//! may. Driver-level records ([`Sinks::event`]) go to the shared sinks
//! directly, so they bracket each segment's rank events.

use std::sync::Arc;

use redcr_metrics::{CounterKey as MetricKey, HistKey, MetricsRegistry, RankDrain, RankMetrics};
use redcr_prof::{
    CounterKey as ProfCounter, ProfScope, Profiler, RankProf, SpanGuard, SpanKey, TrackKey,
};
use redcr_trace::{Collector, EventKind, Recorder, Trace};

/// The world-shared telemetry sinks; `None` means that plane is off.
#[derive(Debug, Clone, Default)]
pub struct Sinks {
    /// Flight recorder (virtual-time events).
    pub trace: Option<Arc<Collector>>,
    /// Metrics plane (virtual-time counters, gauges, histograms).
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Wall-clock self-profiler (host clock only).
    pub profiler: Option<Arc<Profiler>>,
}

impl Sinks {
    /// Mints physical rank `rank`'s handle, with a shard per enabled sink.
    pub fn rank(&self, rank: u32) -> Obs {
        Obs {
            recorder: self.trace.as_ref().map(|_| Recorder::new(rank)),
            metrics: self.metrics.as_ref().map(|registry| Box::new(registry.shard(rank))),
            prof: self.prof_shard(ProfScope::Rank(rank)),
        }
    }

    /// Mints the executor driver's handle: a profile shard for its spans.
    /// The driver's events are rank-less and go through
    /// [`event`](Self::event) instead.
    pub fn driver(&self) -> Obs {
        Obs { recorder: None, metrics: None, prof: self.prof_shard(ProfScope::Driver) }
    }

    fn prof_shard(&self, scope: ProfScope) -> Option<Box<RankProf>> {
        self.profiler.as_ref().map(|profiler| Box::new(profiler.shard(scope)))
    }

    /// Records one driver-level event directly, attributed to `rank` (or
    /// to no rank), and folds it into the registry's rank-less metrics.
    pub fn event(&self, time: f64, rank: Option<u32>, kind: EventKind) {
        if let Some(registry) = &self.metrics {
            registry.fold(time, &kind);
        }
        if let Some(collector) = &self.trace {
            collector.record(time, rank, kind);
        }
    }

    /// Increments a rank-less counter by `delta` at virtual time `time`:
    /// only for a count no event carries (the executor's masked deaths).
    pub fn add(&self, key: MetricKey, delta: u64, time: f64) {
        if let Some(registry) = &self.metrics {
            registry.add(key, delta, time);
        }
    }

    /// Records one rank-less histogram observation of a value no event
    /// carries (the executor's degraded intervals).
    pub fn observe(&self, key: HistKey, value: f64) {
        if let Some(registry) = &self.metrics {
            registry.observe(key, value);
        }
    }

    /// Drains `obs` at teardown: merges its profile shard into the
    /// profiler and returns its trace events — the chunks they were
    /// recorded into, not a copy — and its metrics, for the caller to
    /// [`absorb`](Self::absorb) in a deterministic order (see the module
    /// docs).
    pub fn drain(&self, obs: &Obs) -> Drained {
        if let (Some(profiler), Some(shard)) = (&self.profiler, &obs.prof) {
            profiler.absorb(shard.drain());
        }
        Drained {
            events: obs.recorder.as_ref().map(Recorder::drain).unwrap_or_default(),
            metrics: obs.metrics.as_ref().map(|shard| Box::new(shard.drain())),
        }
    }

    /// Hands one rank's drained events to the collector and its metrics
    /// to the registry.
    pub fn absorb(&self, drained: Drained) {
        if let (Some(registry), Some(metrics)) = (&self.metrics, drained.metrics) {
            registry.absorb(*metrics);
        }
        if let Some(collector) = &self.trace {
            collector.absorb(drained.events);
        }
    }
}

/// What a rank's handle held at teardown: its trace events (empty when
/// tracing is off) and its metrics (none when metrics are off).
#[derive(Debug)]
pub struct Drained {
    events: Trace,
    metrics: Option<Box<RankDrain>>,
}

/// One rank's telemetry handle: `Send` but not `Sync`, owned by the rank's
/// task like its communicator. The two big shards are boxed (a metrics
/// shard is ~5 KiB of histograms), so a handle with them off stays a few
/// words to mint and move — a world mints one per rank per segment.
#[derive(Debug)]
pub struct Obs {
    recorder: Option<Recorder>,
    metrics: Option<Box<RankMetrics>>,
    prof: Option<Box<RankProf>>,
}

impl Obs {
    /// A handle with every sink off: each call is a no-op.
    pub fn off() -> Obs {
        Obs { recorder: None, metrics: None, prof: None }
    }

    /// Records event `kind` at virtual time `time`: the recorder stores
    /// it, the metrics shard folds it. Neither is there when its sink is
    /// off, so a metrics-only handle stores no event.
    #[inline]
    pub fn event(&self, time: f64, kind: EventKind) {
        if let Some(metrics) = &self.metrics {
            metrics.fold(time, &kind);
        }
        if let Some(recorder) = &self.recorder {
            recorder.record(time, kind);
        }
    }

    /// Records one histogram observation of a value no event carries: a
    /// message's latency (the `Recv` event has no send time) or a vote's
    /// (the `Vote` event has no gather start).
    #[inline]
    pub fn observe(&self, key: HistKey, value: f64) {
        if let Some(metrics) = &self.metrics {
            metrics.observe(key, value);
        }
    }

    /// Opens a wall-clock span, closed when the guard drops.
    #[inline]
    pub fn span(&self, key: SpanKey) -> Option<SpanGuard<'_>> {
        self.prof.as_ref().map(|prof| prof.span(key))
    }

    /// Increments profiler counter `key` by one.
    #[inline]
    pub fn count(&self, key: ProfCounter) {
        if let Some(prof) = &self.prof {
            prof.count(key);
        }
    }

    /// Increments profiler counter `key` and samples its new cumulative
    /// value onto `track` (the track's slope is the event rate).
    #[inline]
    pub fn count_tracked(&self, key: ProfCounter, track: TrackKey) {
        if let Some(prof) = &self.prof {
            prof.count(key);
            prof.sample(track, prof.counter(key) as f64);
        }
    }

    /// Appends one timestamped sample to a profiler counter track.
    #[inline]
    pub fn sample(&self, track: TrackKey, value: f64) {
        if let Some(prof) = &self.prof {
            prof.sample(track, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(obs: &Obs) {
        obs.event(1.0, EventKind::Send { to: 1, bytes: 8 });
        obs.observe(HistKey::MessageLatency, 0.5);
        obs.event(2.0, EventKind::RankFinish { busy: 1.5, comm: 0.5 });
        drop(obs.span(SpanKey::Vote));
        obs.count_tracked(ProfCounter::Parks, TrackKey::Parks);
        obs.sample(TrackKey::QueueDepth, 3.0);
    }

    fn attempt_end(completed: bool) -> EventKind {
        EventKind::AttemptEnd {
            attempt: 0,
            completed,
            rel_end: 3.0,
            rel_failure: f64::INFINITY,
            killer: None,
        }
    }

    #[test]
    fn a_handle_feeds_exactly_the_sinks_that_are_on_and_drains_once() {
        use redcr_metrics::GaugeKey;

        let off = Sinks::default();
        exercise(&off.rank(0));
        exercise(&Obs::off());
        off.event(3.0, None, attempt_end(false));
        let drained = off.drain(&off.rank(0));
        assert!(drained.events.is_empty() && drained.metrics.is_none());

        let sinks = Sinks {
            trace: Some(Arc::new(Collector::new())),
            metrics: Some(Arc::new(MetricsRegistry::new(1.0))),
            profiler: Some(Arc::new(Profiler::new())),
        };
        let (rank, driver) = (sinks.rank(5), sinks.driver());
        exercise(&rank);
        exercise(&driver);
        assert!(sinks.drain(&driver).events.is_empty(), "the driver buffers no events");
        let drained = sinks.drain(&rank);
        let ranks: Vec<_> = drained.events.events().map(|e| e.rank).collect();
        assert_eq!(ranks, [Some(5), Some(5)]);
        assert!(sinks.drain(&rank).events.is_empty(), "a second drain contributes nothing");
        sinks.absorb(drained);
        sinks.event(3.0, None, attempt_end(false));

        assert_eq!(sinks.trace.unwrap().len(), 3);
        let totals = sinks.metrics.unwrap().snapshot();
        assert_eq!(totals.counter(MetricKey::Sends), 1, "the driver handle has no metrics shard");
        assert_eq!(totals.counter(MetricKey::BytesSent), 8);
        assert_eq!(totals.histogram(HistKey::PayloadSize).count(), 1);
        assert_eq!(totals.histogram(HistKey::MessageLatency).count(), 1);
        assert_eq!(totals.counter(MetricKey::Attempts), 1, "the driver's event folds rank-less");
        assert_eq!(totals.counter(MetricKey::Restarts), 1);
        assert_eq!(totals.gauge(GaugeKey::VirtualTime), Some(2.0));
        let profile = sinks.profiler.unwrap().report();
        let scopes: Vec<_> = profile.scopes().iter().map(|s| s.label().to_owned()).collect();
        assert_eq!(scopes, ["driver", "rank5"]);
        assert_eq!(profile.total_span(SpanKey::Vote).count, 2);
        assert_eq!(profile.total_counter(ProfCounter::Parks), 2);

        // Metrics alone: the events fold into the counters and are never
        // stored.
        let registry = Arc::new(MetricsRegistry::new(1.0));
        let sinks = Sinks { metrics: Some(Arc::clone(&registry)), ..Sinks::default() };
        let rank = sinks.rank(2);
        exercise(&rank);
        let drained = sinks.drain(&rank);
        assert!(drained.events.is_empty(), "a metrics-only handle stores no event");
        sinks.absorb(drained);
        sinks.event(3.0, None, attempt_end(true));
        let totals = registry.snapshot();
        assert_eq!(totals.counter(MetricKey::Sends), 1);
        assert_eq!(totals.counter(MetricKey::Attempts), 1);
        assert_eq!(totals.counter(MetricKey::Restarts), 0);
        assert_eq!(registry.report().per_rank_counter(MetricKey::Sends), [(2, 1)]);
    }
}
