//! Telemetry: the three world-shared sinks and the one per-rank handle.
//!
//! [`Sinks`] bundles the flight-recorder [`Collector`], the
//! [`MetricsRegistry`] and the wall-clock [`Profiler`], each optional.
//! Builders and the executor driver hold one. Every rank task mints one
//! [`Obs`] from it: rank-local shards (plain `Cell`/`Vec` updates, no locks
//! or atomics) for exactly the sinks that are on — the recorder writes one
//! event per call into a fixed-size chunk, the metrics shard grows only
//! with the scrape-grid cells it touches (the registry mints it, so it
//! folds onto the registry's grid), the profile shard counts every span
//! and reads the host clock for about one in sixteen. Layers reach the
//! handle through [`Communicator::obs`](crate::Communicator::obs) and state
//! what happened once — `obs.event(t, kind)`, `obs.inc(key, t)`,
//! `obs.span(key)` — and a sink that is off costs one predictable branch.
//! Nothing here advances a virtual clock, so a run computes the same bits
//! with any sink on or off.
//!
//! # Absorb order
//!
//! A rank's handle is drained exactly once, at rank teardown
//! ([`Sinks::drain`]). Metrics and profile shards merge into their sinks
//! right there, inside the task: both merges are order-independent. Trace
//! events are *returned* instead — the chunks themselves, which the
//! collector adopts, so an event is never copied — and the world absorbs
//! them after the batch in rank order ([`Sinks::absorb_events`]): task
//! teardown order depends on host scheduling, the collected trace must
//! not. Driver-level records ([`Sinks::event`], [`Sinks::inc`]) go to the
//! shared sinks directly, so they bracket each segment's rank events.

use std::sync::Arc;

use redcr_metrics::{CounterKey as MetricKey, GaugeKey, HistKey, MetricsRegistry, RankMetrics};
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
    /// The driver's events and counters are rank-less and go through
    /// [`event`](Self::event) / [`inc`](Self::inc) instead.
    pub fn driver(&self) -> Obs {
        Obs { recorder: None, metrics: None, prof: self.prof_shard(ProfScope::Driver) }
    }

    fn prof_shard(&self, scope: ProfScope) -> Option<Box<RankProf>> {
        self.profiler.as_ref().map(|profiler| Box::new(profiler.shard(scope)))
    }

    /// Records one driver-level trace event directly, attributed to `rank`
    /// (or to no rank).
    pub fn event(&self, time: f64, rank: Option<u32>, kind: EventKind) {
        if let Some(collector) = &self.trace {
            collector.record(time, rank, kind);
        }
    }

    /// Increments a rank-less counter by one at virtual time `time`.
    pub fn inc(&self, key: MetricKey, time: f64) {
        self.add(key, 1, time);
    }

    /// Increments a rank-less counter by `delta` at virtual time `time`.
    pub fn add(&self, key: MetricKey, delta: u64, time: f64) {
        if let Some(registry) = &self.metrics {
            registry.add(key, delta, time);
        }
    }

    /// Records one rank-less histogram observation.
    pub fn observe(&self, key: HistKey, value: f64) {
        if let Some(registry) = &self.metrics {
            registry.observe(key, value);
        }
    }

    /// Drains `obs` at teardown: merges its metrics and profile shards
    /// into the sinks and returns its trace events — the chunks they were
    /// recorded into, not a copy — for the caller to
    /// [`absorb_events`](Self::absorb_events) in a deterministic order
    /// (see the module docs). Empty when tracing is off.
    pub fn drain(&self, obs: &Obs) -> Trace {
        if let (Some(registry), Some(shard)) = (&self.metrics, &obs.metrics) {
            registry.absorb(shard.drain());
        }
        if let (Some(profiler), Some(shard)) = (&self.profiler, &obs.prof) {
            profiler.absorb(shard.drain());
        }
        obs.recorder.as_ref().map(Recorder::drain).unwrap_or_default()
    }

    /// Hands one rank's drained trace events to the collector.
    pub fn absorb_events(&self, events: Trace) {
        if let Some(collector) = &self.trace {
            collector.absorb(events);
        }
    }
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

    /// Records trace event `kind` at virtual time `time`.
    #[inline]
    pub fn event(&self, time: f64, kind: EventKind) {
        if let Some(recorder) = &self.recorder {
            recorder.record(time, kind);
        }
    }

    /// Increments metrics counter `key` by one at virtual time `time`.
    #[inline]
    pub fn inc(&self, key: MetricKey, time: f64) {
        self.add(key, 1, time);
    }

    /// Increments metrics counter `key` by `delta` at virtual time `time`.
    #[inline]
    pub fn add(&self, key: MetricKey, delta: u64, time: f64) {
        if let Some(metrics) = &self.metrics {
            metrics.add(key, delta, time);
        }
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&self, key: HistKey, value: f64) {
        if let Some(metrics) = &self.metrics {
            metrics.observe(key, value);
        }
    }

    /// Sets gauge `key` to `value` at virtual time `time`.
    #[inline]
    pub fn gauge(&self, key: GaugeKey, value: f64, time: f64) {
        if let Some(metrics) = &self.metrics {
            metrics.set_gauge(key, value, time);
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
        obs.event(1.0, EventKind::Death);
        obs.inc(MetricKey::Sends, 1.0);
        obs.observe(HistKey::PayloadSize, 8.0);
        obs.gauge(GaugeKey::VirtualTime, 2.0, 2.0);
        drop(obs.span(SpanKey::Vote));
        obs.count_tracked(ProfCounter::Parks, TrackKey::Parks);
        obs.sample(TrackKey::QueueDepth, 3.0);
    }

    #[test]
    fn a_handle_feeds_exactly_the_sinks_that_are_on_and_drains_once() {
        let off = Sinks::default();
        exercise(&off.rank(0));
        exercise(&Obs::off());
        assert!(off.drain(&off.rank(0)).is_empty());

        let sinks = Sinks {
            trace: Some(Arc::new(Collector::new())),
            metrics: Some(Arc::new(MetricsRegistry::new(1.0))),
            profiler: Some(Arc::new(Profiler::new())),
        };
        let (rank, driver) = (sinks.rank(5), sinks.driver());
        exercise(&rank);
        exercise(&driver);
        assert!(sinks.drain(&driver).is_empty(), "the driver buffers no events");
        let events = sinks.drain(&rank);
        assert_eq!(events.events().map(|e| e.rank).collect::<Vec<_>>(), [Some(5)]);
        assert!(sinks.drain(&rank).is_empty(), "a second drain contributes nothing");
        sinks.absorb_events(events);
        sinks.event(3.0, None, EventKind::AttemptStart { attempt: 1 });
        sinks.inc(MetricKey::Attempts, 3.0);

        assert_eq!(sinks.trace.unwrap().len(), 2);
        let totals = sinks.metrics.unwrap().snapshot();
        assert_eq!(totals.counter(MetricKey::Sends), 1, "the driver handle has no metrics shard");
        assert_eq!(totals.counter(MetricKey::Attempts), 1);
        assert_eq!(totals.gauge(GaugeKey::VirtualTime), Some(2.0));
        let profile = sinks.profiler.unwrap().report();
        let scopes: Vec<_> = profile.scopes().iter().map(|s| s.label().to_owned()).collect();
        assert_eq!(scopes, ["driver", "rank5"]);
        assert_eq!(profile.total_span(SpanKey::Vote).count, 2);
        assert_eq!(profile.total_counter(ProfCounter::Parks), 2);
    }
}
