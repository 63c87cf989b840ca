//! The sinks: a rank-thread-local [`Recorder`], a world-shared
//! [`Collector`], and the final [`Trace`].

use std::cell::RefCell;
use std::fmt;

use redcr_sched::sync::Mutex;

use crate::event::{Event, EventKind};

/// A per-rank event sink. Like the replication layer's `ReplicationStats`,
/// a `Recorder` lives on one rank's thread (it is `Send` but not `Sync`)
/// and costs one `Vec` push per event — no locking on the hot path. At
/// rank teardown its events are drained into the world's [`Collector`].
#[derive(Debug)]
pub struct Recorder {
    rank: u32,
    events: RefCell<Vec<Event>>,
}

impl Recorder {
    /// A fresh recorder for physical rank `rank`.
    pub fn new(rank: u32) -> Self {
        Recorder { rank, events: RefCell::new(Vec::new()) }
    }

    /// The physical rank this recorder belongs to.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Records `kind` at virtual time `time`, attributed to this rank.
    pub fn record(&self, time: f64, kind: EventKind) {
        self.events.borrow_mut().push(Event { time, rank: Some(self.rank), kind });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether no event has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Takes all recorded events, leaving the recorder empty.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.borrow_mut())
    }
}

/// The world-shared sink rank recorders merge into. Executor-level events
/// (attempt brackets, injected deaths) are recorded directly; rank events
/// arrive in bulk via [`absorb`](Collector::absorb) at rank teardown, so
/// the collection order brackets each attempt's rank events between its
/// `AttemptStart` and `AttemptEnd` — the property the analyzer's replay
/// relies on.
#[derive(Default)]
pub struct Collector {
    events: Mutex<Vec<Event>>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Records one event directly (executor-level emission).
    pub fn record(&self, time: f64, rank: Option<u32>, kind: EventKind) {
        self.events.lock().push(Event { time, rank, kind });
    }

    /// Merges a drained per-rank event batch (rank teardown).
    pub fn absorb(&self, events: Vec<Event>) {
        self.events.lock().extend(events);
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been collected yet.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Takes everything collected so far as a [`Trace`], leaving the
    /// collector empty.
    pub fn take(&self) -> Trace {
        Trace { events: std::mem::take(&mut *self.events.lock()) }
    }

    /// A copy of everything collected so far as a [`Trace`].
    pub fn snapshot(&self) -> Trace {
        Trace { events: self.events.lock().clone() }
    }
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector").field("len", &self.len()).finish()
    }
}

/// A completed flight-recorder trace: events in collection order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The events, in collection order (see [`Collector`]).
    pub events: Vec<Event>,
}

impl Trace {
    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_attributes_rank_and_drains() {
        let rec = Recorder::new(3);
        assert!(rec.is_empty());
        rec.record(1.0, EventKind::Death);
        rec.record(2.0, EventKind::Send { to: 0, bytes: 8 });
        assert_eq!(rec.len(), 2);
        let events = rec.drain();
        assert!(rec.is_empty());
        assert_eq!(events[0].rank, Some(3));
        assert_eq!(events[1].kind, EventKind::Send { to: 0, bytes: 8 });
    }

    #[test]
    fn collector_keeps_collection_order() {
        let col = Collector::new();
        col.record(0.0, None, EventKind::AttemptStart { attempt: 0 });
        let rec = Recorder::new(1);
        rec.record(0.5, EventKind::Recv { from: 0, bytes: 4 });
        col.absorb(rec.drain());
        col.record(
            1.0,
            None,
            EventKind::AttemptEnd {
                attempt: 0,
                completed: true,
                rel_end: 1.0,
                rel_failure: f64::INFINITY,
                killer: None,
            },
        );
        let trace = col.take();
        assert!(col.is_empty());
        assert_eq!(trace.len(), 3);
        assert!(matches!(trace.events[0].kind, EventKind::AttemptStart { .. }));
        assert!(matches!(trace.events[1].kind, EventKind::Recv { .. }));
        assert!(matches!(trace.events[2].kind, EventKind::AttemptEnd { .. }));
    }

    #[test]
    fn collector_is_shareable_across_threads() {
        let col = std::sync::Arc::new(Collector::new());
        std::thread::scope(|s| {
            for rank in 0..4u32 {
                let col = std::sync::Arc::clone(&col);
                s.spawn(move || {
                    let rec = Recorder::new(rank);
                    rec.record(rank as f64, EventKind::Death);
                    col.absorb(rec.drain());
                });
            }
        });
        assert_eq!(col.len(), 4);
    }
}
