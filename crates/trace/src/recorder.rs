//! The sinks: a rank-thread-local [`Recorder`], a world-shared
//! [`Collector`], and the final [`Trace`].
//!
//! All three hold the same thing — a list of fixed-size event chunks — and
//! an event is written exactly once, into the chunk its rank is filling.
//! Draining a recorder, absorbing the drain and taking the trace each move
//! the chunk list (a few words per 1 024 events); no event is copied after
//! it is recorded.

use std::cell::RefCell;
use std::fmt;

use redcr_sched::sync::Mutex;

use crate::event::{Event, EventKind};

/// Events per chunk. At 56 bytes an event a chunk is 56 KiB — under glibc's
/// 128 KiB mmap threshold, so a chunk freed with one run's trace goes back
/// on the heap's free lists and the next run is handed the same, already
/// faulted-in pages. (A buffer grown by doubling is above the threshold
/// from 4 096 events on: every run maps it afresh, first-touches every
/// page and unmaps it again.)
const CHUNK_EVENTS: usize = 1024;

/// Events per chunk the [`Collector`] starts for its own records: the
/// driver emits a handful per segment, between two batches of rank chunks.
const DRIVER_CHUNK_EVENTS: usize = 16;

/// A per-rank event sink. Like the replication layer's statistics, a
/// `Recorder` lives on one rank's thread (it is `Send` but not `Sync`)
/// and costs one in-place write per event — no locking on the hot path. At
/// rank teardown its chunks are handed to the world's [`Collector`].
#[derive(Debug)]
pub struct Recorder {
    rank: u32,
    events: RefCell<Trace>,
}

impl Recorder {
    /// A fresh recorder for physical rank `rank`.
    pub fn new(rank: u32) -> Self {
        Recorder { rank, events: RefCell::default() }
    }

    /// Records `kind` at virtual time `time`, attributed to this rank.
    #[inline]
    pub fn record(&self, time: f64, kind: EventKind) {
        self.events.borrow_mut().push(Event { time, rank: Some(self.rank), kind }, CHUNK_EVENTS);
    }

    /// Takes all recorded events, leaving the recorder empty. The chunk
    /// being filled gives its unused tail back (in place: shrinking moves
    /// nothing), so a collected trace holds what was recorded and no more.
    pub fn drain(&self) -> Trace {
        let mut events = self.events.take();
        if let Some(open) = events.chunks.last_mut() {
            open.shrink_to_fit();
        }
        events
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
    events: Mutex<Trace>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Records one event directly (executor-level emission).
    pub fn record(&self, time: f64, rank: Option<u32>, kind: EventKind) {
        self.events.lock().push(Event { time, rank, kind }, DRIVER_CHUNK_EVENTS);
    }

    /// Adopts a drained recorder's chunks (rank teardown): they become the
    /// tail of the collection, in the order they were filled.
    pub fn absorb(&self, mut events: Trace) {
        self.events.lock().chunks.append(&mut events.chunks);
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
        std::mem::take(&mut *self.events.lock())
    }
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector").field("len", &self.len()).finish()
    }
}

/// A flight-recorder trace: events in collection order (see
/// [`Collector`]), stored as the chunks they were recorded into. Two
/// traces are equal when their event sequences are, however chunked.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    chunks: Vec<Vec<Event>>,
}

impl Trace {
    /// A trace of `events`, in that order. The vector is kept as it is.
    pub fn from_events(events: Vec<Event>) -> Self {
        Trace { chunks: vec![events] }
    }

    /// The events, in collection order.
    pub fn events(&self) -> impl Iterator<Item = &Event> + Clone {
        self.chunks.iter().flatten()
    }

    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.chunks.iter().all(Vec::is_empty)
    }

    /// Writes `event` into the chunk being filled, starting a new one of
    /// `chunk_events` when it is full. A chunk is never grown, so no event
    /// moves.
    #[inline]
    fn push(&mut self, event: Event, chunk_events: usize) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < chunk.capacity() => chunk.push(event),
            _ => {
                let mut chunk = Vec::with_capacity(chunk_events);
                chunk.push(event);
                self.chunks.push(chunk);
            }
        }
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.events().eq(other.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_attributes_rank_and_drains() {
        let rec = Recorder::new(3);
        rec.record(1.0, EventKind::Death);
        rec.record(2.0, EventKind::Send { to: 0, bytes: 8 });
        let events = rec.drain();
        assert!(rec.drain().is_empty());
        let expected = [(1.0, EventKind::Death), (2.0, EventKind::Send { to: 0, bytes: 8 })]
            .map(|(time, kind)| Event { time, rank: Some(3), kind });
        assert_eq!(events, Trace::from_events(expected.to_vec()));
    }

    #[test]
    fn chunks_are_adopted_whole_and_read_back_in_order() {
        // Two and a half chunks from one rank, a driver record either side:
        // every event is still where `record` wrote it, and a chunk is full
        // or the last of its batch.
        let n = CHUNK_EVENTS * 5 / 2;
        let rec = Recorder::new(0);
        for i in 0..n {
            rec.record(i as f64, EventKind::Send { to: 1, bytes: i as u64 });
        }
        let drained = rec.drain();
        let written: Vec<*const Event> = drained.events().map(std::ptr::from_ref).collect();
        let col = Collector::new();
        col.record(-1.0, None, EventKind::AttemptStart { attempt: 0 });
        col.absorb(drained);
        col.record(n as f64, None, EventKind::Death);
        let trace = col.take();
        assert_eq!(trace.len(), n + 2);
        let times: Vec<f64> = trace.events().map(|e| e.time).collect();
        assert_eq!(times, (-1..=n as i64).map(|t| t as f64).collect::<Vec<_>>());
        let adopted: Vec<*const Event> =
            trace.events().skip(1).take(n).map(std::ptr::from_ref).collect();
        assert_eq!(adopted, written, "an event moved after it was recorded");
        let sizes: Vec<usize> = trace.chunks.iter().map(Vec::len).collect();
        assert_eq!(sizes, [1, CHUNK_EVENTS, CHUNK_EVENTS, CHUNK_EVENTS / 2, 1]);
        assert_eq!(trace.chunks[3].capacity(), CHUNK_EVENTS / 2, "the open chunk's tail was kept");
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
        let kinds: Vec<&str> = trace.events().map(Event::kind_name).collect();
        assert_eq!(kinds, ["attempt_start", "recv", "attempt_end"]);
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
