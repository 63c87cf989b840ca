//! The sinks: a rank-thread-local [`Recorder`], a world-shared
//! [`Collector`], and the final [`Trace`].
//!
//! All three hold the same thing — a list of fixed-capacity byte chunks —
//! and an event is encoded exactly once, into the chunk its rank is
//! filling. Draining a recorder, absorbing the drain and taking the trace
//! each move the chunk list (a few words per chunk); no event is copied
//! after it is recorded. Reading a trace decodes it.

use std::cell::RefCell;
use std::fmt;

use redcr_sched::sync::Mutex;

use crate::event::{decode, encode, Event, EventKind, MAX_ENCODED};

/// Bytes per chunk. An event is encoded in 11–13 bytes when it is a
/// `Send`, `Recv` or `Vote` (see [`encode`]), so a chunk holds about
/// 2 500 of them. It stays under glibc's 128 KiB mmap threshold, so chunks
/// come from the heap's free lists rather than each being mapped, faulted
/// in and unmapped on its own; and it is small beside a traced run's
/// events, because each rank's last chunk of a segment is requested whole
/// (a drain gives its unused tail back).
const CHUNK_BYTES: usize = 32 * 1024;

/// Bytes per chunk the [`Collector`] starts for its own records: the
/// driver emits a handful per segment, between two batches of rank chunks.
const DRIVER_CHUNK_BYTES: usize = 512;

/// A per-rank event sink. Like the replication layer's statistics, a
/// `Recorder` lives on one rank's thread (it is `Send` but not `Sync`)
/// and costs one in-place encode per event — no locking on the hot path. At
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
        self.events.borrow_mut().push(time, Some(self.rank), &kind, CHUNK_BYTES);
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
        self.events.lock().push(time, rank, &kind, DRIVER_CHUNK_BYTES);
    }

    /// Adopts a drained recorder's chunks (rank teardown): they become the
    /// tail of the collection, in the order they were filled.
    pub fn absorb(&self, mut events: Trace) {
        let mut collected = self.events.lock();
        collected.chunks.append(&mut events.chunks);
        collected.len += events.len;
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
/// [`Collector`]), stored encoded in the chunks they were recorded into.
/// Two traces are equal when their event sequences are, however chunked.
#[derive(Clone, Default)]
pub struct Trace {
    chunks: Vec<Vec<u8>>,
    /// Events in `chunks`.
    len: usize,
}

impl Trace {
    /// A trace of `events`, in that order.
    pub fn from_events(events: impl IntoIterator<Item = Event>) -> Self {
        events.into_iter().collect()
    }

    /// The events, decoded, in collection order.
    pub fn events(&self) -> impl Iterator<Item = Event> + Clone + '_ {
        Events { chunks: self.chunks.iter(), rest: &[] }
    }

    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encodes one event into the chunk being filled, starting a new one
    /// of `chunk_bytes` when fewer than [`MAX_ENCODED`] bytes are left. A
    /// chunk is never grown, so no event moves, and no event straddles two
    /// chunks.
    #[inline]
    fn push(&mut self, time: f64, rank: Option<u32>, kind: &EventKind, chunk_bytes: usize) {
        if self.chunks.last().is_none_or(|c| c.capacity() - c.len() < MAX_ENCODED) {
            self.chunks.push(Vec::with_capacity(chunk_bytes));
        }
        encode(time, rank, kind, self.chunks.last_mut().expect("a chunk with room"));
        self.len += 1;
    }
}

impl FromIterator<Event> for Trace {
    fn from_iter<I: IntoIterator<Item = Event>>(events: I) -> Self {
        let mut trace = Trace::default();
        for e in events {
            trace.push(e.time, e.rank, &e.kind, CHUNK_BYTES);
        }
        trace
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.events()).finish()
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.events().eq(other.events())
    }
}

/// The decoding iterator behind [`Trace::events`].
#[derive(Clone)]
struct Events<'a> {
    chunks: std::slice::Iter<'a, Vec<u8>>,
    /// The undecoded rest of the current chunk.
    rest: &'a [u8],
}

impl Iterator for Events<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        while self.rest.is_empty() {
            self.rest = self.chunks.next()?;
        }
        let (event, used) = decode(self.rest);
        self.rest = &self.rest[used..];
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::{any_event, bits};

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
        // every chunk is adopted where `record` wrote it, none was grown,
        // and a chunk is full (no room for the widest event) or the last of
        // its batch.
        let rec = Recorder::new(0);
        let mut n = 0usize;
        while rec.events.borrow().chunks.len() < 3
            || rec.events.borrow().chunks[2].len() < CHUNK_BYTES / 2
        {
            rec.record(n as f64, EventKind::Send { to: 1, bytes: n as u64 });
            n += 1;
        }
        let drained = rec.drain();
        let written: Vec<*const u8> = drained.chunks.iter().map(|c| c.as_ptr()).collect();
        let col = Collector::new();
        col.record(-1.0, None, EventKind::AttemptStart { attempt: 0 });
        col.absorb(drained);
        col.record(n as f64, None, EventKind::Death);
        let trace = col.take();
        assert_eq!(trace.len(), n + 2);
        let times: Vec<f64> = trace.events().map(|e| e.time).collect();
        assert_eq!(times, (-1..=n as i64).map(|t| t as f64).collect::<Vec<_>>());
        let adopted: Vec<*const u8> = trace.chunks[1..4].iter().map(|c| c.as_ptr()).collect();
        assert_eq!(adopted, written, "a chunk moved after it was recorded into");
        assert_eq!(trace.chunks.len(), 5);
        for full in &trace.chunks[1..3] {
            assert_eq!(full.capacity(), CHUNK_BYTES, "a chunk was grown");
            assert!(full.capacity() - full.len() < MAX_ENCODED, "a chunk was left with room");
        }
        let open = &trace.chunks[3];
        assert_eq!(open.capacity(), open.len(), "the open chunk's tail was given back");
        assert!(open.len() >= CHUNK_BYTES / 2);
    }

    /// A seeded mix of every kind, crossing many chunk boundaries, reads
    /// back as the `Vec<Event>` it was built from: length, each event bit
    /// for bit, equality and JSONL.
    #[test]
    fn a_long_mixed_trace_matches_a_vec_reference() {
        let mut state = 0x2012_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let reference: Vec<Event> = (0..20_000).map(|_| any_event(&mut next)).collect();
        let built = Trace::from_events(reference.clone());
        let col = Collector::new();
        for e in &reference {
            col.record(e.time, e.rank, e.kind.clone());
        }
        let collected = col.take();
        for trace in [&built, &collected] {
            assert_eq!(trace.len(), reference.len());
            let got: Vec<_> = trace.events().map(|e| bits(&e)).collect();
            let want: Vec<_> = reference.iter().map(bits).collect();
            assert_eq!(got, want);
            let mut jsonl = String::new();
            for e in &reference {
                crate::jsonl::write_event(&mut redcr_json::Writer::compact(&mut jsonl), e);
                jsonl.push('\n');
            }
            assert!(trace.to_jsonl() == jsonl, "the JSONL export differs");
        }
        assert!(built.chunks.len() >= 5 && collected.chunks.len() > 500, "few chunk boundaries");
        assert_eq!(built, collected, "the same events, however chunked");
        let mut changed = reference.clone();
        changed[12_345].rank = Some(changed[12_345].rank.map_or(0, |r| r ^ 1));
        assert_ne!(Trace::from_events(changed), built);
        assert_ne!(Trace::from_events(reference[1..].to_vec()), built);
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
        let kinds: Vec<&str> = trace.events().map(|e| e.kind_name()).collect();
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
