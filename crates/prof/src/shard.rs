//! The rank-thread-local shard: all-`Cell` span and counter storage with
//! RAII scope guards, drained once at teardown — the same idiom as
//! `redcr_metrics::RankMetrics`.
//!
//! # What reads the clock
//!
//! A span is *counted* on every entry and *timed* on a [`Schedule`]: the
//! first [`ALWAYS_TIMED`] entries of a key on a shard, then entries a
//! random gap apart, [`MEAN_GAP`] on average. An untimed entry costs one
//! compare and one increment; a clock reading costs tens of nanoseconds,
//! which for a span around one mailbox push is several times the work it
//! measures. The gaps come from a xorshift generator seeded by the shard's
//! scope and the key, so the timed set is a pure function of scope, key and
//! entry index — two runs time the same entries — and no solver period
//! can fall in step with it.
//!
//! At drain a key's total is estimated as `timed_total × count / timed`,
//! reported with its standard error ([`SpanStat`]). A key entered at most
//! [`ALWAYS_TIMED`] times per shard — a segment, a checkpoint commit, a
//! sweep scenario — has every entry timed and its total is exact; only the
//! keys entered millions of times are estimated. Counter-track samples
//! carry a timestamp, so they follow the same schedule.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::keys::{CounterKey, SpanKey, TrackKey};
use crate::registry::ProfScope;
use crate::report::SpanStat;

/// Entries of one instrument a shard reads the clock for unconditionally.
pub(crate) const ALWAYS_TIMED: u64 = 64;

/// Mean entries between two clock readings after that.
pub(crate) const MEAN_GAP: u64 = 16;

/// Per-track sample cap per shard. A track that fills is halved (every
/// other sample goes) and sampled half as often from then on, so it always
/// spans the whole run.
const MAX_SAMPLES: usize = 8192;

/// Which entries of one instrument (a span key, a counter track) read the
/// clock: entry `next`, which moves on by one for the first
/// [`ALWAYS_TIMED`] entries and by a drawn gap after them.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    /// Entries so far.
    seen: u64,
    next: u64,
    rng: u64,
}

impl Schedule {
    fn new(scope: ProfScope, instrument: usize) -> Self {
        // The splitmix64 finalizer: neighbouring (scope, instrument) pairs
        // start far apart, and never at xorshift's fixed point 0.
        let mut z = (scope.seed() << 8 | instrument as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Schedule { seen: 0, next: 0, rng: (z ^ (z >> 31)) | 1 }
    }

    /// Counts one entry and says whether it reads the clock.
    #[inline]
    fn due(&mut self, mean_gap: u64) -> bool {
        let due = self.seen == self.next;
        self.seen += 1;
        if due {
            self.next += if self.seen < ALWAYS_TIMED { 1 } else { self.gap(mean_gap) };
        }
        due
    }

    /// A gap uniform on `1..=2 * mean_gap - 1` (xorshift64*).
    fn gap(&mut self, mean_gap: u64) -> u64 {
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        1 + (self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) % (2 * mean_gap - 1)
    }
}

/// One span key's accumulators on one shard.
#[derive(Debug, Clone, Copy)]
struct SpanCell {
    schedule: Schedule,
    timed: u64,
    timed_ns: u64,
    /// Sum of squared durations, for the variance.
    timed_ns_sq: f64,
    max_ns: u64,
}

impl SpanCell {
    fn new(scope: ProfScope, key: usize) -> Self {
        let schedule = Schedule::new(scope, key);
        SpanCell { schedule, timed: 0, timed_ns: 0, timed_ns_sq: 0.0, max_ns: 0 }
    }

    fn stat(&self) -> SpanStat {
        let (count, timed) = (self.schedule.seen, self.timed);
        if timed == 0 {
            return SpanStat { count, ..SpanStat::default() };
        }
        let total_ns = (u128::from(self.timed_ns) * u128::from(count) / u128::from(timed)) as u64;
        // The timed entries as a simple random sample of the `count`:
        // their variance, over their number, less the share of the
        // population they already cover.
        let stderr_ns = if 1 < timed && timed < count {
            let (n, t) = (count as f64, timed as f64);
            let sum = self.timed_ns as f64;
            let variance = ((self.timed_ns_sq - sum * sum / t) / (t - 1.0)).max(0.0);
            n * (variance / t * (1.0 - t / n)).sqrt()
        } else {
            0.0
        };
        SpanStat { count, timed, total_ns, max_ns: self.max_ns, stderr_ns }
    }
}

/// One timestamped counter-track sample: nanoseconds since the owning
/// [`Profiler`](crate::Profiler)'s origin, and the sampled value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackSample {
    /// Wall-clock nanoseconds since the profiler was created.
    pub at_ns: u64,
    /// Sampled value.
    pub value: f64,
}

/// One counter track on one shard.
#[derive(Debug)]
struct Track {
    schedule: Schedule,
    /// [`MEAN_GAP`], doubled each time the track filled.
    mean_gap: u64,
    samples: Vec<TrackSample>,
}

/// Keeps every other sample (the first, third, ...) and returns how many
/// went.
fn halve(samples: &mut Vec<TrackSample>) -> u64 {
    let before = samples.len();
    let mut index = 0;
    samples.retain(|_| {
        index += 1;
        index % 2 == 1
    });
    (before - samples.len()) as u64
}

/// A rank-thread-local profiling shard.
///
/// `Send` but not `Sync`: it is created by
/// [`Profiler::shard`](crate::Profiler::shard), moved onto one OS thread,
/// updated through
/// `&self` via interior mutability, and [`drain`](Self::drain)ed exactly
/// once at teardown. Recording on the hot path touches only `Cell`s — no
/// locks, no allocation (track samples amortize through a pre-grown
/// `Vec`).
#[derive(Debug)]
pub struct RankProf {
    scope: ProfScope,
    origin: Instant,
    spans: [Cell<SpanCell>; SpanKey::COUNT],
    counters: [Cell<u64>; CounterKey::COUNT],
    tracks: RefCell<[Track; TrackKey::COUNT]>,
    clock_reads: Cell<u64>,
}

impl RankProf {
    pub(crate) fn new(scope: ProfScope, origin: Instant) -> Self {
        RankProf {
            scope,
            origin,
            spans: std::array::from_fn(|key| Cell::new(SpanCell::new(scope, key))),
            counters: Default::default(),
            tracks: RefCell::new(Self::fresh_tracks(scope)),
            clock_reads: Cell::new(0),
        }
    }

    fn fresh_tracks(scope: ProfScope) -> [Track; TrackKey::COUNT] {
        std::array::from_fn(|key| Track {
            schedule: Schedule::new(scope, SpanKey::COUNT + key),
            mean_gap: MEAN_GAP,
            samples: Vec::new(),
        })
    }

    /// The one place this crate reads the clock.
    fn now(&self) -> Instant {
        self.clock_reads.set(self.clock_reads.get() + 1);
        Instant::now()
    }

    /// Opens a wall-clock span: counted now, and if this entry is on the
    /// key's schedule, timed until the guard drops.
    #[inline]
    pub fn span(&self, key: SpanKey) -> SpanGuard<'_> {
        let cell = &self.spans[key.index()];
        let mut s = cell.get();
        let due = s.schedule.due(MEAN_GAP);
        cell.set(s);
        SpanGuard { prof: self, key, start: due.then(|| self.now()) }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn count(&self, key: CounterKey) {
        self.add(key, 1);
    }

    /// Increments a counter by `n`. A peak is recorded with one `add` per
    /// shard; drains merge it by maximum ([`CounterKey::merge`]).
    #[inline]
    pub fn add(&self, key: CounterKey, n: u64) {
        let cell = &self.counters[key.index()];
        cell.set(cell.get() + n);
    }

    /// Current value of a counter (used to sample cumulative tracks).
    #[inline]
    pub fn counter(&self, key: CounterKey) -> u64 {
        self.counters[key.index()].get()
    }

    /// Offers one sample to a counter track; it is timestamped and kept if
    /// this call is on the track's schedule.
    #[inline]
    pub fn sample(&self, key: TrackKey, value: f64) {
        let mut tracks = self.tracks.borrow_mut();
        let track = &mut tracks[key.index()];
        if !track.schedule.due(track.mean_gap) {
            return;
        }
        if track.samples.len() == MAX_SAMPLES {
            halve(&mut track.samples);
            track.mean_gap *= 2;
        }
        let at_ns = duration_ns(self.now() - self.origin);
        track.samples.push(TrackSample { at_ns, value });
    }

    fn record(&self, key: SpanKey, elapsed_ns: u64) {
        let cell = &self.spans[key.index()];
        let mut s = cell.get();
        s.timed += 1;
        s.timed_ns += elapsed_ns;
        s.timed_ns_sq += (elapsed_ns as f64) * (elapsed_ns as f64);
        s.max_ns = s.max_ns.max(elapsed_ns);
        cell.set(s);
    }

    /// Takes everything recorded so far, leaving the shard empty. Called
    /// once at rank teardown; the result is absorbed into the shared
    /// [`Profiler`](crate::Profiler).
    pub fn drain(&self) -> ProfDrain {
        let scope = self.scope;
        let spans =
            std::array::from_fn(|key| self.spans[key].replace(SpanCell::new(scope, key)).stat());
        let mut counters = [0u64; CounterKey::COUNT];
        for (slot, cell) in counters.iter_mut().zip(&self.counters) {
            *slot = cell.replace(0);
        }
        let tracks = self.tracks.replace(Self::fresh_tracks(scope));
        let samples_dropped = tracks.iter().map(|t| t.schedule.seen - t.samples.len() as u64).sum();
        ProfDrain {
            scope,
            spans,
            counters,
            tracks: tracks.map(|t| t.samples),
            samples_dropped,
            clock_reads: self.clock_reads.replace(0),
        }
    }
}

/// RAII wall-clock scope guard returned by [`RankProf::span`].
#[derive(Debug)]
pub struct SpanGuard<'a> {
    prof: &'a RankProf,
    key: SpanKey,
    /// When the span opened, if this entry is timed.
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.prof.record(self.key, duration_ns(self.prof.now() - start));
        }
    }
}

/// The drained contents of one shard.
#[derive(Debug)]
pub struct ProfDrain {
    pub(crate) scope: ProfScope,
    pub(crate) spans: [SpanStat; SpanKey::COUNT],
    pub(crate) counters: [u64; CounterKey::COUNT],
    pub(crate) tracks: [Vec<TrackSample>; TrackKey::COUNT],
    /// Track samples offered but not in `tracks`: off the schedule, or
    /// decimated when a track filled.
    pub(crate) samples_dropped: u64,
    /// Clock readings the shard made.
    pub(crate) clock_reads: u64,
}

impl ProfDrain {
    pub(crate) fn merge(&mut self, other: ProfDrain) {
        for (slot, s) in self.spans.iter_mut().zip(other.spans) {
            slot.merge(s);
        }
        for (key, (slot, c)) in
            CounterKey::ALL.into_iter().zip(self.counters.iter_mut().zip(other.counters))
        {
            *slot = key.merge(*slot, c);
        }
        for (buf, mut extra) in self.tracks.iter_mut().zip(other.tracks) {
            buf.append(&mut extra);
            while buf.len() > MAX_SAMPLES {
                self.samples_dropped += halve(buf);
            }
        }
        self.samples_dropped += other.samples_dropped;
        self.clock_reads += other.clock_reads;
    }
}

fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn shard(rank: u32) -> RankProf {
        RankProf::new(ProfScope::Rank(rank), Instant::now())
    }

    /// The entry indices below `entries` that `rank`'s schedule for
    /// instrument 0 times.
    fn timed_set(rank: u32, entries: u64) -> Vec<u64> {
        let mut schedule = Schedule::new(ProfScope::Rank(rank), 0);
        (0..entries).filter(|_| schedule.due(MEAN_GAP)).collect()
    }

    #[test]
    fn span_guard_records_on_drop() {
        let p = shard(0);
        {
            let _g = p.span(SpanKey::MailboxPark);
        }
        let d = p.drain();
        let park = d.spans[SpanKey::MailboxPark.index()];
        assert_eq!((park.count, park.timed), (1, 1));
        assert_eq!(d.clock_reads, 2);
    }

    #[test]
    fn drain_empties_the_shard() {
        let p = shard(0);
        p.count(CounterKey::Parks);
        p.sample(TrackKey::QueueDepth, 3.0);
        drop(p.span(SpanKey::Vote));
        let d = p.drain();
        assert_eq!(d.counters[CounterKey::Parks.index()], 1);
        assert_eq!(d.tracks[TrackKey::QueueDepth.index()].len(), 1);
        assert_eq!(d.spans[SpanKey::Vote.index()].count, 1);
        let d2 = p.drain();
        assert_eq!(d2.counters[CounterKey::Parks.index()], 0);
        assert!(d2.tracks[TrackKey::QueueDepth.index()].is_empty());
        assert_eq!(d2.spans[SpanKey::Vote.index()], SpanStat::default());
        assert_eq!(d2.clock_reads, 0);
    }

    #[test]
    fn the_schedule_times_the_head_then_one_entry_in_sixteen_without_a_period() {
        const ENTRIES: u64 = 100_000;
        for rank in 0..32 {
            let timed = timed_set(rank, ENTRIES);
            assert_eq!(timed[..ALWAYS_TIMED as usize], (0..ALWAYS_TIMED).collect::<Vec<_>>());
            let tail = &timed[ALWAYS_TIMED as usize - 1..];
            let mean_gap = (tail[tail.len() - 1] - tail[0]) as f64 / (tail.len() - 1) as f64;
            assert!((mean_gap - MEAN_GAP as f64).abs() <= 1.0, "rank {rank}: mean gap {mean_gap}");
            assert!(tail.windows(2).all(|w| (1..2 * MEAN_GAP).contains(&(w[1] - w[0]))));
            // A solver entering a span 16 (or 24) times an iteration is the
            // aliasing case: a fixed stride would time one phase only.
            for period in [16, 24] {
                let mut hits = vec![0u64; period as usize];
                for &entry in &tail[1..] {
                    hits[(entry % period) as usize] += 1;
                }
                let uniform = (tail.len() - 1) as f64 / period as f64;
                for (phase, &n) in hits.iter().enumerate() {
                    let share = n as f64 / uniform;
                    assert!(
                        (0.5..=2.0).contains(&share),
                        "rank {rank}: {n} at {phase} mod {period}"
                    );
                }
            }
            assert_eq!(timed, timed_set(rank, ENTRIES), "a pure function of rank and index");
            assert_ne!(timed, timed_set(rank + 1, ENTRIES), "ranks {rank} and next agree");
        }
    }

    #[test]
    fn sample_cap_counts_drops() {
        const OFFERED: usize = 1_000_000;
        let p = shard(0);
        for i in 0..OFFERED {
            p.sample(TrackKey::Parks, i as f64);
        }
        let d = p.drain();
        let kept = &d.tracks[TrackKey::Parks.index()];
        assert!(kept.len() > MAX_SAMPLES / 2 && kept.len() <= MAX_SAMPLES, "{}", kept.len());
        assert_eq!(d.samples_dropped, (OFFERED - kept.len()) as u64);
        assert!(d.clock_reads < OFFERED as u64 / 8, "{} reads", d.clock_reads);
        // The track filled three times (64 + 999 936 / 16 samples at the
        // first rate), so the gap now averages 128 and is below 256.
        let values: Vec<usize> = kept.iter().map(|s| s.value as usize).collect();
        assert!(values.windows(2).all(|w| w[0] < w[1]));
        assert!(OFFERED - values[values.len() - 1] < 256, "last kept {}", values[values.len() - 1]);
        assert!(values[0] < 256 && values[values.len() / 2] > OFFERED / 4);
    }

    #[test]
    fn merged_tracks_are_halved_not_cut_off() {
        let drained = |first: usize| {
            let p = shard(0);
            for i in 0..MAX_SAMPLES * 12 {
                p.sample(TrackKey::QueueDepth, (first + i) as f64);
            }
            p.drain()
        };
        let (mut merged, second) = (drained(0), drained(MAX_SAMPLES * 12));
        let each = second.tracks[TrackKey::QueueDepth.index()].len();
        let last = second.tracks[TrackKey::QueueDepth.index()][each - 1];
        merged.merge(second);
        let kept = &merged.tracks[TrackKey::QueueDepth.index()];
        assert!(2 * each > MAX_SAMPLES && kept.len() <= MAX_SAMPLES);
        assert!(last.value - kept[kept.len() - 1].value < 64.0, "the second shard's end is gone");
        assert_eq!(merged.samples_dropped, (MAX_SAMPLES * 24 - kept.len()) as u64);
    }

    #[test]
    fn a_fully_timed_key_is_exact_and_a_sampled_one_is_scaled_with_its_error() {
        let cell = |count: u64, durations: &[u64]| {
            let mut cell = SpanCell::new(ProfScope::Driver, 0);
            cell.schedule.seen = count;
            for &ns in durations {
                cell.timed += 1;
                cell.timed_ns += ns;
                cell.timed_ns_sq += (ns * ns) as f64;
                cell.max_ns = cell.max_ns.max(ns);
            }
            cell.stat()
        };
        let exact = cell(3, &[10, 20, 31]);
        assert_eq!((exact.count, exact.timed, exact.total_ns, exact.max_ns), (3, 3, 61, 31));
        assert_eq!(exact.stderr_ns, 0.0);

        // 4 of 400 entries timed: mean 25, sample variance 500 / 3.
        let sampled = cell(400, &[10, 20, 30, 40]);
        assert_eq!((sampled.count, sampled.timed, sampled.total_ns), (400, 4, 10_000));
        let expected = 400.0 * (500.0 / 3.0 / 4.0 * 0.99f64).sqrt();
        assert!((sampled.stderr_ns - expected).abs() < 1e-9, "{}", sampled.stderr_ns);
        assert!((sampled.rel_stderr() - expected / 10_000.0).abs() < 1e-12);

        // Errors of independent shards add in quadrature; counts add.
        let mut both = exact;
        both.merge(sampled);
        both.merge(sampled);
        assert_eq!((both.count, both.timed, both.total_ns, both.max_ns), (803, 11, 20_061, 40));
        assert!((both.stderr_ns - expected * 2f64.sqrt()).abs() < 1e-9);
        assert_eq!(cell(5, &[]).total_ns, 0, "entered but never closed: counted, no time");
    }

    proptest! {
        /// Whatever the order keys are entered in, every entry is counted,
        /// no more entries are timed than were made, and a key's timed set
        /// does not depend on what the other keys did in between.
        #[test]
        fn every_entry_is_counted_under_any_interleaving(
            keys in prop::collection::vec(0usize..SpanKey::COUNT, 0..4000),
        ) {
            let p = shard(7);
            let mut entered = [0u64; SpanKey::COUNT];
            for &key in &keys {
                drop(p.span(SpanKey::ALL[key]));
                entered[key] += 1;
            }
            let d = p.drain();
            let mut timed = 0;
            for (key, &count) in entered.iter().enumerate() {
                let stat = d.spans[key];
                prop_assert_eq!(stat.count, count);
                prop_assert!(stat.timed <= count);
                let mut alone = Schedule::new(ProfScope::Rank(7), key);
                let expected = (0..count).filter(|_| alone.due(MEAN_GAP)).count() as u64;
                prop_assert_eq!(stat.timed, expected);
                timed += stat.timed;
            }
            prop_assert_eq!(d.clock_reads, 2 * timed);
        }
    }
}
