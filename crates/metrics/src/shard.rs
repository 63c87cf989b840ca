//! Per-rank thread-local metric shards, the one `match` that folds an
//! event into one, and the scrape grid their counters land on.

use std::cell::{Cell, RefCell};

use redcr_trace::EventKind;

use crate::histogram::Histogram;
use crate::{CounterKey, GaugeKey, HistKey};

/// Counter increments summed per scrape-grid cell: `(k, sums)` holds what
/// was stamped in cell `k`, indexed like [`CounterKey::ALL`]. A list of
/// these is sparse and may name a cell more than once.
pub type GridCell = (u64, [u64; CounterKey::COUNT]);

/// Whether `interval` spans a grid at all (positive and finite).
pub(crate) fn is_grid(interval: f64) -> bool {
    interval.is_finite() && interval > 0.0
}

/// The grid cell a stamp belongs to: the smallest `k` with
/// `time <= k as f64 * interval`, so that point `k` of the scraped series
/// is the sum of cells `0..=k`. Stamps at or before zero land in cell 0;
/// without a grid ([`is_grid`]) every later stamp lands in cell 1.
pub(crate) fn cell_of(time: f64, interval: f64) -> u64 {
    if time <= 0.0 {
        return 0;
    }
    if !is_grid(interval) {
        return 1;
    }
    let quotient = (time / interval).ceil();
    let near = quotient as u64;
    if quotient >= (1u64 << 52) as f64 {
        // Past 2^52 the quotient's rounding error reaches a whole cell; a
        // grid that long is coarsened by the scraper anyway.
        return near;
    }
    // Below that the rounded quotient is within one of the answer, either
    // way, so the predicate decides among its neighbours.
    (near.saturating_sub(1)..=near + 1).find(|&k| time <= k as f64 * interval).unwrap_or(near + 1)
}

/// The stamps [`cell_of`] puts in cell `k`, as `(lo, hi, k)` for the
/// half-open `(lo, hi]`, computed with the products it compares. Where it
/// stops comparing (near 2^52, or when a product overflows) there are
/// none: [`NO_CELL`], which no stamp is in.
fn cell_bounds(k: u64, interval: f64) -> (f64, f64, u64) {
    if k == 0 {
        return (f64::NEG_INFINITY, 0.0, 0);
    }
    if !is_grid(interval) {
        return (0.0, f64::INFINITY, 1);
    }
    let hi = k as f64 * interval;
    if k >= (1 << 52) - 1 || !hi.is_finite() {
        return NO_CELL;
    }
    ((k - 1) as f64 * interval, hi, k)
}

/// The bounds of no cell: no stamp is above `lo` and at most `hi`.
const NO_CELL: (f64, f64, u64) = (f64::INFINITY, f64::NEG_INFINITY, 0);

/// Adds `sums` into `acc`, counter by counter.
pub(crate) fn add_into(acc: &mut [u64; CounterKey::COUNT], sums: &[u64; CounterKey::COUNT]) {
    for (a, s) in acc.iter_mut().zip(sums) {
        *a += s;
    }
}

/// A rank thread's private metric shard: `Send` (created on the rank's own
/// thread) but not `Sync`, exactly like the flight recorder's `Recorder`.
/// Counters and gauges move only through [`fold`](Self::fold), so each is
/// derived from an event; [`observe`](Self::observe) is the one door for
/// a value no event carries. Every operation is a `Cell` update plus, for
/// counters, an add into the current grid cell — no locks or atomics on
/// the hot path, and nothing that grows with the number of increments.
#[derive(Debug)]
pub struct RankMetrics {
    rank: u32,
    /// `(value, time)` per gauge; unset = `(NAN, NEG_INFINITY)`.
    gauges: [Cell<(f64, f64)>; GaugeKey::COUNT],
    hists: RefCell<[Histogram; HistKey::COUNT]>,
    /// Scrape-grid spacing, virtual seconds.
    interval: f64,
    /// The cell the latest stamp resolved to, as [`cell_bounds`] gives it:
    /// a stamp inside its bounds needs no division.
    last_cell: Cell<(f64, f64, u64)>,
    /// Increments by grid cell, in arrival order: a bump joins the last
    /// cell if it is stamped there, otherwise it opens a new one. The
    /// counter totals are their sum.
    cells: RefCell<Vec<GridCell>>,
    /// Latest stamp seen (at least zero).
    end: Cell<f64>,
    /// Stamp of the latest `CheckpointBegin`, for the commit latency; NaN
    /// before the first, so a commit without a begin is quarantined.
    begun: Cell<f64>,
}

impl RankMetrics {
    /// An empty shard attributing everything to `rank`, folding counter
    /// increments onto a grid of `interval` virtual seconds. Minted by
    /// [`MetricsRegistry::shard`](crate::MetricsRegistry::shard), which is
    /// what keeps a shard's grid the registry's.
    pub(crate) fn new(rank: u32, interval: f64) -> Self {
        RankMetrics {
            rank,
            gauges: std::array::from_fn(|_| Cell::new((f64::NAN, f64::NEG_INFINITY))),
            hists: RefCell::new(std::array::from_fn(|_| Histogram::new())),
            interval,
            last_cell: Cell::new(NO_CELL),
            cells: RefCell::new(Vec::new()),
            end: Cell::new(0.0),
            begun: Cell::new(f64::NAN),
        }
    }

    /// Folds event `kind`, stamped `time`, into the shard: the one place
    /// that says which metrics an event stands for. Every counter, the
    /// gauge, and the payload-size, commit- and heal-latency histograms
    /// come from here; kinds that carry no metric fold to nothing.
    pub fn fold(&self, time: f64, kind: &EventKind) {
        use CounterKey as C;
        match *kind {
            EventKind::Send { bytes, .. } => {
                self.bump(time, &[(C::Sends, 1), (C::BytesSent, bytes)]);
                self.observe(HistKey::PayloadSize, bytes as f64);
            }
            EventKind::Recv { bytes, .. } => {
                self.bump(time, &[(C::Recvs, 1), (C::BytesReceived, bytes)]);
            }
            EventKind::Death => self.add(C::Deaths, 1, time),
            EventKind::Vote { .. } => self.add(C::Votes, 1, time),
            EventKind::Failover { .. } => self.add(C::Failovers, 1, time),
            EventKind::CheckpointBegin { .. } => self.begun.set(time),
            EventKind::CheckpointCommit { .. } => {
                self.add(C::CheckpointCommits, 1, time);
                self.observe(HistKey::CommitLatency, time - self.begun.get());
            }
            EventKind::Restore { .. } => self.add(C::Restores, 1, time),
            EventKind::RankFinish { .. } => {
                self.gauges[GaugeKey::VirtualTime.index()].set((time, time));
            }
            EventKind::HeartbeatMiss { .. } => self.add(C::Suspicions, 1, time),
            EventKind::RespawnCommit { latency, .. } => self.observe(HistKey::HealLatency, latency),
            EventKind::RejoinVote { .. } => self.add(C::Respawns, 1, time),
            EventKind::AttemptEnd { completed, .. } => {
                self.bump(time, &[(C::Attempts, 1), (C::Restarts, u64::from(!completed))]);
            }
            _ => {}
        }
    }

    /// Increments `key` by `delta` at virtual time `time`. A zero delta is
    /// a no-op (it must not open a grid cell or move the latest stamp).
    pub(crate) fn add(&self, key: CounterKey, delta: u64, time: f64) {
        self.bump(time, &[(key, delta)]);
    }

    /// Adds every `(key, delta)` into the grid cell of `time`, resolved
    /// once; increments of zero are no-ops, as in [`add`](Self::add).
    #[inline]
    fn bump(&self, time: f64, deltas: &[(CounterKey, u64)]) {
        if deltas.iter().all(|&(_, delta)| delta == 0) {
            return;
        }
        // Stamps need not arrive in order (a death carries its sampled
        // time, which can precede the rank's clock), so the list may
        // revisit a cell; the registry merges by `k`.
        let k = self.cell(time);
        let mut cells = self.cells.borrow_mut();
        if cells.last().is_none_or(|&(last, _)| last != k) {
            cells.push((k, [0; CounterKey::COUNT]));
        }
        let (_, sums) = cells.last_mut().expect("the cell was just opened");
        for &(key, delta) in deltas {
            sums[key.index()] += delta;
        }
        self.end.set(self.end.get().max(time));
    }

    /// [`cell_of`] `time`, without its division when `time` lands in the
    /// same cell as the stamp before.
    #[inline]
    fn cell(&self, time: f64) -> u64 {
        let (lo, hi, k) = self.last_cell.get();
        if lo < time && time <= hi {
            return k;
        }
        let k = cell_of(time, self.interval);
        self.last_cell.set(cell_bounds(k, self.interval));
        k
    }

    /// Records one histogram observation of a value no event carries (a
    /// message's or a vote's latency); everything else is
    /// [`fold`](Self::fold)ed.
    pub fn observe(&self, key: HistKey, value: f64) {
        self.hists.borrow_mut()[key.index()].observe(value);
    }

    /// Moves everything out of the shard (for
    /// [`MetricsRegistry::absorb`](crate::MetricsRegistry::absorb)),
    /// leaving it empty — a second drain contributes nothing.
    pub fn drain(&self) -> RankDrain {
        let cells = std::mem::take(&mut *self.cells.borrow_mut());
        let mut counters = [0; CounterKey::COUNT];
        for (_, sums) in &cells {
            add_into(&mut counters, sums);
        }
        RankDrain {
            rank: self.rank,
            counters,
            gauges: std::array::from_fn(|i| self.gauges[i].replace((f64::NAN, f64::NEG_INFINITY))),
            hists: std::mem::replace(
                &mut *self.hists.borrow_mut(),
                std::array::from_fn(|_| Histogram::new()),
            ),
            cells,
            end: self.end.replace(0.0),
        }
    }
}

/// Everything one shard accumulated, detached for the trip into the
/// registry.
#[derive(Debug, Clone)]
pub struct RankDrain {
    /// The rank the shard belonged to.
    pub rank: u32,
    /// Counter totals, indexed like [`CounterKey::ALL`].
    pub counters: [u64; CounterKey::COUNT],
    /// `(value, time)` per gauge; unset = `(NAN, NEG_INFINITY)`.
    pub gauges: [(f64, f64); GaugeKey::COUNT],
    /// Histograms, indexed like [`HistKey::ALL`].
    pub hists: [Histogram; HistKey::COUNT],
    /// Counter increments by scrape-grid cell; they sum to `counters`.
    pub cells: Vec<GridCell>,
    /// Latest increment stamp (at least zero), virtual seconds.
    pub end: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_stamp_samples() {
        let m = RankMetrics::new(3, 1.0);
        m.add(CounterKey::Sends, 1, 1.0);
        m.add(CounterKey::BytesSent, 64, 1.0);
        m.add(CounterKey::BytesSent, 0, 2.0); // no-op
        m.add(CounterKey::Sends, 1, 2.0);
        let d = m.drain();
        assert_eq!(d.rank, 3);
        let mut at_1 = [0; CounterKey::COUNT];
        at_1[CounterKey::Sends.index()] = 1;
        at_1[CounterKey::BytesSent.index()] = 64;
        let mut at_2 = [0; CounterKey::COUNT];
        at_2[CounterKey::Sends.index()] = 1;
        assert_eq!(d.cells, [(1, at_1), (2, at_2)], "zero deltas open no cell");
        assert_eq!(d.end, 2.0);
        assert_eq!(d.counters[CounterKey::Sends.index()], 2);
        assert_eq!(d.counters[CounterKey::BytesSent.index()], 64);
        // Drained: a second drain is empty.
        let d2 = m.drain();
        assert_eq!(d2.counters[CounterKey::Sends.index()], 0);
        assert!(d2.cells.is_empty());
        assert_eq!(d2.end, 0.0);
    }

    /// Each event kind bumps exactly the metrics it stands for, at its own
    /// stamp; the commit latency runs from the latest begin.
    #[test]
    fn an_event_folds_into_the_metrics_it_stands_for() {
        use CounterKey as C;
        let m = RankMetrics::new(0, 1.0);
        let events = [
            (0.5, EventKind::Send { to: 1, bytes: 64 }),
            (0.5, EventKind::Recv { from: 1, bytes: 32 }),
            (1.0, EventKind::CheckpointBegin { seq: 0 }),
            (1.25, EventKind::CheckpointBegin { seq: 1 }),
            (1.5, EventKind::Vote { copies: 2, unanimous: true, corrected: false }),
            (1.5, EventKind::Failover { sphere: 0 }),
            (2.0, EventKind::CheckpointCommit { seq: 1, bytes: 8, cost: 0.5 }),
            (2.5, EventKind::Restore { seq: 1, cut: 2.0 }),
            (2.5, EventKind::Death),
            (3.0, EventKind::HeartbeatMiss { sphere: 0 }),
            (3.5, EventKind::RespawnBegin { sphere: 0 }),
            (4.0, EventKind::RespawnCommit { sphere: 0, rel: 4.0, latency: 1.5 }),
            (4.0, EventKind::RejoinVote { sphere: 0, copies: 2 }),
            (4.5, EventKind::AttemptStart { attempt: 1 }),
            (
                5.0,
                EventKind::AttemptEnd {
                    attempt: 1,
                    completed: false,
                    rel_end: 0.5,
                    rel_failure: 0.5,
                    killer: Some(0),
                },
            ),
            (
                6.0,
                EventKind::AttemptEnd {
                    attempt: 2,
                    completed: true,
                    rel_end: 1.0,
                    rel_failure: f64::INFINITY,
                    killer: None,
                },
            ),
            (6.0, EventKind::RankFinish { busy: 4.0, comm: 2.0 }),
        ];
        for (time, kind) in &events {
            m.fold(*time, kind);
        }
        let d = m.drain();
        let count = |k: C| d.counters[k.index()];
        assert_eq!((count(C::Sends), count(C::BytesSent)), (1, 64));
        assert_eq!((count(C::Recvs), count(C::BytesReceived)), (1, 32));
        for k in [C::Votes, C::Failovers, C::CheckpointCommits, C::Restores, C::Deaths] {
            assert_eq!(count(k), 1, "{k:?}");
        }
        assert_eq!((count(C::Suspicions), count(C::Respawns)), (1, 1));
        assert_eq!((count(C::Attempts), count(C::Restarts)), (2, 1));
        assert_eq!(count(C::MaskedFailures), 0, "no event carries a masked death");
        let hist = |k: HistKey| (d.hists[k.index()].count(), d.hists[k.index()].sum());
        assert_eq!(hist(HistKey::PayloadSize), (1, 64.0));
        assert_eq!(hist(HistKey::CommitLatency), (1, 0.75), "from the latest begin");
        assert_eq!(hist(HistKey::HealLatency), (1, 1.5));
        assert_eq!(hist(HistKey::MessageLatency).0 + hist(HistKey::VoteLatency).0, 0);
        assert_eq!(d.gauges[GaugeKey::VirtualTime.index()], (6.0, 6.0));
        assert_eq!(d.end, 6.0);
        // A commit with no begin on its shard is quarantined, not timed
        // from zero.
        let fresh = RankMetrics::new(0, 1.0);
        fresh.fold(1.0, &EventKind::CheckpointCommit { seq: 2, bytes: 8, cost: 0.5 });
        let commit = &fresh.drain().hists[HistKey::CommitLatency.index()];
        assert_eq!((commit.count(), commit.quarantined()), (0, 1));
    }

    #[test]
    fn gauges_and_histograms_travel_in_the_drain() {
        let m = RankMetrics::new(0, 1.0);
        m.fold(12.5, &EventKind::RankFinish { busy: 12.5, comm: 0.0 });
        m.observe(HistKey::PayloadSize, 64.0);
        m.observe(HistKey::PayloadSize, f64::NAN);
        let d = m.drain();
        assert_eq!(d.gauges[GaugeKey::VirtualTime.index()], (12.5, 12.5));
        let h = &d.hists[HistKey::PayloadSize.index()];
        assert_eq!(h.count(), 1);
        assert_eq!(h.quarantined(), 1);
    }

    /// What the shard holds follows the grid cells it touched, not the
    /// increments it took: the per-increment log this replaced had a
    /// million entries for the first shard below.
    #[test]
    fn a_shard_grows_with_cells_touched_not_with_increments() {
        let m = RankMetrics::new(0, 0.5);
        for i in 0..1_000_000u32 {
            // 1 000 distinct stamps, all inside cell 3 = (1.0, 1.5].
            m.add(CounterKey::Sends, 1, 1.0 + f64::from(i % 1000 + 1) * 0.0005);
        }
        let d = m.drain();
        assert_eq!(d.cells.len(), 1);
        assert_eq!(d.cells[0].0, 3);
        assert_eq!(d.cells[0].1[CounterKey::Sends.index()], 1_000_000);
        assert_eq!(d.end, 1.5);

        let walk = RankMetrics::new(1, 0.5);
        for i in 0..50_000u32 {
            // 1 000 increments in each of cells 1..=50.
            walk.add(CounterKey::BytesSent, 8, f64::from(i / 1000) * 0.5 + 0.25);
        }
        let d = walk.drain();
        assert_eq!(
            d.cells.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            (1..=50).collect::<Vec<_>>()
        );
        assert_eq!(d.counters[CounterKey::BytesSent.index()], 400_000);
    }

    /// The cell cache changes no stamp's cell: in order, out of order (a
    /// death stamped before the rank's clock), on and beside the grid
    /// points, past 2^52 cells and off the grid, each stamp lands in
    /// `cell_of`'s cell, and the drain is the one a shard resolving every
    /// stamp with `cell_of` would give.
    #[test]
    fn the_cached_cell_is_cell_of_for_every_stamp() {
        let mut state = 46u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let beside = |t: f64| [t, f64::from_bits(t.to_bits() + 1), f64::from_bits(t.to_bits() - 1)];
        for interval in [1.0, 0.37, 1e-3, 3.0e7, 0.0, f64::NAN, f64::INFINITY] {
            let step = if is_grid(interval) { interval } else { 1.0 };
            let mut stamps = vec![0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            for k in 1u64..3000 {
                let edge = k as f64 * step;
                stamps.extend(beside(edge));
                // Clock steps inside the cell, then a death a few cells
                // back.
                for _ in 0..next() % 4 {
                    stamps.push(edge + step * (next() % 1000) as f64 * 1e-3);
                }
                if next() % 8 == 0 {
                    stamps.push(edge - step * (next() % 5) as f64);
                }
            }
            for k in [(1u64 << 52) - 2, (1 << 52) - 1, 1 << 52, 1 << 53] {
                stamps.extend(beside(k as f64 * step));
            }
            stamps.extend([1e300, f64::MIN_POSITIVE, f64::MAX]);

            let m = RankMetrics::new(0, interval);
            let (mut want, mut end): (Vec<GridCell>, f64) = (Vec::new(), 0.0);
            for (i, &t) in stamps.iter().enumerate() {
                let k = cell_of(t, interval);
                assert_eq!(m.cell(t), k, "{t:e} on a grid of {interval}");
                let (key, delta) = (CounterKey::ALL[i % CounterKey::COUNT], i as u64 % 3);
                m.add(key, delta, t);
                if delta == 0 {
                    continue;
                }
                match want.last_mut() {
                    Some((last, sums)) if *last == k => sums[key.index()] += delta,
                    _ => {
                        let mut sums = [0; CounterKey::COUNT];
                        sums[key.index()] = delta;
                        want.push((k, sums));
                    }
                }
                end = end.max(t);
            }
            let d = m.drain();
            assert_eq!(d.cells, want, "on a grid of {interval}");
            let mut counters = [0; CounterKey::COUNT];
            want.iter().for_each(|(_, sums)| add_into(&mut counters, sums));
            assert_eq!(d.counters, counters);
            assert_eq!(d.end.to_bits(), end.to_bits());
        }
    }

    #[test]
    fn a_stamp_lands_in_the_smallest_cell_whose_grid_point_covers_it() {
        for interval in [1.0, 0.37, 0.1, 2.5, 1e-3, 3.0e7] {
            for k in 0u64..2000 {
                let edge = k as f64 * interval;
                assert_eq!(cell_of(edge, interval), k, "{k}·{interval}");
                let above = f64::from_bits(edge.to_bits() + 1);
                assert_eq!(cell_of(above, interval), k + 1, "just past {k}·{interval}");
                if k > 0 {
                    let below = f64::from_bits(edge.to_bits() - 1);
                    assert_eq!(cell_of(below, interval), k, "just short of {k}·{interval}");
                }
            }
        }
        for interval in [1.0, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(cell_of(0.0, interval), 0);
            assert_eq!(cell_of(-3.0, interval), 0);
        }
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(cell_of(f64::MIN_POSITIVE, bad), 1);
            assert_eq!(cell_of(1e300, bad), 1);
        }
        // A ratio past every exact integer neither loops nor overflows.
        assert_eq!(cell_of(1.0, 5e-324), u64::MAX);
        assert!(cell_of(1e300, 1.0) >= 1 << 52);
    }
}
