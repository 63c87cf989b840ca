//! Per-rank thread-local metric shards, and the scrape grid they fold
//! counter increments into.

use std::cell::{Cell, RefCell};

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

/// A rank thread's private metric shard: `Send` (created on the rank's own
/// thread) but not `Sync`, exactly like the flight recorder's `Recorder`.
/// Every operation is a `Cell` update plus, for counters, an add into the
/// current grid cell — no locks or atomics on the hot path, and nothing
/// that grows with the number of increments.
#[derive(Debug)]
pub struct RankMetrics {
    rank: u32,
    counters: [Cell<u64>; CounterKey::COUNT],
    /// `(value, time)` per gauge; unset = `(NAN, NEG_INFINITY)`.
    gauges: [Cell<(f64, f64)>; GaugeKey::COUNT],
    hists: RefCell<[Histogram; HistKey::COUNT]>,
    /// Scrape-grid spacing, virtual seconds.
    interval: f64,
    /// Increments by grid cell, in arrival order: a bump joins the last
    /// cell if it is stamped there, otherwise it opens a new one.
    cells: RefCell<Vec<GridCell>>,
    /// Latest stamp seen (at least zero).
    end: Cell<f64>,
}

impl RankMetrics {
    /// An empty shard attributing everything to `rank`, folding counter
    /// increments onto a grid of `interval` virtual seconds. Minted by
    /// [`MetricsRegistry::shard`](crate::MetricsRegistry::shard), which is
    /// what keeps a shard's grid the registry's.
    pub(crate) fn new(rank: u32, interval: f64) -> Self {
        RankMetrics {
            rank,
            counters: std::array::from_fn(|_| Cell::new(0)),
            gauges: std::array::from_fn(|_| Cell::new((f64::NAN, f64::NEG_INFINITY))),
            hists: RefCell::new(std::array::from_fn(|_| Histogram::new())),
            interval,
            cells: RefCell::new(Vec::new()),
            end: Cell::new(0.0),
        }
    }

    /// The owning rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Increments `key` by one at virtual time `time`.
    pub fn inc(&self, key: CounterKey, time: f64) {
        self.add(key, 1, time);
    }

    /// Increments `key` by `delta` at virtual time `time`. A zero delta is
    /// a no-op (it must not open a grid cell or move the latest stamp).
    pub fn add(&self, key: CounterKey, delta: u64, time: f64) {
        if delta == 0 {
            return;
        }
        let c = &self.counters[key.index()];
        c.set(c.get() + delta);
        // Stamps need not arrive in order (a death carries its sampled
        // time, which can precede the rank's clock), so the list may
        // revisit a cell; the registry merges by `k`.
        let k = cell_of(time, self.interval);
        let mut cells = self.cells.borrow_mut();
        match cells.last_mut() {
            Some((last, sums)) if *last == k => sums[key.index()] += delta,
            _ => {
                let mut sums = [0; CounterKey::COUNT];
                sums[key.index()] = delta;
                cells.push((k, sums));
            }
        }
        self.end.set(self.end.get().max(time));
    }

    /// Sets gauge `key` to `value` at virtual time `time`.
    pub fn set_gauge(&self, key: GaugeKey, value: f64, time: f64) {
        self.gauges[key.index()].set((value, time));
    }

    /// Records one histogram observation.
    pub fn observe(&self, key: HistKey, value: f64) {
        self.hists.borrow_mut()[key.index()].observe(value);
    }

    /// Current value of counter `key`.
    pub fn counter(&self, key: CounterKey) -> u64 {
        self.counters[key.index()].get()
    }

    /// Moves everything out of the shard (for
    /// [`MetricsRegistry::absorb`](crate::MetricsRegistry::absorb)),
    /// leaving it empty — a second drain contributes nothing.
    pub fn drain(&self) -> RankDrain {
        RankDrain {
            rank: self.rank,
            counters: std::array::from_fn(|i| self.counters[i].replace(0)),
            gauges: std::array::from_fn(|i| self.gauges[i].replace((f64::NAN, f64::NEG_INFINITY))),
            hists: std::mem::replace(
                &mut *self.hists.borrow_mut(),
                std::array::from_fn(|_| Histogram::new()),
            ),
            cells: std::mem::take(&mut *self.cells.borrow_mut()),
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
        m.inc(CounterKey::Sends, 1.0);
        m.add(CounterKey::BytesSent, 64, 1.0);
        m.add(CounterKey::BytesSent, 0, 2.0); // no-op
        m.inc(CounterKey::Sends, 2.0);
        assert_eq!(m.counter(CounterKey::Sends), 2);
        assert_eq!(m.counter(CounterKey::BytesSent), 64);
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
        // Drained: a second drain is empty.
        let d2 = m.drain();
        assert_eq!(d2.counters[CounterKey::Sends.index()], 0);
        assert!(d2.cells.is_empty());
        assert_eq!(d2.end, 0.0);
    }

    #[test]
    fn gauges_and_histograms_travel_in_the_drain() {
        let m = RankMetrics::new(0, 1.0);
        m.set_gauge(GaugeKey::VirtualTime, 12.5, 12.5);
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
            m.inc(CounterKey::Sends, 1.0 + f64::from(i % 1000 + 1) * 0.0005);
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
