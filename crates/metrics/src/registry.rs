//! The shared registry: drained shards merge here, grid cell by grid cell;
//! the scraper is a running sum over the merged cells.

use std::collections::BTreeMap;

use redcr_sched::sync::{Mutex, MutexGuard};
use redcr_trace::EventKind;

use crate::histogram::Histogram;
use crate::shard::{add_into, cell_of, is_grid, RankDrain};
use crate::{CounterKey, GaugeKey, HistKey, RankMetrics};

/// The world-shared metrics sink. Rank shards are absorbed at teardown (one
/// lock per rank per run); the layer without a rank thread (the executor
/// driver) folds its events into a rank-less shard held here, which joins
/// the totals whenever they are read. Cheap to share:
/// `Arc<MetricsRegistry>` mirrors how the trace `Collector` travels.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Scrape-grid spacing, virtual seconds; every shard folds onto it.
    interval: f64,
    /// The rank-less records: in the totals and the series, in no rank's
    /// per-rank counters.
    rankless: Mutex<RankMetrics>,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    counters: [u64; CounterKey::COUNT],
    gauges: [(f64, f64); GaugeKey::COUNT],
    hists: [Histogram; HistKey::COUNT],
    /// Per-rank counter totals.
    per_rank: BTreeMap<u32, [u64; CounterKey::COUNT]>,
    /// Counter increments by scrape-grid cell, every rank's and the
    /// rank-less ones merged; sparse, and they sum to `counters`.
    cells: BTreeMap<u64, [u64; CounterKey::COUNT]>,
    /// Latest increment stamp (at least zero).
    end: f64,
}

impl MetricsRegistry {
    /// An empty registry whose counter series will be scraped on a grid of
    /// `interval` virtual seconds.
    pub fn new(interval: f64) -> Self {
        MetricsRegistry {
            interval,
            // The rank of this shard is never read.
            rankless: Mutex::new(RankMetrics::new(u32::MAX, interval)),
            inner: Mutex::new(Inner {
                counters: [0; CounterKey::COUNT],
                gauges: [(f64::NAN, f64::NEG_INFINITY); GaugeKey::COUNT],
                hists: std::array::from_fn(|_| Histogram::new()),
                per_rank: BTreeMap::new(),
                cells: BTreeMap::new(),
                end: 0.0,
            }),
        }
    }

    /// Mints `rank`'s private shard, folding onto this registry's grid.
    pub fn shard(&self, rank: u32) -> RankMetrics {
        RankMetrics::new(rank, self.interval)
    }

    /// Merges a drained rank shard: counters, grid cells and histograms
    /// add, gauges keep the later-stamped value.
    pub fn absorb(&self, drain: RankDrain) {
        let mut inner = self.inner.lock();
        inner.merge(&drain);
        add_into(inner.per_rank.entry(drain.rank).or_default(), &drain.counters);
    }

    /// Folds one rank-less event, stamped `time`, the way a rank's shard
    /// folds its own ([`RankMetrics::fold`]).
    pub fn fold(&self, time: f64, kind: &EventKind) {
        self.rankless.lock().fold(time, kind);
    }

    /// Increments `key` by `delta` at virtual time `time`, rank-less: for a
    /// count no event carries (the deaths redundancy masked, which the
    /// executor's heal ledger works out).
    pub fn add(&self, key: CounterKey, delta: u64, time: f64) {
        self.rankless.lock().add(key, delta, time);
    }

    /// Records one rank-less observation of a value no event carries (a
    /// degraded interval, from the same ledger).
    pub fn observe(&self, key: HistKey, value: f64) {
        self.rankless.lock().observe(key, value);
    }

    /// The merged records, with the rank-less shard moved in first.
    fn settled(&self) -> MutexGuard<'_, Inner> {
        let rankless = self.rankless.lock().drain();
        let mut inner = self.inner.lock();
        inner.merge(&rankless);
        inner
    }

    /// A copy of the current totals.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.settled();
        MetricsSnapshot {
            counters: inner.counters,
            gauges: inner.gauges,
            hists: inner.hists.clone(),
        }
    }

    /// The counter series on the registry's virtual-time grid: sample `k`
    /// holds every counter's value at virtual time `k·interval`, the sum of
    /// grid cells `0..=k` (increments stamped exactly on a grid point are
    /// included in that point). The series is monotone non-decreasing by
    /// construction and its final sample equals the drained totals exactly.
    ///
    /// A non-positive or non-finite interval collapses the grid to a
    /// single final sample. A grid that would exceed one million points is
    /// coarsened to that bound (the totals are unaffected).
    pub fn scrape(&self) -> Vec<ScrapePoint> {
        const MAX_POINTS: f64 = 1_000_000.0;
        let inner = self.settled();
        let (interval, end) = (self.interval, inner.end);
        let (spacing, coarsened) = if !is_grid(interval) {
            // One point at the end of the run.
            (end.max(1.0), false)
        } else if end / interval > MAX_POINTS {
            (end / MAX_POINTS, true)
        } else {
            (interval, false)
        };
        // The point `end` falls on is the last; a coarsened cell moves to
        // where its upper edge falls on the wider grid, but never past it.
        let last = cell_of(end, spacing);
        let place =
            |k: u64| if coarsened { cell_of(k as f64 * interval, spacing).min(last) } else { k };

        let mut points = Vec::new();
        let mut acc = [0u64; CounterKey::COUNT];
        let mut settle = |len: u64, counters: [u64; CounterKey::COUNT]| {
            let open = points.len() as u64..len;
            points.extend(open.map(|k| ScrapePoint { time: k as f64 * spacing, counters }));
        };
        for (&k, sums) in &inner.cells {
            // Nothing later can reach the points before this cell's.
            settle(place(k), acc);
            add_into(&mut acc, sums);
        }
        settle(last + 1, acc);
        points
    }

    /// Bundles totals, per-rank counters and the scraped series into one
    /// detached report.
    pub fn report(&self) -> MetricsReport {
        let per_rank = self.inner.lock().per_rank.iter().map(|(&r, &sums)| (r, sums)).collect();
        MetricsReport {
            totals: self.snapshot(),
            per_rank,
            scrape_interval: self.interval,
            series: self.scrape(),
        }
    }
}

impl Inner {
    /// Adds a drain's counters, grid cells and histograms in; its gauges
    /// replace earlier-stamped ones.
    fn merge(&mut self, drain: &RankDrain) {
        add_into(&mut self.counters, &drain.counters);
        for (k, sums) in &drain.cells {
            add_into(self.cells.entry(*k).or_default(), sums);
        }
        self.end = self.end.max(drain.end);
        for (i, &(value, time)) in drain.gauges.iter().enumerate() {
            if time > self.gauges[i].1 {
                self.gauges[i] = (value, time);
            }
        }
        for (i, h) in drain.hists.iter().enumerate() {
            self.hists[i].merge(h);
        }
    }
}

/// A point-in-time copy of every metric's total.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    counters: [u64; CounterKey::COUNT],
    gauges: [(f64, f64); GaugeKey::COUNT],
    hists: [Histogram; HistKey::COUNT],
}

impl MetricsSnapshot {
    /// Value of counter `key`.
    pub fn counter(&self, key: CounterKey) -> u64 {
        self.counters[key.index()]
    }

    /// Last value of gauge `key`, if it was ever set.
    pub fn gauge(&self, key: GaugeKey) -> Option<f64> {
        let (value, time) = self.gauges[key.index()];
        time.is_finite().then_some(value)
    }

    /// The histogram for `key`.
    pub fn histogram(&self, key: HistKey) -> &Histogram {
        &self.hists[key.index()]
    }
}

/// One sample of the scraped time series: every counter's value at virtual
/// time `time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrapePoint {
    /// Grid time, virtual seconds.
    pub time: f64,
    /// Counter values at `time`, indexed like [`CounterKey::ALL`].
    pub counters: [u64; CounterKey::COUNT],
}

impl ScrapePoint {
    /// Value of counter `key` at this point.
    pub fn counter(&self, key: CounterKey) -> u64 {
        self.counters[key.index()]
    }
}

/// A detached metrics report: what an execution hands back when metrics
/// were enabled.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Final totals across all ranks and layers.
    pub totals: MetricsSnapshot,
    /// Per-rank counter totals, sorted by rank. Executor-level (rank-less)
    /// increments are only in [`totals`](MetricsReport::totals).
    pub per_rank: Vec<(u32, [u64; CounterKey::COUNT])>,
    /// The grid spacing the series was scraped at, virtual seconds.
    pub scrape_interval: f64,
    /// The scraped counter time series.
    pub series: Vec<ScrapePoint>,
}

impl MetricsReport {
    /// Per-rank value of counter `key`, as `(rank, value)` pairs.
    pub fn per_rank_counter(&self, key: CounterKey) -> Vec<(u32, u64)> {
        self.per_rank.iter().map(|&(r, ref c)| (r, c[key.index()])).collect()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn absorb_merges_counters_per_rank_and_histograms() {
        let reg = MetricsRegistry::new(1.0);
        let a = reg.shard(0);
        a.add(CounterKey::Sends, 1, 1.0);
        a.observe(HistKey::PayloadSize, 8.0);
        a.fold(5.0, &EventKind::RankFinish { busy: 5.0, comm: 0.0 });
        let b = reg.shard(1);
        b.add(CounterKey::Sends, 1, 2.0);
        b.add(CounterKey::Recvs, 1, 2.5);
        b.observe(HistKey::PayloadSize, 16.0);
        b.fold(7.0, &EventKind::RankFinish { busy: 7.0, comm: 0.0 });
        reg.absorb(a.drain());
        reg.absorb(b.drain());
        reg.add(CounterKey::Attempts, 1, 7.0);

        let snap = reg.snapshot();
        assert_eq!(snap.counter(CounterKey::Sends), 2);
        assert_eq!(snap.counter(CounterKey::Recvs), 1);
        assert_eq!(snap.counter(CounterKey::Attempts), 1);
        assert_eq!(snap.gauge(GaugeKey::VirtualTime), Some(7.0), "later stamp wins");
        assert_eq!(snap.histogram(HistKey::PayloadSize).count(), 2);

        let report = reg.report();
        assert_eq!(report.per_rank_counter(CounterKey::Sends), vec![(0, 1), (1, 1)]);
        assert_eq!(report.scrape_interval, 1.0);
    }

    fn assert_monotone_and_lands_on_totals(reg: &MetricsRegistry, series: &[ScrapePoint]) {
        for pair in series.windows(2) {
            assert!(pair[1].time > pair[0].time);
            for k in CounterKey::ALL {
                assert!(pair[1].counter(k) >= pair[0].counter(k), "{k:?} not monotone");
            }
        }
        let totals = reg.snapshot();
        let last = series.last().unwrap();
        for k in CounterKey::ALL {
            assert_eq!(last.counter(k), totals.counter(k), "{k:?} final sample != total");
        }
    }

    #[test]
    fn scrape_is_monotone_and_final_sample_equals_totals() {
        let reg = MetricsRegistry::new(1.0);
        let m = reg.shard(0);
        for i in 0..10 {
            m.add(CounterKey::Sends, 1, i as f64 * 0.7);
            m.add(CounterKey::BytesSent, 100, i as f64 * 0.7);
        }
        reg.absorb(m.drain());
        reg.add(CounterKey::Attempts, 1, 6.5);

        let series = reg.scrape();
        assert!(series.len() >= 7, "6.3s of samples on a 1s grid: {}", series.len());
        assert_monotone_and_lands_on_totals(&reg, &series);
        // Boundary stamps are included in the grid point they land on.
        let at_0 = &series[0];
        assert_eq!(at_0.counter(CounterKey::Sends), 1, "t=0 increment included at t=0");
    }

    #[test]
    fn degenerate_intervals_collapse_to_final_sample() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let reg = MetricsRegistry::new(bad);
            reg.add(CounterKey::Sends, 3, 2.0);
            let series = reg.scrape();
            let last = series.last().unwrap();
            assert_eq!(last.counter(CounterKey::Sends), 3, "interval {bad}");
        }
        // Empty registry still yields one (all-zero) sample.
        let empty = MetricsRegistry::new(1.0);
        let series = empty.scrape();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].counter(CounterKey::Sends), 0);
    }

    #[test]
    fn a_grid_past_a_million_points_is_coarsened_onto_the_totals() {
        let reg = MetricsRegistry::new(1.0);
        let m = reg.shard(0);
        m.add(CounterKey::Sends, 1, 0.0);
        m.add(CounterKey::BytesSent, 7, 2.5);
        m.add(CounterKey::BytesSent, 9, 4_999_999.5);
        reg.absorb(m.drain());
        reg.add(CounterKey::Attempts, 1, 5.0e6);

        let series = reg.scrape();
        assert!(series.len() <= 1_000_001, "{} points", series.len());
        assert!(series.len() > 999_000, "coarsened to the bound, not below it: {}", series.len());
        assert_monotone_and_lands_on_totals(&reg, &series);
        assert_eq!(series[0].counter(CounterKey::Sends), 1);
        assert_eq!(series[1].counter(CounterKey::BytesSent), 7, "2.5 s is inside the first 5 s");
        assert_eq!(series.last().unwrap().time, 5.0e6);
    }

    /// The scraper this crate had before counters were folded onto the
    /// grid as they happen, kept as the reference: hold every increment,
    /// sort the stream by stamp, and replay it against the grid with
    /// `stamp <= k·interval`.
    fn replay(mut stream: Vec<(f64, CounterKey, u64)>, interval: f64) -> Vec<ScrapePoint> {
        stream.sort_by(|a, b| a.0.total_cmp(&b.0));
        let end = stream.last().map_or(0.0, |s| s.0).max(0.0);
        let interval = if interval.is_finite() && interval > 0.0 {
            assert!(end / interval <= 1_000_000.0, "coarsening is not part of the reference");
            interval
        } else {
            end.max(1.0)
        };
        let mut points = Vec::new();
        let mut acc = [0u64; CounterKey::COUNT];
        let mut next = 0usize;
        for k in 0u64.. {
            let t = k as f64 * interval;
            while next < stream.len() && stream[next].0 <= t {
                acc[stream[next].1.index()] += stream[next].2;
                next += 1;
            }
            points.push(ScrapePoint { time: t, counters: acc });
            if t >= end {
                break;
            }
        }
        points
    }

    const INTERVALS: [f64; 9] = [1.0, 0.37, 0.1, 2.5, 1e-3, 0.7, 0.0, -2.0, f64::NAN];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Increments reach the registry through three rank shards and the
        /// rank-less door, with stamps out of order, on grid points and one
        /// ulp either side of them; shards drain in any order, some twice.
        #[test]
        fn the_fold_is_the_replay(
            interval in 0usize..INTERVALS.len(),
            stretch in 0.5f64..2.0,
            ops in prop::collection::vec(
                (0usize..4, 0u32..60, 0u8..5, 0.0f64..1.0, 0usize..CounterKey::COUNT, 0u64..4),
                0..200,
            ),
            early_drain in 0usize..200,
            order in 0usize..6,
        ) {
            // The listed spacings as they are (the decimal ones are where a
            // quotient rounds across a boundary), or stretched to any other.
            let interval = INTERVALS[interval] * if stretch < 1.0 { 1.0 } else { stretch };
            let reg = MetricsRegistry::new(interval);
            let shards = [reg.shard(0), reg.shard(1), reg.shard(2)];
            let step = if interval > 0.0 { interval } else { 1.0 };
            let mut stream = Vec::new();
            for (i, &(door, point, nudge, frac, key, delta)) in ops.iter().enumerate() {
                let edge = f64::from(point) * step;
                let time = match nudge {
                    0 => edge,
                    1 => f64::from_bits(edge.to_bits() + 1),
                    2 if point > 0 => f64::from_bits(edge.to_bits() - 1),
                    2 => -frac,
                    _ => edge + frac * step,
                };
                let key = CounterKey::ALL[key];
                match shards.get(door) {
                    Some(shard) => shard.add(key, delta, time),
                    None => reg.add(key, delta, time),
                }
                if delta > 0 {
                    stream.push((time, key, delta));
                }
                if i == early_drain {
                    reg.absorb(shards[door % 3].drain());
                }
            }
            for at in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]][order] {
                reg.absorb(shards[at].drain());
            }
            let expected = replay(stream, interval);
            let series = reg.scrape();
            prop_assert_eq!(series.len(), expected.len());
            for (got, want) in series.iter().zip(&expected) {
                prop_assert_eq!(got.time.to_bits(), want.time.to_bits());
                prop_assert_eq!(got.counters, want.counters, "at t={}", want.time);
            }
        }
    }
}
