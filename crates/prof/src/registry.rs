//! The shared registry: hands out shards, absorbs their drains at
//! teardown, and produces the final [`ProfReport`].

use std::sync::Mutex;
use std::time::Instant;

use crate::report::ProfReport;
use crate::shard::{ProfDrain, RankProf};

/// Who a drained shard belonged to. Scopes order deterministically
/// (driver, then ranks, then workers) regardless of teardown order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProfScope {
    /// The executor driver thread (segment loop, heal cycles).
    Driver,
    /// One physical rank thread of the simulated world.
    Rank(u32),
    /// One sweep-engine worker thread.
    Worker(u32),
}

impl ProfScope {
    /// Stable label used in the JSON sidecar and folded-stack frames.
    pub fn label(&self) -> String {
        match self {
            ProfScope::Driver => "driver".to_owned(),
            ProfScope::Rank(r) => format!("rank{r}"),
            ProfScope::Worker(w) => format!("worker{w}"),
        }
    }

    /// A number unique to the scope: what seeds its shards' timing
    /// schedules, so they differ between ranks and repeat between runs.
    pub(crate) fn seed(&self) -> u64 {
        match *self {
            ProfScope::Driver => 0,
            ProfScope::Rank(r) => 1 << 32 | u64::from(r),
            ProfScope::Worker(w) => 2 << 32 | u64::from(w),
        }
    }
}

/// The shared wall-clock profiler.
///
/// Mirrors `redcr_metrics::MetricsRegistry`: rank threads record into
/// their own lock-free [`RankProf`] shards and absorb them here exactly
/// once at teardown, so the internal `Mutex` is never taken on a hot path
/// and never nests with any other workspace lock.
#[derive(Debug)]
pub struct Profiler {
    origin: Instant,
    inner: Mutex<Vec<ProfDrain>>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Creates an empty profiler; its creation instant is the origin all
    /// counter-track timestamps are relative to.
    pub fn new() -> Self {
        Profiler { origin: Instant::now(), inner: Mutex::new(Vec::new()) }
    }

    /// Creates `scope`'s fresh shard, sharing this profiler's time origin.
    /// Move it onto the recording thread and [`absorb`](Self::absorb) its
    /// drain at teardown.
    pub fn shard(&self, scope: ProfScope) -> RankProf {
        RankProf::new(scope, self.origin)
    }

    /// Absorbs one drained shard. Repeated absorbs for the same scope
    /// merge (a rank thread per attempt, say).
    pub fn absorb(&self, drain: ProfDrain) {
        let mut inner = self.inner.lock().expect("profiler poisoned");
        if let Some(slot) = inner.iter_mut().find(|d| d.scope == drain.scope) {
            slot.merge(drain);
        } else {
            inner.push(drain);
        }
    }

    /// Drains everything absorbed so far into a report, sorted by scope.
    pub fn report(&self) -> ProfReport {
        let mut scopes = std::mem::take(&mut *self.inner.lock().expect("profiler poisoned"));
        scopes.sort_by_key(|d| d.scope);
        ProfReport::new(scopes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::CounterKey;

    #[test]
    fn absorb_merges_same_scope_and_sorts() {
        let p = Profiler::new();
        let s = p.shard(ProfScope::Rank(3));
        s.count(CounterKey::Parks);
        p.absorb(s.drain());
        s.count(CounterKey::Parks);
        s.count(CounterKey::Parks);
        p.absorb(s.drain());
        let d = p.shard(ProfScope::Driver);
        d.count(CounterKey::Wakes);
        p.absorb(d.drain());

        let report = p.report();
        let labels: Vec<_> = report.scopes().iter().map(|s| s.label().to_owned()).collect();
        assert_eq!(labels, ["driver", "rank3"]);
        assert_eq!(report.total_counter(CounterKey::Parks), 3);
        assert_eq!(report.total_counter(CounterKey::Wakes), 1);
    }

    #[test]
    fn a_peak_merges_by_maximum() {
        let p = Profiler::new();
        for (scope, v) in [(0, 300), (0, 100), (1, 250)] {
            let s = p.shard(ProfScope::Worker(scope));
            s.add(CounterKey::StackHighWater, v);
            s.add(CounterKey::Steals, v);
            p.absorb(s.drain());
        }
        let report = p.report();
        let peaks: Vec<u64> =
            report.scopes().iter().map(|s| s.counter(CounterKey::StackHighWater)).collect();
        assert_eq!(peaks, [300, 250]);
        assert_eq!(report.total_counter(CounterKey::StackHighWater), 300);
        assert_eq!(report.total_counter(CounterKey::Steals), 650);
    }
}
