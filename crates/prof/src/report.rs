//! The drained profiling result and its three export formats: JSON
//! sidecar, inferno folded stacks, and Perfetto counter-track data.

use std::fmt::Write as _;

use redcr_json::Writer;

use crate::keys::{CounterKey, SpanKey, TrackKey};
use crate::shard::{ProfDrain, TrackSample, ALWAYS_TIMED, MEAN_GAP};

/// Statistics of one span key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Times the span was entered. Exact.
    pub count: u64,
    /// Entries whose duration was measured.
    pub timed: u64,
    /// Total wall-clock nanoseconds across all entries: per shard,
    /// `timed_total × count / timed` — exact where `timed == count`.
    pub total_ns: u64,
    /// Longest measured entry, nanoseconds.
    pub max_ns: u64,
    /// Standard error of `total_ns`, nanoseconds (0 where it is exact).
    pub stderr_ns: f64,
}

impl SpanStat {
    /// Mean nanoseconds per entry (0 when never entered).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Standard error of `total_ns` as a fraction of it.
    pub fn rel_stderr(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.stderr_ns / self.total_ns as f64
        }
    }

    /// Adds an independent sample's statistics (another shard's).
    pub(crate) fn merge(&mut self, other: SpanStat) {
        self.count += other.count;
        self.timed += other.timed;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.stderr_ns = self.stderr_ns.hypot(other.stderr_ns);
    }
}

/// One scope's (driver / rank / worker) drained profile.
#[derive(Debug)]
pub struct ScopeProf {
    label: String,
    drain: ProfDrain,
}

impl ScopeProf {
    /// The scope's stable label (`driver`, `rank3`, `worker0`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Statistics of one span key on this scope.
    pub fn span(&self, key: SpanKey) -> SpanStat {
        self.drain.spans[key.index()]
    }

    /// Value of one counter on this scope.
    pub fn counter(&self, key: CounterKey) -> u64 {
        self.drain.counters[key.index()]
    }

    /// Samples of one counter track on this scope.
    pub fn track(&self, key: TrackKey) -> &[TrackSample] {
        &self.drain.tracks[key.index()]
    }

    /// Track samples offered but not kept: off the schedule, or decimated
    /// when a track filled.
    pub fn samples_dropped(&self) -> u64 {
        self.drain.samples_dropped
    }

    /// Clock readings this scope's shards made, spans and track samples
    /// together.
    pub fn clock_reads(&self) -> u64 {
        self.drain.clock_reads
    }
}

/// One counter track flattened for the Perfetto export: the scope label,
/// the track name, and (nanosecond, value) samples in record order.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrackData {
    /// Owning scope label (`rank0`, ...).
    pub scope: String,
    /// Track name (`queue_depth`, `parks`).
    pub name: &'static str,
    /// Samples: wall-clock nanoseconds since the profiler origin, value.
    pub samples: Vec<(u64, f64)>,
}

/// The final, drained profiling result.
#[derive(Debug)]
pub struct ProfReport {
    scopes: Vec<ScopeProf>,
}

impl ProfReport {
    pub(crate) fn new(scopes: Vec<ProfDrain>) -> Self {
        ProfReport {
            scopes: scopes
                .into_iter()
                .map(|drain| ScopeProf { label: drain.scope.label(), drain })
                .collect(),
        }
    }

    /// Per-scope profiles, sorted driver → ranks → workers.
    pub fn scopes(&self) -> &[ScopeProf] {
        &self.scopes
    }

    /// Aggregate statistics of one span key across every scope.
    pub fn total_span(&self, key: SpanKey) -> SpanStat {
        let mut out = SpanStat::default();
        for s in &self.scopes {
            out.merge(s.span(key));
        }
        out
    }

    /// Clock readings made across every scope.
    pub fn clock_reads(&self) -> u64 {
        self.scopes.iter().map(ScopeProf::clock_reads).sum()
    }

    /// Aggregate value of one counter across every scope: the sum, or for
    /// a peak the maximum ([`CounterKey::merge`]).
    pub fn total_counter(&self, key: CounterKey) -> u64 {
        self.scopes.iter().map(|s| s.counter(key)).fold(0, |a, b| key.merge(a, b))
    }

    /// One-line human summary of the parking behaviour — the headline
    /// number for the M:N scheduler baseline.
    pub fn park_summary(&self) -> String {
        let park = self.total_span(SpanKey::MailboxPark);
        let wait = self.total_span(SpanKey::MailboxRecvWait);
        format!(
            "parks={} wakes={} spin_resolved={} park_resolved={} parked={:.3}ms of {:.3}ms recv-wait",
            self.total_counter(CounterKey::Parks),
            self.total_counter(CounterKey::Wakes),
            self.total_counter(CounterKey::SpinResolved),
            self.total_counter(CounterKey::ParkResolved),
            park.total_ns as f64 / 1e6,
            wait.total_ns as f64 / 1e6,
        )
    }

    /// One-line human summary of the M:N scheduler — how rank tasks moved
    /// between run queues and how busy the workers were.
    pub fn sched_summary(&self) -> String {
        let idle = self.total_span(SpanKey::WorkerIdle);
        format!(
            "task_wakes={} remote_wakes={} local_hits={} steals={} loans={} worker_parks={} idle={:.3}ms",
            self.total_counter(CounterKey::TaskWakes),
            self.total_counter(CounterKey::RemoteWakes),
            self.total_counter(CounterKey::LocalHits),
            self.total_counter(CounterKey::Steals),
            self.total_counter(CounterKey::Loans),
            self.total_counter(CounterKey::WorkerParks),
            idle.total_ns as f64 / 1e6,
        )
    }

    /// Renders the JSON sidecar (`redcr-prof/2` schema): the sampling
    /// constants and the clock readings they led to, aggregate span and
    /// counter tables (every key, zeros included, so the shape is stable)
    /// plus sparse per-scope breakdowns. A span's `count` is exact; its
    /// `total_ns` is estimated from its `timed` entries wherever the two
    /// differ, to within `rel_stderr`; `max_ns` is over the timed entries.
    pub fn to_json(&self, scenario: &str) -> String {
        let mut out = String::with_capacity(4096);
        let mut w = Writer::document(&mut out, "redcr-prof/2");
        w.field("scenario", scenario);
        w.key("sampling").inline().begin_object();
        w.field("always_timed", ALWAYS_TIMED).field("mean_gap", MEAN_GAP);
        w.field("clock_reads", self.clock_reads()).end_object();
        w.key("totals").begin_object();
        w.key("spans").begin_object();
        for key in SpanKey::ALL {
            let st = self.total_span(key);
            w.key(key.name()).inline().begin_object();
            span_members(&mut w, st).field("mean_ns", st.mean_ns()).end_object();
        }
        w.end_object();
        w.key("counters").begin_object();
        for key in CounterKey::ALL {
            w.field(key.name(), self.total_counter(key));
        }
        w.end_object().end_object();
        w.key("scopes").begin_array();
        for scope in &self.scopes {
            w.inline().begin_object().field("scope", scope.label());
            w.key("spans").begin_object();
            for key in SpanKey::ALL {
                let st = scope.span(key);
                if st.count > 0 {
                    w.key(key.name()).begin_object();
                    span_members(&mut w, st).end_object();
                }
            }
            w.end_object();
            w.key("counters").begin_object();
            for key in CounterKey::ALL {
                let v = scope.counter(key);
                if v > 0 {
                    w.field(key.name(), v);
                }
            }
            w.end_object();
            w.field("samples_dropped", scope.samples_dropped()).end_object();
        }
        w.end_array();
        w.end_document();
        out
    }

    /// Renders inferno-compatible folded stacks, one line per scope and
    /// span key with nonzero self-time: `scope;frame;frame <nanoseconds>`.
    ///
    /// Spans are independent instruments, not a sampled call-stack; the
    /// only containment the export accounts for is the declared
    /// [`SpanKey::parent`] relation (park time is subtracted from its
    /// enclosing receive wait), so sibling spans that happen to overlap
    /// render side by side.
    pub fn folded(&self) -> String {
        let mut out = String::with_capacity(1024);
        for scope in &self.scopes {
            for key in SpanKey::ALL {
                let st = scope.span(key);
                if st.count == 0 {
                    continue;
                }
                let child_ns: u64 = SpanKey::ALL
                    .iter()
                    .filter(|k| k.parent() == Some(key))
                    .map(|k| scope.span(*k).total_ns)
                    .sum();
                let self_ns = st.total_ns.saturating_sub(child_ns);
                if self_ns == 0 {
                    continue;
                }
                let _ = writeln!(out, "{};{} {}", scope.label(), key.stack(), self_ns);
            }
        }
        out
    }

    /// Flattens every nonempty counter track for the Perfetto export.
    pub fn counter_tracks(&self) -> Vec<CounterTrackData> {
        let mut out = Vec::new();
        for scope in &self.scopes {
            for key in TrackKey::ALL {
                let samples = scope.track(key);
                if samples.is_empty() {
                    continue;
                }
                out.push(CounterTrackData {
                    scope: scope.label().to_owned(),
                    name: key.name(),
                    samples: samples.iter().map(|s| (s.at_ns, s.value)).collect(),
                });
            }
        }
        out
    }

    /// Whether nothing at all was recorded (profiling hooked up but the
    /// run had no instrumented activity).
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }

    /// Internal scope lookup used by the scope accessor in tests/tools.
    pub fn scope(&self, label: &str) -> Option<&ScopeProf> {
        self.scopes.iter().find(|s| s.label == label)
    }
}

fn span_members<'w, 'a>(w: &'w mut Writer<'a>, st: SpanStat) -> &'w mut Writer<'a> {
    w.field("count", st.count).field("timed", st.timed).field("total_ns", st.total_ns);
    w.field("max_ns", st.max_ns).field("rel_stderr", st.rel_stderr())
}

#[cfg(test)]
mod tests {
    use crate::{CounterKey, ProfScope, Profiler, SpanKey, TrackKey};

    fn sample_report() -> crate::ProfReport {
        let p = Profiler::new();
        let s = p.shard(ProfScope::Rank(0));
        {
            let _wait = s.span(SpanKey::MailboxRecvWait);
            let _park = s.span(SpanKey::MailboxPark);
        }
        s.count(CounterKey::Parks);
        s.count(CounterKey::Wakes);
        s.sample(TrackKey::QueueDepth, 2.0);
        p.absorb(s.drain());
        p.report()
    }

    #[test]
    fn json_sidecar_has_schema_and_all_keys() {
        let json = sample_report().to_json("unit");
        assert!(json.contains("\"schema\": \"redcr-prof/2\""));
        assert!(json.contains("\"scenario\": \"unit\""));
        for key in SpanKey::ALL {
            assert!(json.contains(&format!("\"{}\"", key.name())), "{}", key.name());
        }
        for key in CounterKey::ALL {
            assert!(json.contains(&format!("\"{}\"", key.name())), "{}", key.name());
        }
    }

    #[test]
    fn folded_lines_are_scope_prefixed_with_weights() {
        let folded = sample_report().folded();
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("weight separator");
            assert!(stack.starts_with("rank0;"), "{line}");
            weight.parse::<u64>().expect("integer nanosecond weight");
        }
        assert!(folded.contains("rank0;mailbox;recv_wait;park "));
    }

    #[test]
    fn folded_self_time_saturates_when_a_childs_estimate_exceeds_its_parents() {
        // Parent and child are estimated from different entries, so a
        // child's total can come out above the wait that encloses it.
        let s = Profiler::new().shard(ProfScope::Rank(0));
        let mut drain = s.drain();
        let stat =
            |total_ns| crate::SpanStat { count: 100, timed: 70, total_ns, ..Default::default() };
        assert_eq!(SpanKey::MailboxPark.parent(), Some(SpanKey::MailboxRecvWait));
        drain.spans[SpanKey::MailboxRecvWait.index()] = stat(900);
        drain.spans[SpanKey::MailboxPark.index()] = stat(1000);
        let folded = crate::ProfReport::new(vec![drain]).folded();
        assert_eq!(
            folded, "rank0;mailbox;recv_wait;park 1000\n",
            "no line for a parent with no self time"
        );
    }

    #[test]
    fn counter_tracks_flatten_nonempty_only() {
        let tracks = sample_report().counter_tracks();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].scope, "rank0");
        assert_eq!(tracks[0].name, "queue_depth");
        assert_eq!(tracks[0].samples.len(), 1);
    }
}
