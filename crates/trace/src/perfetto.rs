//! Chrome/Perfetto `trace_event` JSON export of a [`Trace`].
//!
//! [`export`] renders a flight-recorder trace as a JSON array in the
//! [Trace Event Format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! that both `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! open directly:
//!
//! - one **track per physical rank** (thread `rank + 1` of process 0),
//!   named with the rank's sphere and replica index, plus an `executor`
//!   track (thread 0) carrying one slice per attempt;
//! - `X` (complete) slices for attempts and for `CheckpointBegin` →
//!   `CheckpointCommit` windows on each rank;
//! - `i` (instant) markers for deaths, scheduled fail-stops, wildcard
//!   leader failovers and checkpoint restores;
//! - **flow arrows** (`s`/`f` pairs bound to 1 µs `send`/`recv` slices)
//!   for every matched physical message, paired by
//!   [`fifo_pairs`](crate::critical) within an attempt.
//!
//! Timestamps are **virtual microseconds** (virtual seconds × 10⁶), so the
//! Perfetto timeline reads directly in the paper's virtual time.
//!
//! The document is a JSON array with one compact event object per line;
//! the line framing is this module's, every object is `redcr-json`'s.
//!
//! [`validate`] re-parses an emitted document and checks the structural
//! invariants above, returning a [`PerfettoSummary`] of what it found —
//! the CI smoke test and the acceptance tests run every export through it.

use std::collections::BTreeMap;
use std::fmt;

use redcr_json::{Value, Writer};

use crate::analyzer::{Analysis, AnalyzeError};
use crate::critical::fifo_pairs;
use crate::event::EventKind;
use crate::recorder::Trace;

/// Virtual seconds → trace microseconds.
const US: f64 = 1e6;

/// A wall-clock counter track to merge into an export as Perfetto `C`
/// (counter) events — the bridge between the wall-clock profiling plane
/// and the virtual-time trace. Defined here as a plain data carrier so the
/// trace crate needs no dependency on the profiler; callers map from
/// `redcr_prof::CounterTrackData`.
///
/// Counter timestamps are **wall microseconds since the profiler's
/// origin**, a different time base from the virtual-time tracks; the
/// export therefore parks counters in their own process (`pid` 1, named
/// `"redcr-prof (wall-clock)"`) so the two planes never read as one
/// timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Shard label the samples came from (`"rank3"`, `"driver"`, …).
    pub scope: String,
    /// Counter name (`"queue_depth"`, `"parks"`, …).
    pub name: &'static str,
    /// `(wall nanoseconds since origin, value)` samples, ascending.
    pub samples: Vec<(u64, f64)>,
}

/// Renders `trace` as a Chrome `trace_event` JSON array.
///
/// The trace is replayed through [`Analysis::analyze`] first (for sphere
/// membership and attempt brackets), so a structurally broken trace is
/// rejected instead of exported.
///
/// # Errors
///
/// Returns the [`AnalyzeError`] of the underlying replay when the trace is
/// malformed.
pub fn export(trace: &Trace) -> Result<String, AnalyzeError> {
    export_with_counters(trace, &[])
}

/// [`export`] plus wall-clock [`CounterTrack`]s merged in as `C` events
/// under a dedicated profiler process (see [`CounterTrack`] for the
/// time-base contract). With an empty `counters` slice the output is
/// byte-identical to [`export`].
///
/// # Errors
///
/// Returns the [`AnalyzeError`] of the underlying replay when the trace is
/// malformed.
pub fn export_with_counters(
    trace: &Trace,
    counters: &[CounterTrack],
) -> Result<String, AnalyzeError> {
    let analysis = Analysis::analyze(trace)?;

    // rank -> (sphere, replica) from the recorded topology.
    let mut roles: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    for (sphere, members) in analysis.spheres.iter().enumerate() {
        for (replica, &rank) in members.iter().enumerate() {
            roles.insert(rank, (sphere as u32, replica as u32));
        }
    }
    // Every rank that ever emitted an event gets a track, topology or not.
    for a in &analysis.attempts {
        for e in &a.events {
            if let Some(rank) = e.rank {
                roles.entry(rank).or_insert((u32::MAX, u32::MAX));
            }
        }
    }

    let mut out = String::with_capacity(trace.len() * 96 + 1024);
    out.push_str("[\n");

    // Track metadata: the executor lane and one lane per physical rank.
    meta(&mut out, "process_name", 0, 0, "redcr virtual-time run");
    meta(&mut out, "thread_name", 0, 0, "executor");
    for (&rank, &(sphere, replica)) in &roles {
        let name = if sphere == u32::MAX {
            format!("rank {rank}")
        } else {
            format!("rank {rank} (sphere {sphere}, replica {replica})")
        };
        meta(&mut out, "thread_name", 0, rank + 1, &name);
    }

    let mut flow_id = 0u64;
    for a in &analysis.attempts {
        // Executor lane: one slice per attempt.
        slice(&mut out, &format!("attempt {}", a.attempt), "attempt", a.start, a.end, 0, |w| {
            w.field("completed", a.completed).field("rel_end", a.rel_end);
        });

        // Open checkpoint windows: (rank, seq, begin time).
        let mut begins: Vec<(u32, u64, f64)> = Vec::new();

        for e in &a.events {
            let Some(rank) = e.rank else { continue };
            let tid = rank + 1;
            match &e.kind {
                EventKind::Death
                | EventKind::Injected { .. }
                | EventKind::Failover { .. }
                | EventKind::Restore { .. }
                | EventKind::HeartbeatMiss { .. }
                | EventKind::RespawnBegin { .. }
                | EventKind::RespawnCommit { .. }
                | EventKind::RejoinVote { .. } => {
                    instant(&mut out, e.kind_name(), tid, e.time, &e.kind);
                }
                EventKind::CheckpointBegin { seq } => begins.push((rank, *seq, e.time)),
                EventKind::CheckpointCommit { seq, bytes, cost } => {
                    // Close this rank's open window for `seq`, if any.
                    let begin = begins
                        .iter()
                        .position(|&(r, s, _)| r == rank && s == *seq)
                        .map(|i| begins.swap_remove(i).2)
                        .unwrap_or(e.time);
                    let name = format!("checkpoint {seq}");
                    slice(&mut out, &name, "checkpoint", begin, e.time, tid, |w| {
                        w.field("bytes", bytes).field("cost", cost);
                    });
                }
                _ => {}
            }
        }
        // A rank that died mid-checkpoint leaves its begin unmatched.
        for (rank, seq, time) in begins {
            let begin = EventKind::CheckpointBegin { seq };
            instant(&mut out, "checkpoint begin (no commit)", rank + 1, time, &begin);
        }

        for (send, recv) in fifo_pairs(&a.events) {
            let (tx, rx) = (&a.events[send], recv.map(|r| &a.events[r]));
            let (Some(src), EventKind::Send { to: dst, bytes }) = (tx.rank, &tx.kind) else {
                unreachable!("fifo_pairs pairs a rank's Send events");
            };
            // The 1 µs anchor slices the flow endpoints bind to.
            let mut anchor = |name: String, t: f64, tid: u32| {
                slice(&mut out, &name, "comm", t, t, tid, |w| {
                    w.field("bytes", bytes);
                });
            };
            anchor(format!("send → {dst}"), tx.time, src + 1);
            let Some(rx) = rx else { continue };
            anchor(format!("recv ← {src}"), rx.time, dst + 1);
            for (ph, tid, t) in [("s", src + 1, tx.time), ("f", dst + 1, rx.time)] {
                let mut w = event(&mut out);
                w.field("name", "msg").field("cat", "msg").field("ph", ph);
                if ph == "f" {
                    w.field("bp", "e");
                }
                w.field("id", flow_id).field("ts", t * US).field("pid", 0u32).field("tid", tid);
                w.end_object();
            }
            flow_id += 1;
        }
    }

    // Wall-clock counter plane: its own process, one C-event stream per
    // (scope, counter). Wall nanoseconds become microseconds so Perfetto's
    // axis unit matches the virtual tracks even though the origin differs.
    if !counters.is_empty() {
        meta(&mut out, "process_name", 1, 0, "redcr-prof (wall-clock)");
        for c in counters {
            let track = format!("{}.{}", c.scope, c.name);
            for &(at_ns, value) in &c.samples {
                let mut w = event(&mut out);
                w.field("name", &track).field("cat", "prof").field("ph", "C");
                w.field("ts", at_ns as f64 / 1e3).field("pid", 1u32).field("tid", 0u32);
                w.key("args").begin_object().field("value", value).end_object().end_object();
            }
        }
    }

    out.push_str("\n]\n");
    Ok(out)
}

/// Opens the next event object on its own line of the array.
fn event(out: &mut String) -> Writer<'_> {
    if !out.ends_with("[\n") {
        out.push_str(",\n");
    }
    let mut w = Writer::compact(out);
    w.begin_object();
    w
}

fn meta(out: &mut String, what: &str, pid: u32, tid: u32, name: &str) {
    let mut w = event(out);
    w.field("name", what).field("ph", "M").field("pid", pid).field("tid", tid);
    w.key("args").begin_object().field("name", name).end_object().end_object();
}

/// A complete (`X`) slice over virtual `[begin, end]` (at least 1 µs)
/// whose `args` object holds what `args` writes.
fn slice(
    out: &mut String,
    name: &str,
    cat: &str,
    begin: f64,
    end: f64,
    tid: u32,
    args: impl FnOnce(&mut Writer<'_>),
) {
    let mut w = event(out);
    w.field("name", name).field("cat", cat).field("ph", "X").field("ts", begin * US);
    w.field("dur", ((end - begin) * US).max(1.0)).field("pid", 0u32).field("tid", tid);
    w.key("args").begin_object();
    args(&mut w);
    w.end_object().end_object();
}

/// An instant (`i`) marker at virtual `time`, with the `args` a marker
/// of `kind` carries (a death carries none).
fn instant(out: &mut String, name: &str, tid: u32, time: f64, kind: &EventKind) {
    let mut w = event(out);
    w.field("name", name).field("cat", "mark").field("ph", "i").field("s", "t");
    w.field("ts", time * US).field("pid", 0u32).field("tid", tid);
    if !matches!(kind, EventKind::Death) {
        w.key("args").begin_object();
        match kind {
            EventKind::Injected { rel } => w.field("rel", rel),
            EventKind::Failover { sphere }
            | EventKind::HeartbeatMiss { sphere }
            | EventKind::RespawnBegin { sphere } => w.field("sphere", sphere),
            EventKind::Restore { seq, cut } => w.field("seq", seq).field("cut", cut),
            EventKind::RespawnCommit { sphere, rel: _, latency } => {
                w.field("sphere", sphere).field("latency", latency)
            }
            EventKind::RejoinVote { sphere, copies } => {
                w.field("sphere", sphere).field("copies", copies)
            }
            EventKind::CheckpointBegin { seq } => w.field("seq", seq),
            _ => unreachable!("{name} is not exported as a marker"),
        };
        w.end_object();
    }
    w.end_object();
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// What [`validate`] found in an exported document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfettoSummary {
    /// Total trace events (including metadata).
    pub events: usize,
    /// `thread_name` tracks whose name starts with `"rank "` — one per
    /// physical rank.
    pub rank_tracks: usize,
    /// Complete (`X`) slices.
    pub slices: usize,
    /// Instant (`i`) markers.
    pub instants: usize,
    /// Flow arrows with both endpoints present (an `s` and an `f` event
    /// sharing an id).
    pub flow_pairs: usize,
    /// Counter (`C`) samples from merged wall-clock tracks.
    pub counter_samples: usize,
}

impl fmt::Display for PerfettoSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events: {} rank tracks, {} slices, {} instants, {} flow pairs, {} counters",
            self.events,
            self.rank_tracks,
            self.slices,
            self.instants,
            self.flow_pairs,
            self.counter_samples
        )
    }
}

/// Structurally validates an exported Perfetto document: the top level
/// must be an array of objects, every event needs a `ph` tag, non-metadata
/// events need numeric `ts`/`pid`/`tid`, `X` slices need a `dur`, and flow
/// endpoints must carry ids.
///
/// # Errors
///
/// Returns a description of the first violation (or JSON syntax error)
/// found.
pub fn validate(json: &str) -> Result<PerfettoSummary, String> {
    let Value::Arr(events) = redcr_json::parse(json).map_err(|e| e.to_string())? else {
        return Err("top level is not an array".into());
    };
    let mut summary = PerfettoSummary {
        events: events.len(),
        rank_tracks: 0,
        slices: 0,
        instants: 0,
        flow_pairs: 0,
        counter_samples: 0,
    };
    let mut starts: Vec<u64> = Vec::new();
    let mut finishes: Vec<u64> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        check_event(ev, &mut summary, &mut starts, &mut finishes)
            .map_err(|e| format!("event {i}: {e}"))?;
    }

    starts.sort_unstable();
    finishes.sort_unstable();
    summary.flow_pairs = finishes.iter().filter(|id| starts.binary_search(id).is_ok()).count();
    if finishes.len() != summary.flow_pairs || starts.len() != summary.flow_pairs {
        return Err(format!(
            "unbalanced flows: {} starts, {} finishes, {} pairs",
            starts.len(),
            finishes.len(),
            summary.flow_pairs
        ));
    }
    Ok(summary)
}

/// Checks one event of a document and counts it into `summary`; flow
/// endpoint ids go to `starts` / `finishes`.
fn check_event(
    ev: &Value,
    summary: &mut PerfettoSummary,
    starts: &mut Vec<u64>,
    finishes: &mut Vec<u64>,
) -> Result<(), Box<dyn std::error::Error>> {
    if !matches!(ev, Value::Obj(_)) {
        return Err("not an object".into());
    }
    let ph = ev.req::<&str>("ph")?;
    if ph != "M" {
        for key in ["ts", "pid", "tid"] {
            ev.req::<f64>(key)?;
        }
    }
    match ph {
        "M" => {
            if ev.req::<&Value>("args")?.req::<&str>("name")?.starts_with("rank ") {
                summary.rank_tracks += 1;
            }
        }
        "X" => {
            ev.req::<f64>("dur")?;
            summary.slices += 1;
        }
        "i" => summary.instants += 1,
        "C" => {
            ev.req::<&Value>("args")?.req::<f64>("value")?;
            summary.counter_samples += 1;
        }
        "s" => starts.push(ev.req("id")?),
        "f" => finishes.push(ev.req("id")?),
        other => return Err(format!("unknown phase {other:?}").into()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn ev(time: f64, rank: Option<u32>, kind: EventKind) -> Event {
        Event { time, rank, kind }
    }

    fn small_trace() -> Trace {
        Trace::from_events(vec![
            ev(0.0, Some(0), EventKind::Topology { sphere: 0, replica: 0 }),
            ev(0.0, Some(1), EventKind::Topology { sphere: 1, replica: 0 }),
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            // Rank 0's stream (drained first), then rank 1's: per-rank
            // time order, not globally sorted — as collected.
            ev(0.5, Some(0), EventKind::Send { to: 1, bytes: 64 }),
            ev(1.0, Some(0), EventKind::Send { to: 1, bytes: 32 }),
            ev(2.0, Some(0), EventKind::CheckpointBegin { seq: 0 }),
            ev(2.5, Some(0), EventKind::CheckpointCommit { seq: 0, bytes: 128, cost: 0.5 }),
            ev(3.0, Some(0), EventKind::RankFinish { busy: 2.0, comm: 1.0 }),
            ev(0.6, Some(1), EventKind::Recv { from: 0, bytes: 64 }),
            ev(1.1, Some(1), EventKind::Recv { from: 0, bytes: 32 }),
            ev(2.8, Some(1), EventKind::Death),
            ev(
                3.0,
                None,
                EventKind::AttemptEnd {
                    attempt: 0,
                    completed: true,
                    rel_end: 3.0,
                    rel_failure: f64::INFINITY,
                    killer: None,
                },
            ),
        ])
    }

    #[test]
    fn export_validates_with_expected_counts() {
        let json = export(&small_trace()).unwrap();
        let summary = validate(&json).unwrap();
        assert_eq!(summary.rank_tracks, 2);
        // 1 attempt + 1 checkpoint + 2 send + 2 recv anchor slices.
        assert_eq!(summary.slices, 6);
        assert_eq!(summary.flow_pairs, 2, "{summary}");
        assert_eq!(summary.instants, 1, "one death marker");
    }

    #[test]
    fn fifo_pairing_matches_kth_send_to_kth_recv() {
        let json = export(&small_trace()).unwrap();
        // The first flow start sits at the first send (0.5 s = 500000 µs)
        // and its finish at the first receive (0.6 s).
        let s = json.lines().find(|l| l.contains("\"ph\":\"s\"")).unwrap();
        assert!(s.contains("\"ts\":500000"), "{s}");
        let f = json.lines().find(|l| l.contains("\"ph\":\"f\"")).unwrap();
        assert!(f.contains("\"ts\":600000"), "{f}");
        assert!(f.contains("\"bp\":\"e\""), "{f}");
    }

    #[test]
    fn unmatched_send_gets_slice_but_no_flow() {
        let events = vec![
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            ev(0.5, Some(0), EventKind::Send { to: 1, bytes: 8 }),
            ev(
                1.0,
                None,
                EventKind::AttemptEnd {
                    attempt: 0,
                    completed: true,
                    rel_end: 1.0,
                    rel_failure: f64::INFINITY,
                    killer: None,
                },
            ),
        ];
        let json = export(&Trace::from_events(events)).unwrap();
        let summary = validate(&json).unwrap();
        assert_eq!(summary.flow_pairs, 0);
        assert!(json.contains("send \u{2192} 1"));
    }

    #[test]
    fn counter_tracks_merge_under_profiler_process() {
        let tracks = vec![CounterTrack {
            scope: "rank0".to_string(),
            name: "queue_depth",
            samples: vec![(1_000, 1.0), (2_000, 3.0), (5_000, 0.0)],
        }];
        let json = export_with_counters(&small_trace(), &tracks).unwrap();
        let summary = validate(&json).unwrap();
        assert_eq!(summary.counter_samples, 3, "{summary}");
        assert!(json.contains("redcr-prof (wall-clock)"));
        assert!(json.contains("rank0.queue_depth"));
        // Wall ns → µs: the 2000 ns sample lands at ts 2.
        assert!(json.lines().any(|l| l.contains("\"ph\":\"C\"") && l.contains("\"ts\":2,")));
        // With no counters the output is byte-identical to plain export.
        let plain = export(&small_trace()).unwrap();
        let empty = export_with_counters(&small_trace(), &[]).unwrap();
        assert_eq!(plain, empty);
        assert_eq!(validate(&plain).unwrap().counter_samples, 0);
    }

    #[test]
    fn malformed_trace_refused() {
        let err = export(&Trace::default()).unwrap_err();
        assert_eq!(err, AnalyzeError::EmptyTrace);
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate("{}").unwrap_err().contains("not an array"));
        assert!(validate("[1]").unwrap_err().contains("not an object"));
        assert!(validate("[{\"no_ph\":1}]").unwrap_err().contains("ph"));
        // An X slice without dur.
        let bad = "[{\"ph\":\"X\",\"ts\":0,\"pid\":0,\"tid\":1,\"name\":\"x\"}]";
        assert!(validate(bad).unwrap_err().contains("dur"));
        // A flow start with no finish.
        let bad = "[{\"ph\":\"s\",\"ts\":0,\"pid\":0,\"tid\":1,\"id\":7}]";
        assert!(validate(bad).unwrap_err().contains("unbalanced"));
        // A depth bomb is an error, not a stack overflow.
        assert!(validate(&"[".repeat(200_000)).unwrap_err().contains("nesting"));
    }

    /// The validator reads strings the way the writer escapes them: the
    /// old reader took `\u0020` for the five characters `u0020` and each
    /// byte of `é` for a character of its own.
    #[test]
    fn validator_decodes_escapes_and_utf8() {
        let doc = "[{\"ph\":\"M\",\"args\":{\"name\":\"rank\\u00201 \\ud83d\\ude00 é\"}}]";
        assert_eq!(validate(doc).unwrap().rank_tracks, 1);
    }
}
