//! JSONL export and import of traces.
//!
//! One flat JSON object per event, written and read through `redcr-json`.
//! Its number rule writes a non-finite `f64` as `null` (only `rel_failure`
//! can legitimately be `INFINITY`); this module reads a `null` float back
//! as `INFINITY`, so a parsed trace analyzes identically to the in-memory
//! one.

use std::error::Error;
use std::fmt;

use redcr_json::{Value, Writer};

use crate::event::{Event, EventKind};
use crate::recorder::Trace;

/// Errors from parsing or replaying a trace.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceError {
    /// A JSONL line did not parse as an event.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        what: String,
    },
    /// The event stream is structurally invalid (e.g. an `AttemptEnd`
    /// without a matching `AttemptStart`).
    Malformed {
        /// What went wrong.
        what: String,
    },
    /// The trace parsed but failed structural replay (see
    /// [`AnalyzeError`](crate::analyzer::AnalyzeError)).
    Analyze(crate::analyzer::AnalyzeError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Parse { line, what } => write!(f, "trace line {line}: {what}"),
            TraceError::Malformed { what } => write!(f, "malformed trace: {what}"),
            TraceError::Analyze(e) => write!(f, "malformed trace: {e}"),
        }
    }
}

impl Error for TraceError {}

impl From<crate::analyzer::AnalyzeError> for TraceError {
    fn from(e: crate::analyzer::AnalyzeError) -> Self {
        TraceError::Analyze(e)
    }
}

impl Trace {
    /// Serializes the trace as JSONL: one event object per line, in
    /// collection order (the order matters — see [`crate::analyzer`]).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.len() * 64);
        for e in self.events() {
            write_event(&mut Writer::compact(&mut out), &e);
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL trace written by [`to_jsonl`](Trace::to_jsonl).
    /// Blank lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] with the offending 1-based line number
    /// on any syntax or schema violation — an integer member that does not
    /// fit its field and a float literal that overflows included.
    pub fn from_jsonl(s: &str) -> Result<Trace, TraceError> {
        s.lines()
            .enumerate()
            .map(|(i, line)| (i, line.trim()))
            .filter(|(_, line)| !line.is_empty())
            .map(|(i, line)| {
                event_from_line(line)
                    .map_err(|e| TraceError::Parse { line: i + 1, what: e.to_string() })
            })
            .collect()
    }
}

pub(crate) fn write_event(w: &mut Writer<'_>, e: &Event) {
    w.begin_object().field("t", e.time).field("rank", e.rank).field("ev", e.kind_name());
    match &e.kind {
        EventKind::Send { to, bytes } => w.field("to", to).field("bytes", bytes),
        EventKind::Recv { from, bytes } => w.field("from", from).field("bytes", bytes),
        EventKind::Death => w,
        EventKind::Vote { copies, unanimous, corrected } => {
            w.field("copies", copies).field("unanimous", unanimous).field("corrected", corrected)
        }
        EventKind::Failover { sphere }
        | EventKind::HeartbeatMiss { sphere }
        | EventKind::RespawnBegin { sphere } => w.field("sphere", sphere),
        EventKind::CheckpointBegin { seq } => w.field("seq", seq),
        EventKind::CheckpointCommit { seq, bytes, cost } => {
            w.field("seq", seq).field("bytes", bytes).field("cost", cost)
        }
        EventKind::Restore { seq, cut } => w.field("seq", seq).field("cut", cut),
        EventKind::RankFinish { busy, comm } => w.field("busy", busy).field("comm", comm),
        EventKind::Topology { sphere, replica } => {
            w.field("sphere", sphere).field("replica", replica)
        }
        EventKind::AttemptStart { attempt } => w.field("attempt", attempt),
        EventKind::Injected { rel } => w.field("rel", rel),
        EventKind::RespawnCommit { sphere, rel, latency } => {
            w.field("sphere", sphere).field("rel", rel).field("latency", latency)
        }
        EventKind::RejoinVote { sphere, copies } => {
            w.field("sphere", sphere).field("copies", copies)
        }
        EventKind::AttemptEnd { attempt, completed, rel_end, rel_failure, killer } => w
            .field("attempt", attempt)
            .field("completed", completed)
            .field("rel_end", rel_end)
            .field("rel_failure", rel_failure)
            .field("killer", killer),
    }
    .end_object();
}

/// A float member. `null` — the writer's encoding of a non-finite value —
/// reads back as `INFINITY`.
fn float(v: &Value, key: &str) -> Result<f64, redcr_json::Error> {
    Ok(v.req::<Option<f64>>(key)?.unwrap_or(f64::INFINITY))
}

fn event_from_line(line: &str) -> Result<Event, Box<dyn Error>> {
    let v = redcr_json::parse(line)?;
    let kind = match v.req::<&str>("ev")? {
        "send" => EventKind::Send { to: v.req("to")?, bytes: v.req("bytes")? },
        "recv" => EventKind::Recv { from: v.req("from")?, bytes: v.req("bytes")? },
        "death" => EventKind::Death,
        "vote" => EventKind::Vote {
            copies: v.req("copies")?,
            unanimous: v.req("unanimous")?,
            corrected: v.req("corrected")?,
        },
        "failover" => EventKind::Failover { sphere: v.req("sphere")? },
        "ckpt_begin" => EventKind::CheckpointBegin { seq: v.req("seq")? },
        "ckpt_commit" => EventKind::CheckpointCommit {
            seq: v.req("seq")?,
            bytes: v.req("bytes")?,
            cost: float(&v, "cost")?,
        },
        "restore" => EventKind::Restore { seq: v.req("seq")?, cut: float(&v, "cut")? },
        "rank_finish" => {
            EventKind::RankFinish { busy: float(&v, "busy")?, comm: float(&v, "comm")? }
        }
        "topology" => EventKind::Topology { sphere: v.req("sphere")?, replica: v.req("replica")? },
        "attempt_start" => EventKind::AttemptStart { attempt: v.req("attempt")? },
        "injected" => EventKind::Injected { rel: float(&v, "rel")? },
        "heartbeat_miss" => EventKind::HeartbeatMiss { sphere: v.req("sphere")? },
        "respawn_begin" => EventKind::RespawnBegin { sphere: v.req("sphere")? },
        "respawn_commit" => EventKind::RespawnCommit {
            sphere: v.req("sphere")?,
            rel: float(&v, "rel")?,
            latency: float(&v, "latency")?,
        },
        "rejoin_vote" => {
            EventKind::RejoinVote { sphere: v.req("sphere")?, copies: v.req("copies")? }
        }
        "attempt_end" => EventKind::AttemptEnd {
            attempt: v.req("attempt")?,
            completed: v.req("completed")?,
            rel_end: float(&v, "rel_end")?,
            rel_failure: float(&v, "rel_failure")?,
            killer: v.req("killer")?,
        },
        other => return Err(format!("unknown event kind {other:?}").into()),
    };
    Ok(Event { time: float(&v, "t")?, rank: v.req("rank")?, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace::from_events(vec![
            Event { time: 0.0, rank: Some(0), kind: EventKind::Topology { sphere: 0, replica: 0 } },
            Event { time: 0.0, rank: None, kind: EventKind::AttemptStart { attempt: 0 } },
            Event { time: 3.75, rank: Some(1), kind: EventKind::Injected { rel: 3.75 } },
            Event { time: 0.5, rank: Some(0), kind: EventKind::Send { to: 1, bytes: 64 } },
            Event { time: 0.75, rank: Some(1), kind: EventKind::Recv { from: 0, bytes: 64 } },
            Event {
                time: 0.75,
                rank: Some(1),
                kind: EventKind::Vote { copies: 2, unanimous: true, corrected: false },
            },
            Event { time: 3.75, rank: Some(1), kind: EventKind::Death },
            Event { time: 3.8, rank: Some(0), kind: EventKind::Failover { sphere: 0 } },
            Event { time: 4.0, rank: Some(0), kind: EventKind::CheckpointBegin { seq: 0 } },
            Event {
                time: 4.25,
                rank: Some(0),
                kind: EventKind::CheckpointCommit { seq: 0, bytes: 1024, cost: 0.1 },
            },
            Event { time: 5.0, rank: Some(0), kind: EventKind::Restore { seq: 0, cut: 4.1 } },
            Event { time: 5.25, rank: Some(1), kind: EventKind::HeartbeatMiss { sphere: 0 } },
            Event { time: 5.3, rank: Some(1), kind: EventKind::RespawnBegin { sphere: 0 } },
            Event {
                time: 5.5,
                rank: Some(1),
                kind: EventKind::RespawnCommit { sphere: 0, rel: 5.5, latency: 1.75 },
            },
            Event {
                time: 5.5,
                rank: Some(1),
                kind: EventKind::RejoinVote { sphere: 0, copies: 2 },
            },
            Event {
                time: 6.0,
                rank: Some(0),
                kind: EventKind::RankFinish { busy: 5.0, comm: 1.0 },
            },
            Event {
                time: 6.0,
                rank: None,
                kind: EventKind::AttemptEnd {
                    attempt: 0,
                    completed: true,
                    rel_end: 6.0,
                    rel_failure: f64::INFINITY,
                    killer: None,
                },
            },
        ])
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let trace = sample_trace();
        let text = trace.to_jsonl();
        assert_eq!(text.lines().count(), trace.len());
        let parsed = Trace::from_jsonl(&text).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn infinity_round_trips_as_null() {
        let trace = Trace::from_events(vec![Event {
            time: 1.0,
            rank: None,
            kind: EventKind::AttemptEnd {
                attempt: 2,
                completed: false,
                rel_end: 1.5,
                rel_failure: f64::INFINITY,
                killer: Some(3),
            },
        }]);
        let text = trace.to_jsonl();
        assert!(text.contains("\"rel_failure\":null"), "{text}");
        let parsed = Trace::from_jsonl(&text).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn extreme_floats_round_trip_exactly() {
        let values = [1e-300, 1.0 / 3.0, 123_456_789.123_456_78, f64::MAX, 5e-324];
        for v in values {
            let trace =
                Trace::from_events(vec![Event { time: v, rank: Some(0), kind: EventKind::Death }]);
            let parsed = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
            assert_eq!(parsed.events().next().unwrap().time.to_bits(), v.to_bits(), "{v}");
        }
        // Integers past 2^53 do not pass through an f64 on the way back.
        for bytes in [(1 << 53) + 1, u64::MAX] {
            let kind = EventKind::CheckpointCommit { seq: bytes, bytes, cost: 0.5 };
            let trace = Trace::from_events(vec![Event { time: 1.0, rank: Some(u32::MAX), kind }]);
            assert_eq!(Trace::from_jsonl(&trace.to_jsonl()).unwrap(), trace, "{bytes}");
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err =
            Trace::from_jsonl("{\"t\":0,\"rank\":null,\"ev\":\"death\"}\nnot json\n").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");
        let err = Trace::from_jsonl("{\"t\":0,\"rank\":0,\"ev\":\"warp\"}\n").unwrap_err();
        assert!(err.to_string().contains("warp"), "{err}");
        let err = Trace::from_jsonl("{\"t\":0,\"ev\":\"send\",\"rank\":0,\"to\":1}\n").unwrap_err();
        assert!(err.to_string().contains("bytes"), "{err}");
        // Narrowing is checked: a rank past u32 is not rank 0, an
        // overflowing float is not infinity, a fraction is not an integer.
        for bad in [
            "{\"t\":0,\"rank\":4294967296,\"ev\":\"death\"}",
            "{\"t\":1e999,\"rank\":0,\"ev\":\"death\"}",
            "{\"t\":0,\"rank\":0,\"ev\":\"failover\",\"sphere\":1.5}",
            "{\"t\":0,\"rank\":0,\"ev\":\"death\"} trailing",
        ] {
            let err = Trace::from_jsonl(bad).unwrap_err();
            assert!(matches!(err, TraceError::Parse { line: 1, .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let parsed = Trace::from_jsonl(
            "\n{\"t\":0,\"rank\":null,\"ev\":\"attempt_start\",\"attempt\":0}\n\n",
        )
        .unwrap();
        assert_eq!(parsed.len(), 1);
    }
}
