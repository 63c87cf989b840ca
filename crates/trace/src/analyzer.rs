//! Replays a [`Trace`] into per-attempt, per-rank timelines and derives
//! the paper's measured quantities from the events alone.
//!
//! The replay is **order-based**, not time-based: a trace is collected so
//! that every rank event of an attempt sits between that attempt's
//! `AttemptStart` and `AttemptEnd` (rank recorders are drained into the
//! collector at rank teardown, before the executor records the attempt
//! end). The analyzer therefore walks the event list sequentially and
//! brackets attempts by position. Within an attempt, per-rank timelines
//! can be re-sorted by time on demand ([`AttemptSummary::rank_timeline`]).
//!
//! The masked-death and degraded-time derivations reproduce the resilient
//! executor's accounting *bit for bit*: they use the same relative times
//! the executor compared (carried verbatim on [`EventKind::Injected`] and
//! [`EventKind::AttemptEnd`]) and accumulate in the same order, so
//! [`Analysis::totals`] can be asserted **exactly equal** to the
//! `ExecutionReport` counters of the run that produced the trace.

use std::fmt;

use crate::event::{Event, EventKind};
use crate::heal::HealLedger;
use crate::recorder::Trace;

/// Structural defects [`Analysis::analyze`] rejects (it never panics on a
/// malformed trace). Convertible into
/// [`TraceError`](crate::TraceError) for callers that mix parse and replay
/// errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalyzeError {
    /// The trace contains no events at all.
    EmptyTrace,
    /// An `AttemptStart` arrived while an earlier attempt was still open.
    NestedStart {
        /// The attempt still open.
        open: u64,
        /// The attempt that tried to start.
        attempt: u64,
    },
    /// An `AttemptEnd` arrived with no attempt open.
    UnmatchedEnd {
        /// The attempt the stray end named.
        attempt: u64,
    },
    /// An `AttemptEnd` named a different attempt than the open one.
    MismatchedEnd {
        /// The attempt that was open.
        open: u64,
        /// The attempt the end named.
        attempt: u64,
    },
    /// The trace ended with an attempt still open.
    NeverEnded {
        /// The attempt left open.
        attempt: u64,
    },
    /// Attempt numbers went backwards (they must strictly increase).
    OutOfOrder {
        /// The previously completed attempt.
        prev: u64,
        /// The attempt that started out of order.
        attempt: u64,
    },
    /// A rank emitted an event after its own `RankFinish` within the same
    /// attempt — rank streams are drained exactly once at teardown, so
    /// this can only come from a corrupted or hand-edited trace.
    EventAfterTeardown {
        /// The offending rank.
        rank: u32,
        /// The attempt it happened in.
        attempt: u64,
    },
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::EmptyTrace => write!(f, "trace has no events"),
            AnalyzeError::NestedStart { open, attempt } => {
                write!(f, "attempt {attempt} started while {open} still open")
            }
            AnalyzeError::UnmatchedEnd { attempt } => {
                write!(f, "attempt {attempt} ended without a start")
            }
            AnalyzeError::MismatchedEnd { open, attempt } => {
                write!(f, "attempt {attempt} ended while {open} was open")
            }
            AnalyzeError::NeverEnded { attempt } => {
                write!(f, "attempt {attempt} never ended")
            }
            AnalyzeError::OutOfOrder { prev, attempt } => {
                write!(f, "attempt {attempt} started after attempt {prev} (must increase)")
            }
            AnalyzeError::EventAfterTeardown { rank, attempt } => {
                write!(f, "rank {rank} emitted an event after its teardown in attempt {attempt}")
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// The result of replaying one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Sphere membership: `spheres[v]` lists the physical ranks serving
    /// virtual rank `v` (from `Topology` events; empty if none recorded).
    pub spheres: Vec<Vec<u32>>,
    /// One summary per attempt, in execution order.
    pub attempts: Vec<AttemptSummary>,
}

/// Everything the analyzer derives about one execution attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptSummary {
    /// Attempt number (from the bracket events).
    pub attempt: u64,
    /// Absolute virtual time the attempt started.
    pub start: f64,
    /// Absolute virtual time the attempt ended.
    pub end: f64,
    /// Whether the application completed in this attempt.
    pub completed: bool,
    /// Attempt end relative to its start (the executor's `end_rel`).
    pub rel_end: f64,
    /// Planned job-failure time relative to the start (`INFINITY` when the
    /// schedule was failure-free).
    pub rel_failure: f64,
    /// The sphere whose last replica died, for failed attempts.
    pub killer: Option<u32>,
    /// Checkpoint sequence restored from at attempt start, if any.
    pub restored_from: Option<u64>,
    /// Scheduled fail-stops this attempt: `(physical rank, relative death
    /// time)`, finite only.
    pub injected: Vec<(u32, f64)>,
    /// Number of `Death` events actually observed by rank threads (a rank
    /// scheduled to die *after* the attempt ends never observes its death).
    pub deaths_observed: u64,
    /// Distinct checkpoint sequences committed during this attempt, sorted.
    pub committed_seqs: Vec<u64>,
    /// Per-rank, per-sequence checkpoint commit latency: virtual seconds
    /// from `CheckpointBegin` to the matching post-barrier
    /// `CheckpointCommit` on the same rank.
    pub commit_latencies: Vec<f64>,
    /// Per-rank observed communication fraction `(rank, α)` where
    /// `α = comm / (busy + comm)` from that rank's `RankFinish` split —
    /// the measured counterpart of the paper's communication-to-computation
    /// ratio (Eq. 1's α input).
    pub alphas: Vec<(u32, f64)>,
    /// Wildcard-receive leader failovers observed.
    pub failovers: u64,
    /// Receive-path votes taken.
    pub votes: u64,
    /// Masked process deaths attributed to this attempt, by the executor's
    /// exact rule (see [`Analysis::totals`]).
    pub masked: u64,
    /// Degraded-sphere seconds accrued this attempt: for each sphere that
    /// lost a member, the span from its first member death to its own death
    /// or the attempt end, whichever came first.
    pub degraded_seconds: f64,
    /// For failed attempts: virtual seconds of progress lost, i.e. from the
    /// last checkpoint commit of the attempt (or its start, if none
    /// committed) to the attempt end. Zero for completed attempts.
    pub lost_work: f64,
    /// Replicas respawned by heal cycles this attempt (one per
    /// `RespawnCommit` event).
    pub respawns: u64,
    /// Total heal latency (each respawned replica's death to its rejoin
    /// commit), summed in `RespawnCommit` emission order.
    pub heal_latency_seconds: f64,
    /// Heal commits as `(sphere, relative commit time)` in emission order,
    /// same-cycle duplicates collapsed, as the attempt's
    /// [`HealLedger`] closed them.
    pub heal_commits: Vec<(u32, f64)>,
    /// Virtual seconds the attempt stalled inside heal cycles: deduped
    /// respawn-begin → respawn-commit spans, paired in order (a begin with
    /// no matching commit — a kill during transfer — contributes nothing).
    pub heal_stall_seconds: f64,
    /// Recovered voting-seconds: post-commit full-strength running time of
    /// healed spheres. Zero without heal commits.
    pub recovered_voting_seconds: f64,
    /// All rank-level events of the attempt, in collection order.
    pub events: Vec<Event>,
}

impl AttemptSummary {
    /// The events emitted by `rank` during this attempt, sorted by virtual
    /// time (stable, so equal-time events keep collection order).
    pub fn rank_timeline(&self, rank: u32) -> Vec<Event> {
        let mut out: Vec<Event> =
            self.events.iter().filter(|e| e.rank == Some(rank)).cloned().collect();
        out.sort_by(|a, b| a.time.total_cmp(&b.time));
        out
    }
}

/// Totals derived purely from the trace, field-for-field comparable with
/// the producing run's `ExecutionReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedTotals {
    /// Number of attempts.
    pub attempts: u64,
    /// Number of failed (restarted) attempts.
    pub failures: u64,
    /// Process deaths masked by redundancy.
    pub masked_failures: u64,
    /// Checkpoints committed during the final (successful) attempt.
    pub checkpoints_committed: u64,
    /// Total degraded-sphere running time, virtual seconds.
    pub degraded_sphere_seconds: f64,
    /// Replicas respawned and rejoined by the self-healing layer.
    pub respawns: u64,
    /// Total heal latency, virtual seconds.
    pub heal_latency_seconds: f64,
    /// Recovered voting-seconds across all attempts.
    pub recovered_voting_seconds: f64,
}

impl Analysis {
    /// Replays `trace` into per-attempt summaries.
    ///
    /// # Errors
    ///
    /// Returns a typed [`AnalyzeError`] when the trace is structurally
    /// invalid: empty, broken attempt brackets (nested, unmatched,
    /// mismatched, never-ended or out-of-order), or a rank event after
    /// that rank's teardown. Malformed traces are rejected, never panicked
    /// on.
    pub fn analyze(trace: &Trace) -> Result<Analysis, AnalyzeError> {
        if trace.is_empty() {
            return Err(AnalyzeError::EmptyTrace);
        }
        let mut spheres: Vec<Vec<u32>> = Vec::new();
        let mut attempts: Vec<AttemptSummary> = Vec::new();
        // (attempt number, start time, bracketed events)
        let mut open: Option<(u64, f64, Vec<Event>)> = None;
        let mut last_attempt: Option<u64> = None;
        // Ranks whose RankFinish was seen in the open attempt: their
        // recorder was drained, so no further event of theirs may follow.
        let mut finished: Vec<u32> = Vec::new();

        for event in trace.events() {
            match &event.kind {
                EventKind::Topology { sphere, replica: _ } => {
                    let s = *sphere as usize;
                    if spheres.len() <= s {
                        spheres.resize(s + 1, Vec::new());
                    }
                    if let Some(rank) = event.rank {
                        spheres[s].push(rank);
                    }
                }
                EventKind::AttemptStart { attempt } => {
                    if let Some((prev, _, _)) = open {
                        return Err(AnalyzeError::NestedStart { open: prev, attempt: *attempt });
                    }
                    if let Some(prev) = last_attempt {
                        if *attempt <= prev {
                            return Err(AnalyzeError::OutOfOrder { prev, attempt: *attempt });
                        }
                    }
                    open = Some((*attempt, event.time, Vec::new()));
                    finished.clear();
                }
                EventKind::AttemptEnd { attempt, completed, rel_end, rel_failure, killer } => {
                    let Some((number, start, events)) = open.take() else {
                        return Err(AnalyzeError::UnmatchedEnd { attempt: *attempt });
                    };
                    if number != *attempt {
                        return Err(AnalyzeError::MismatchedEnd {
                            open: number,
                            attempt: *attempt,
                        });
                    }
                    last_attempt = Some(number);
                    attempts.push(summarize(
                        number,
                        start,
                        event.time,
                        *completed,
                        *rel_end,
                        *rel_failure,
                        *killer,
                        events,
                        &spheres,
                    ));
                }
                _ => {
                    if let Some((number, _, events)) = open.as_mut() {
                        if matches!(
                            event.kind,
                            EventKind::HeartbeatMiss { .. }
                                | EventKind::RespawnBegin { .. }
                                | EventKind::RespawnCommit { .. }
                                | EventKind::RejoinVote { .. }
                        ) {
                            // A heal cycle relaunches every rank mid-attempt,
                            // so earlier teardowns no longer terminate their
                            // event streams.
                            finished.clear();
                        }
                        if let Some(rank) = event.rank {
                            if finished.contains(&rank) {
                                return Err(AnalyzeError::EventAfterTeardown {
                                    rank,
                                    attempt: *number,
                                });
                            }
                            if matches!(event.kind, EventKind::RankFinish { .. }) {
                                finished.push(rank);
                            }
                        }
                        events.push(event);
                    }
                }
            }
        }

        if let Some((number, _, _)) = open {
            return Err(AnalyzeError::NeverEnded { attempt: number });
        }
        Ok(Analysis { spheres, attempts })
    }

    /// The trace-derived totals, accumulated in the executor's order so
    /// every field (including the `f64` one) matches the producing run's
    /// `ExecutionReport` exactly.
    pub fn totals(&self) -> DerivedTotals {
        let mut masked = 0u64;
        let mut degraded = 0.0f64;
        let mut respawns = 0u64;
        let mut heal_latency = 0.0f64;
        let mut recovered = 0.0f64;
        for a in &self.attempts {
            masked += a.masked;
            degraded += a.degraded_seconds;
            respawns += a.respawns;
            heal_latency += a.heal_latency_seconds;
            recovered += a.recovered_voting_seconds;
        }
        DerivedTotals {
            attempts: self.attempts.len() as u64,
            failures: self.attempts.iter().filter(|a| !a.completed).count() as u64,
            masked_failures: masked,
            checkpoints_committed: self
                .attempts
                .last()
                .filter(|a| a.completed)
                .map_or(0, |a| a.committed_seqs.len() as u64),
            degraded_sphere_seconds: degraded,
            respawns,
            heal_latency_seconds: heal_latency,
            recovered_voting_seconds: recovered,
        }
    }
}

/// Builds one attempt's summary from its bracketed events.
#[allow(clippy::too_many_arguments)]
fn summarize(
    attempt: u64,
    start: f64,
    end: f64,
    completed: bool,
    rel_end: f64,
    rel_failure: f64,
    killer: Option<u32>,
    events: Vec<Event>,
    spheres: &[Vec<u32>],
) -> AttemptSummary {
    let mut injected: Vec<(u32, f64)> = Vec::new();
    let mut deaths_observed = 0u64;
    let mut committed_seqs: Vec<u64> = Vec::new();
    let mut begins: Vec<(u32, u64, f64)> = Vec::new();
    let mut commit_latencies: Vec<f64> = Vec::new();
    // Per-rank busy/comm splits: with heal relaunches a rank finishes once
    // per segment, so splits aggregate across its `RankFinish` events.
    let mut splits: Vec<(u32, f64, f64)> = Vec::new();
    let mut failovers = 0u64;
    let mut votes = 0u64;
    let mut restored_from: Option<u64> = None;
    let mut last_commit_time = f64::NEG_INFINITY;
    let mut ledger = HealLedger::default();
    let mut heal_begin_times: Vec<f64> = Vec::new();
    let mut heal_commit_times: Vec<f64> = Vec::new();

    for e in &events {
        match &e.kind {
            EventKind::Injected { rel } => {
                if let Some(rank) = e.rank {
                    injected.push((rank, *rel));
                }
            }
            EventKind::Death => deaths_observed += 1,
            EventKind::CheckpointBegin { seq } => {
                if let Some(rank) = e.rank {
                    begins.push((rank, *seq, e.time));
                }
            }
            EventKind::CheckpointCommit { seq, .. } => {
                if let Err(at) = committed_seqs.binary_search(seq) {
                    committed_seqs.insert(at, *seq);
                }
                if let Some(rank) = e.rank {
                    if let Some(i) = begins.iter().position(|&(r, s, _)| r == rank && s == *seq) {
                        commit_latencies.push(e.time - begins.swap_remove(i).2);
                    }
                }
                last_commit_time = last_commit_time.max(e.time);
            }
            EventKind::Restore { seq, .. } => {
                restored_from = Some(restored_from.map_or(*seq, |r| r.max(*seq)));
            }
            EventKind::RankFinish { busy, comm } => {
                if let Some(rank) = e.rank {
                    if let Some(s) = splits.iter_mut().find(|s| s.0 == rank) {
                        s.1 += busy;
                        s.2 += comm;
                    } else {
                        splits.push((rank, *busy, *comm));
                    }
                }
            }
            EventKind::Failover { .. } => failovers += 1,
            EventKind::Vote { .. } => votes += 1,
            EventKind::RespawnBegin { .. } if !heal_begin_times.contains(&e.time) => {
                heal_begin_times.push(e.time);
            }
            EventKind::RespawnCommit { sphere, rel, latency } => {
                ledger.commit(*sphere, *rel, *latency);
                if !heal_commit_times.contains(&e.time) {
                    heal_commit_times.push(e.time);
                }
            }
            _ => {}
        }
    }
    let mut alphas: Vec<(u32, f64)> = splits
        .iter()
        .map(|&(rank, busy, comm)| {
            let total = busy + comm;
            (rank, if total > 0.0 { comm / total } else { 0.0 })
        })
        .collect();
    alphas.sort_by_key(|&(rank, _)| rank);
    let heal_stall_seconds = heal_commit_times
        .iter()
        .zip(&heal_begin_times)
        .map(|(c, b)| c - b)
        .fold(0.0f64, |acc, s| acc + s);

    // Masked deaths, degraded / recovered time and the heal totals: the
    // executor feeds and closes the same [`HealLedger`] over the same
    // inputs, so the counts and the floating-point sums agree bit for bit.
    let account = ledger.close(spheres, &injected, completed, rel_end, rel_failure, killer);

    let lost_work = if completed { 0.0 } else { end - last_commit_time.max(start) };

    AttemptSummary {
        attempt,
        start,
        end,
        completed,
        rel_end,
        rel_failure,
        killer,
        restored_from,
        injected,
        deaths_observed,
        committed_seqs,
        commit_latencies,
        alphas,
        failovers,
        votes,
        masked: account.masked,
        degraded_seconds: account.degraded_seconds,
        lost_work,
        respawns: account.respawns,
        heal_latency_seconds: account.heal_latency_seconds,
        heal_commits: account.heal_commits,
        heal_stall_seconds,
        recovered_voting_seconds: account.recovered_seconds,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, rank: Option<u32>, kind: EventKind) -> Event {
        Event { time, rank, kind }
    }

    /// 2 spheres × 2 replicas: sphere 0 = ranks {0, 2}, sphere 1 = {1, 3}.
    fn topology() -> Vec<Event> {
        vec![
            ev(0.0, Some(0), EventKind::Topology { sphere: 0, replica: 0 }),
            ev(0.0, Some(1), EventKind::Topology { sphere: 1, replica: 0 }),
            ev(0.0, Some(2), EventKind::Topology { sphere: 0, replica: 1 }),
            ev(0.0, Some(3), EventKind::Topology { sphere: 1, replica: 1 }),
        ]
    }

    #[test]
    fn failed_then_completed_attempt_accounting() {
        let mut events = topology();
        // Attempt 0: ranks 0 and 2 both die (sphere 0 exhausted at t=4),
        // rank 1's death at rel 2.0 is masked. Job fails at rel 4.0.
        events.extend([
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            ev(2.0, Some(1), EventKind::Injected { rel: 2.0 }),
            ev(3.0, Some(0), EventKind::Injected { rel: 3.0 }),
            ev(4.0, Some(2), EventKind::Injected { rel: 4.0 }),
            ev(1.0, Some(0), EventKind::CheckpointBegin { seq: 0 }),
            ev(1.5, Some(0), EventKind::CheckpointCommit { seq: 0, bytes: 100, cost: 0.5 }),
            ev(2.0, Some(1), EventKind::Death),
            ev(3.0, Some(0), EventKind::Death),
            ev(4.0, Some(2), EventKind::Death),
            ev(
                4.5,
                None,
                EventKind::AttemptEnd {
                    attempt: 0,
                    completed: false,
                    rel_end: 4.5,
                    rel_failure: 4.0,
                    killer: Some(0),
                },
            ),
        ]);
        // Attempt 1: restores from seq 0, rank 3 dies at rel 1.0 (masked),
        // completes at rel 6.0 with one more checkpoint.
        events.extend([
            ev(4.5, None, EventKind::AttemptStart { attempt: 1 }),
            ev(5.5, Some(3), EventKind::Injected { rel: 1.0 }),
            ev(4.5, Some(0), EventKind::Restore { seq: 0, cut: 1.5 }),
            ev(5.5, Some(3), EventKind::Death),
            ev(7.0, Some(0), EventKind::CheckpointBegin { seq: 1 }),
            ev(7.25, Some(0), EventKind::CheckpointCommit { seq: 1, bytes: 100, cost: 0.25 }),
            ev(9.0, Some(0), EventKind::RankFinish { busy: 3.0, comm: 1.0 }),
            ev(
                10.5,
                None,
                EventKind::AttemptEnd {
                    attempt: 1,
                    completed: true,
                    rel_end: 6.0,
                    rel_failure: f64::INFINITY,
                    killer: None,
                },
            ),
        ]);

        let analysis = Analysis::analyze(&Trace::from_events(events)).unwrap();
        assert_eq!(analysis.spheres, vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(analysis.attempts.len(), 2);

        let a0 = &analysis.attempts[0];
        // 3 dead by rel_failure, minus the killer sphere's 2 members.
        assert_eq!(a0.masked, 1);
        assert_eq!(a0.committed_seqs, vec![0]);
        assert_eq!(a0.commit_latencies, vec![0.5]);
        assert_eq!(a0.deaths_observed, 3);
        // Sphere 0 degraded from 3.0 to 4.0; sphere 1 from 2.0 to rel_end.
        assert!((a0.degraded_seconds - (1.0 + 2.5)).abs() < 1e-12);
        // Lost work: end 4.5 minus last commit at 1.5.
        assert!((a0.lost_work - 3.0).abs() < 1e-12);

        let a1 = &analysis.attempts[1];
        assert_eq!(a1.masked, 1, "rank 3's death was masked");
        assert_eq!(a1.restored_from, Some(0));
        assert_eq!(a1.alphas, vec![(0, 0.25)]);
        assert_eq!(a1.lost_work, 0.0);
        // Sphere 1 degraded from rel 1.0 to rel_end 6.0 (rank 1 never dies
        // this attempt, so the sphere survives past the end).
        assert!((a1.degraded_seconds - 5.0).abs() < 1e-12);

        let totals = analysis.totals();
        assert_eq!(totals.attempts, 2);
        assert_eq!(totals.failures, 1);
        assert_eq!(totals.masked_failures, 2);
        // Only the final attempt's commits count.
        assert_eq!(totals.checkpoints_committed, 1);
        assert!((totals.degraded_sphere_seconds - 8.5).abs() < 1e-12);
    }

    #[test]
    fn death_after_attempt_end_not_masked() {
        let mut events = topology();
        events.extend([
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            ev(9.0, Some(2), EventKind::Injected { rel: 9.0 }),
            ev(
                5.0,
                None,
                EventKind::AttemptEnd {
                    attempt: 0,
                    completed: true,
                    rel_end: 5.0,
                    rel_failure: f64::INFINITY,
                    killer: None,
                },
            ),
        ]);
        let analysis = Analysis::analyze(&Trace::from_events(events)).unwrap();
        assert_eq!(analysis.attempts[0].masked, 0);
        assert_eq!(analysis.attempts[0].degraded_seconds, 0.0);
        assert_eq!(analysis.totals().masked_failures, 0);
    }

    #[test]
    fn rank_timeline_sorted_by_time() {
        let events = vec![
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            ev(2.0, Some(0), EventKind::Send { to: 1, bytes: 8 }),
            ev(1.0, Some(0), EventKind::Recv { from: 1, bytes: 8 }),
            ev(1.5, Some(1), EventKind::Send { to: 0, bytes: 8 }),
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
        ];
        let analysis = Analysis::analyze(&Trace::from_events(events)).unwrap();
        let timeline = analysis.attempts[0].rank_timeline(0);
        assert_eq!(timeline.len(), 2);
        assert!(matches!(timeline[0].kind, EventKind::Recv { .. }));
        assert!(matches!(timeline[1].kind, EventKind::Send { .. }));
    }

    fn end(time: f64, attempt: u64) -> Event {
        ev(
            time,
            None,
            EventKind::AttemptEnd {
                attempt,
                completed: true,
                rel_end: time,
                rel_failure: f64::INFINITY,
                killer: None,
            },
        )
    }

    #[test]
    fn malformed_brackets_rejected() {
        let err = Analysis::analyze(&Trace::from_events(vec![end(1.0, 0)])).unwrap_err();
        assert_eq!(err, AnalyzeError::UnmatchedEnd { attempt: 0 });

        let start = ev(0.0, None, EventKind::AttemptStart { attempt: 0 });
        let err = Analysis::analyze(&Trace::from_events(vec![start.clone()])).unwrap_err();
        assert_eq!(err, AnalyzeError::NeverEnded { attempt: 0 });

        let nested = ev(0.5, None, EventKind::AttemptStart { attempt: 1 });
        let err = Analysis::analyze(&Trace::from_events(vec![start.clone(), nested])).unwrap_err();
        assert_eq!(err, AnalyzeError::NestedStart { open: 0, attempt: 1 });

        let err = Analysis::analyze(&Trace::from_events(vec![start, end(1.0, 7)])).unwrap_err();
        assert_eq!(err, AnalyzeError::MismatchedEnd { open: 0, attempt: 7 });
    }

    #[test]
    fn empty_trace_rejected() {
        let err = Analysis::analyze(&Trace::default()).unwrap_err();
        assert_eq!(err, AnalyzeError::EmptyTrace);
        assert_eq!(err.to_string(), "trace has no events");
    }

    #[test]
    fn out_of_order_attempts_rejected() {
        let events = vec![
            ev(0.0, None, EventKind::AttemptStart { attempt: 2 }),
            end(1.0, 2),
            ev(1.0, None, EventKind::AttemptStart { attempt: 1 }),
            end(2.0, 1),
        ];
        let err = Analysis::analyze(&Trace::from_events(events)).unwrap_err();
        assert_eq!(err, AnalyzeError::OutOfOrder { prev: 2, attempt: 1 });

        // A repeated attempt number is also out of order.
        let events = vec![
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            end(1.0, 0),
            ev(1.0, None, EventKind::AttemptStart { attempt: 0 }),
            end(2.0, 0),
        ];
        let err = Analysis::analyze(&Trace::from_events(events)).unwrap_err();
        assert_eq!(err, AnalyzeError::OutOfOrder { prev: 0, attempt: 0 });
    }

    #[test]
    fn event_after_rank_teardown_rejected() {
        let events = vec![
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            ev(1.0, Some(0), EventKind::RankFinish { busy: 1.0, comm: 0.0 }),
            ev(1.5, Some(0), EventKind::Send { to: 1, bytes: 8 }),
            end(2.0, 0),
        ];
        let err = Analysis::analyze(&Trace::from_events(events)).unwrap_err();
        assert_eq!(err, AnalyzeError::EventAfterTeardown { rank: 0, attempt: 0 });

        // A *different* rank is still free to emit after rank 0 finishes,
        // and a fresh attempt resets the teardown set.
        let events = vec![
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            ev(1.0, Some(0), EventKind::RankFinish { busy: 1.0, comm: 0.0 }),
            ev(1.5, Some(1), EventKind::RankFinish { busy: 1.5, comm: 0.0 }),
            end(2.0, 0),
            ev(2.0, None, EventKind::AttemptStart { attempt: 1 }),
            ev(3.0, Some(0), EventKind::Send { to: 1, bytes: 8 }),
            ev(3.5, Some(0), EventKind::RankFinish { busy: 1.0, comm: 0.5 }),
            end(4.0, 1),
        ];
        let analysis = Analysis::analyze(&Trace::from_events(events)).unwrap();
        assert_eq!(analysis.attempts.len(), 2);
    }

    #[test]
    fn analyze_error_converts_into_trace_error() {
        let e: crate::TraceError = AnalyzeError::EmptyTrace.into();
        assert!(matches!(e, crate::TraceError::Analyze(AnalyzeError::EmptyTrace)));
        assert_eq!(e.to_string(), "malformed trace: trace has no events");
    }
}
