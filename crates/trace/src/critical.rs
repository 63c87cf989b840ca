//! Virtual-time critical-path analysis over a replayed trace.
//!
//! Where the [`analyzer`](crate::analyzer) replays a trace into per-attempt
//! *aggregates*, this module asks a different question: **which chain of
//! events determined how long the attempt took?** It rebuilds the
//! happens-before DAG of an attempt — per-rank program order plus
//! cross-rank `Send → Recv` edges — and walks the longest virtual-time
//! chain backwards from the event that pinned the attempt's end. Every
//! step on that chain is blamed on one of four categories:
//!
//! * **compute** — program-order progress on a rank;
//! * **blocked-on-recv** — the step arrived over a message edge: the
//!   receiver could not have proceeded earlier because the sender's data
//!   was not yet available;
//! * **checkpoint** — the step closes a `CheckpointBegin → CheckpointCommit`
//!   bracket (write cost plus commit barrier);
//! * **heal** — the step closes a respawn/rejoin bracket of a heal cycle.
//!
//! Alongside the path, the analysis emits a **per-rank blame breakdown**
//! built from exact event brackets: a rank's checkpoint share is the sum of
//! its own begin→commit spans, its heal share is the attempt's deduped
//! respawn stall, and the remaining busy/comm split comes verbatim from its
//! `RankFinish` events — so the four categories partition the rank's active
//! time and the derived blocked-share α is a measured input for the paper's
//! Eq. 1 (see `blame_alpha`).
//!
//! **Bit-exactness contract.** The resilient executor sets its report's
//! `total_virtual_time` to `max_virtual_time` of the final (completed)
//! attempt, which is also the absolute timestamp it records on that
//! attempt's `AttemptEnd` event. [`CriticalPath::total_virtual_time`]
//! carries that timestamp verbatim, so a traced run can assert
//! `path.total_virtual_time.to_bits() == report.total_virtual_time.to_bits()`
//! — the same replay-don't-recompute discipline as
//! [`Analysis::totals`](crate::Analysis::totals). The per-category blame
//! sums are *derived* quantities (event subtraction re-associates the
//! executor's floating-point order), so they cross-check within tolerance,
//! not bitwise.
//!
//! Send→recv matching is [`fifo_pairs`]: FIFO per `(sender, receiver)`
//! pair. The simulator orders each `(source, wire-tag)` channel
//! independently, so a program that interleaves tags out of order between
//! one pair of ranks can be matched against the wrong in-flight message;
//! the path length is unaffected (edges stay time-monotone), only the edge
//! attribution coarsens.

use std::collections::BTreeMap;

use crate::analyzer::{Analysis, AttemptSummary};
use crate::event::{Event, EventKind};

/// What a critical-path step (or a slice of a rank's time) is blamed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blame {
    /// Program-order progress on a rank.
    Compute,
    /// Waiting for a message: the step entered over a `Send → Recv` edge.
    BlockedOnRecv,
    /// Inside a `CheckpointBegin → CheckpointCommit` bracket.
    Checkpoint,
    /// Inside a heal cycle's respawn/rejoin bracket.
    Heal,
}

impl Blame {
    /// Stable lower-case name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Blame::Compute => "compute",
            Blame::BlockedOnRecv => "blocked_on_recv",
            Blame::Checkpoint => "checkpoint",
            Blame::Heal => "heal",
        }
    }
}

/// One step of the critical path, spanning `[from_time, to_time]` in
/// absolute virtual seconds. Steps are reported in forward (chronological)
/// order; adjacent steps share endpoints, so their durations telescope to
/// the attempt span.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The rank the step ends on (`None` only for the synthetic head/tail
    /// segments closing the path onto the attempt brackets).
    pub rank: Option<u32>,
    /// Absolute virtual time the step starts.
    pub from_time: f64,
    /// Absolute virtual time the step ends.
    pub to_time: f64,
    /// Category charged for this span.
    pub blame: Blame,
    /// `kind_name` of the event the step ends at (`"attempt_end"` for the
    /// synthetic tail).
    pub kind: &'static str,
    /// Whether the step arrived over a cross-rank message edge.
    pub cross: bool,
}

impl PathStep {
    /// The step's duration, virtual seconds.
    pub fn duration(&self) -> f64 {
        self.to_time - self.from_time
    }
}

/// Per-rank blame partition of one attempt, from exact event brackets.
#[derive(Debug, Clone, PartialEq)]
pub struct RankBlame {
    /// Physical rank.
    pub rank: u32,
    /// Busy time outside checkpoint brackets: `RankFinish.busy` minus the
    /// charged checkpoint write costs (clamped at zero).
    pub compute: f64,
    /// Communication time outside checkpoint brackets: `RankFinish.comm`
    /// minus the barrier share of the rank's commit spans (clamped at
    /// zero).
    pub blocked_on_recv: f64,
    /// Sum of the rank's own `CheckpointBegin → CheckpointCommit` spans
    /// (write cost plus commit barrier).
    pub checkpoint: f64,
    /// The attempt's deduped respawn-stall seconds (every rank quiesces
    /// through a heal cycle, so the stall is charged to each).
    pub heal: f64,
}

impl RankBlame {
    /// Everything the rank's clock advanced through, virtual seconds.
    pub fn total(&self) -> f64 {
        self.compute + self.blocked_on_recv + self.checkpoint + self.heal
    }

    /// The rank's blocked share of compute-plus-blocked time — the
    /// measured communication-to-computation ratio α of the paper's Eq. 1,
    /// with checkpoint and heal overheads carved out.
    pub fn alpha(&self) -> f64 {
        let active = self.compute + self.blocked_on_recv;
        if active > 0.0 {
            self.blocked_on_recv / active
        } else {
            0.0
        }
    }
}

/// The critical path of one attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptPath {
    /// Attempt number.
    pub attempt: u64,
    /// Whether the attempt completed.
    pub completed: bool,
    /// Absolute virtual time of the attempt's `AttemptEnd` event,
    /// carried verbatim.
    pub end: f64,
    /// The executor's exact relative end (`AttemptEnd.rel_end`), verbatim.
    pub rel_end: f64,
    /// The longest chain, chronological order, telescoping from the
    /// attempt start to its end.
    pub steps: Vec<PathStep>,
    /// Per-rank blame partition, ranks ascending.
    pub ranks: Vec<RankBlame>,
}

impl AttemptPath {
    /// Seconds of path time per category, in
    /// `[compute, blocked_on_recv, checkpoint, heal]` order.
    pub fn path_blame(&self) -> [f64; 4] {
        let mut out = [0.0f64; 4];
        for s in &self.steps {
            let i = match s.blame {
                Blame::Compute => 0,
                Blame::BlockedOnRecv => 1,
                Blame::Checkpoint => 2,
                Blame::Heal => 3,
            };
            out[i] += s.duration();
        }
        out
    }
}

/// The whole trace's critical-path analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// One path per attempt, execution order.
    pub attempts: Vec<AttemptPath>,
    /// The final completed attempt's absolute end time, verbatim from its
    /// `AttemptEnd` event — bit-equal to the producing run's
    /// `ExecutionReport::total_virtual_time` (see module docs). Zero when
    /// no attempt completed.
    pub total_virtual_time: f64,
}

impl CriticalPath {
    /// Builds the critical path of every attempt in `analysis`.
    pub fn analyze(analysis: &Analysis) -> CriticalPath {
        let attempts: Vec<AttemptPath> = analysis.attempts.iter().map(attempt_path).collect();
        let total_virtual_time =
            analysis.attempts.last().filter(|a| a.completed).map_or(0.0, |a| a.end);
        CriticalPath { attempts, total_virtual_time }
    }

    /// The blocked-share α over the final completed attempt, weighted by
    /// each rank's compute-plus-blocked time — the trace-measured α the
    /// model-validation report feeds into the paper's Eq. 1 alongside the
    /// `RankFinish`-derived per-rank values.
    pub fn blame_alpha(&self) -> Option<f64> {
        let last = self.attempts.last().filter(|a| a.completed)?;
        let (mut blocked, mut active) = (0.0f64, 0.0f64);
        for r in &last.ranks {
            blocked += r.blocked_on_recv;
            active += r.compute + r.blocked_on_recv;
        }
        (active > 0.0).then(|| blocked / active)
    }
}

/// Whether an event lies on its rank's program order — i.e. its timestamp
/// is the rank's virtual clock at a point the rank actually reached.
/// Driver-side records *about* a rank are excluded: the failure schedule
/// (`Injected`) is stamped at the scheduled death time, which may never
/// fire and can lie far past the attempt's end, and the detector's
/// suspicion deadline (`HeartbeatMiss`) is a modeled time on a rank whose
/// clock already stopped at its `Death` event.
fn on_rank_clock(e: &Event) -> bool {
    !matches!(e.kind, EventKind::Injected { .. } | EventKind::HeartbeatMiss { .. })
}

/// The one send↔recv pairing rule, shared with the Perfetto export's flow
/// arrows: the k-th `Send` of `src` to `dst` matches the k-th `Recv` of
/// `dst` from `src`. Returns `(send index, matching recv index)` into
/// `events`, by channel and then by k.
///
/// Pairing is by position within each rank's own stream, never by position
/// in `events`: a trace is absorbed rank by rank, so a receive of a lower
/// rank from a higher one sits *before* its send in collection order.
pub fn fifo_pairs(events: &[Event]) -> Vec<(usize, Option<usize>)> {
    // (src, dst) -> (send indices, recv indices), each in program order.
    let mut channels: BTreeMap<(u32, u32), (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        match (&e.kind, e.rank) {
            (EventKind::Send { to, .. }, Some(from)) => {
                channels.entry((from, *to)).or_default().0.push(i);
            }
            (EventKind::Recv { from, .. }, Some(to)) => {
                channels.entry((*from, to)).or_default().1.push(i);
            }
            _ => {}
        }
    }
    channels
        .into_values()
        .flat_map(|(tx, rx)| tx.into_iter().enumerate().map(move |(k, s)| (s, rx.get(k).copied())))
        .collect()
}

/// Builds one attempt's critical path and per-rank blame from its summary.
fn attempt_path(a: &AttemptSummary) -> AttemptPath {
    // Per-rank event streams in collection order. A rank's recorder is
    // sequential in virtual time, so each stream is time-nondecreasing —
    // including across heal relaunches, which resume past the boundary.
    let mut per_rank: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, e) in a.events.iter().enumerate() {
        if let Some(r) = e.rank {
            if on_rank_clock(e) {
                per_rank.entry(r).or_default().push(i);
            }
        }
    }

    // cross_pred[recv event index] = matching send event index.
    let cross_pred: BTreeMap<usize, usize> =
        fifo_pairs(&a.events).into_iter().filter_map(|(s, r)| Some((r?, s))).collect();

    // Position of each event within its rank's stream, for O(1) program
    // predecessors.
    let mut pos_in_rank: BTreeMap<usize, usize> = BTreeMap::new();
    for stream in per_rank.values() {
        for (p, &i) in stream.iter().enumerate() {
            pos_in_rank.insert(i, p);
        }
    }

    // Terminal: the latest rank event (ties broken toward the later
    // collection index — the one drained last). The attempt's end is
    // pinned by the maximum rank clock, so this is the event the end
    // waited on.
    let terminal = a
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.rank.is_some() && on_rank_clock(e))
        .max_by(|(i, x), (j, y)| x.time.total_cmp(&y.time).then(i.cmp(j)));

    let mut steps: Vec<PathStep> = Vec::new();
    if let Some((mut cur, _)) = terminal {
        // Synthetic tail: from the terminal event to the attempt bracket.
        let last = &a.events[cur];
        if a.end > last.time {
            steps.push(PathStep {
                rank: None,
                from_time: last.time,
                to_time: a.end,
                blame: Blame::Compute,
                kind: "attempt_end",
                cross: false,
            });
        }
        // A happens-before chain visits an event at most once. The bound
        // only bites on a hand-made trace whose message edges form a cycle.
        for _ in 0..a.events.len() {
            let e = &a.events[cur];
            let rank = e.rank.expect("path events are rank events");
            let prog = pos_in_rank[&cur].checked_sub(1).map(|p| per_rank[&rank][p]);
            let cross = cross_pred.get(&cur).copied();
            // The binding predecessor is the later of the two; on a tie
            // the message edge wins (the local rank was already there —
            // the data was the constraint).
            let (pred, is_cross) = match (prog, cross) {
                (Some(p), Some(c)) => {
                    if a.events[c].time >= a.events[p].time {
                        (Some(c), true)
                    } else {
                        (Some(p), false)
                    }
                }
                (Some(p), None) => (Some(p), false),
                (None, Some(c)) => (Some(c), true),
                (None, None) => (None, false),
            };
            let from_time = pred.map_or(a.start, |p| a.events[p].time);
            let blame = if is_cross {
                Blame::BlockedOnRecv
            } else {
                match &e.kind {
                    EventKind::CheckpointCommit { .. } => Blame::Checkpoint,
                    EventKind::RespawnCommit { .. } | EventKind::RejoinVote { .. } => Blame::Heal,
                    _ => Blame::Compute,
                }
            };
            steps.push(PathStep {
                rank: Some(rank),
                from_time,
                to_time: e.time,
                blame,
                kind: e.kind_name(),
                cross: is_cross,
            });
            match pred {
                Some(p) => cur = p,
                None => break,
            }
        }
        steps.reverse();
    }

    AttemptPath {
        attempt: a.attempt,
        completed: a.completed,
        end: a.end,
        rel_end: a.rel_end,
        steps,
        ranks: rank_blame(a),
    }
}

/// Per-rank blame partition from exact event brackets (see module docs).
fn rank_blame(a: &AttemptSummary) -> Vec<RankBlame> {
    // (rank, busy, comm) aggregated across the rank's RankFinish events
    // (one per segment under heal relaunches).
    let mut splits: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    // Open CheckpointBegin brackets: (rank, seq, time).
    let mut begins: Vec<(u32, u64, f64)> = Vec::new();
    // Per-rank checkpoint span and charged write cost.
    let mut ckpt: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    for e in &a.events {
        match (&e.kind, e.rank) {
            (EventKind::RankFinish { busy, comm }, Some(r)) => {
                let s = splits.entry(r).or_insert((0.0, 0.0));
                s.0 += busy;
                s.1 += comm;
            }
            (EventKind::CheckpointBegin { seq }, Some(r)) => begins.push((r, *seq, e.time)),
            (EventKind::CheckpointCommit { seq, cost, .. }, Some(r)) => {
                if let Some(i) = begins.iter().position(|&(br, bs, _)| br == r && bs == *seq) {
                    let span = e.time - begins.swap_remove(i).2;
                    let c = ckpt.entry(r).or_insert((0.0, 0.0));
                    c.0 += span;
                    c.1 += cost;
                }
            }
            _ => {}
        }
    }
    splits
        .into_iter()
        .map(|(rank, (busy, comm))| {
            let (span, cost) = ckpt.get(&rank).copied().unwrap_or((0.0, 0.0));
            // The commit bracket splits into the charged write cost
            // (advanced via compute) and the barrier share (advanced via
            // comm); carve each out of the matching RankFinish half.
            let barrier = (span - cost).max(0.0);
            RankBlame {
                rank,
                compute: (busy - cost).max(0.0),
                blocked_on_recv: (comm - barrier).max(0.0),
                checkpoint: span,
                heal: a.heal_stall_seconds,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Trace;

    fn ev(time: f64, rank: Option<u32>, kind: EventKind) -> Event {
        Event { time, rank, kind }
    }

    fn end(time: f64, attempt: u64, rel_end: f64) -> Event {
        ev(
            time,
            None,
            EventKind::AttemptEnd {
                attempt,
                completed: true,
                rel_end,
                rel_failure: f64::INFINITY,
                killer: None,
            },
        )
    }

    /// Rank 1 computes 2s, sends; rank 0 receives at 2.5 having been ready
    /// since 0 — the path must route through the message edge, whichever
    /// side of it was collected first. A trace is absorbed in rank order,
    /// so the drain order has the receive *before* its send.
    #[test]
    fn path_routes_through_binding_send_edge() {
        let send = [
            ev(2.0, Some(1), EventKind::Send { to: 0, bytes: 8 }),
            ev(2.0, Some(1), EventKind::RankFinish { busy: 2.0, comm: 0.0 }),
        ];
        let recv = [
            ev(2.5, Some(0), EventKind::Recv { from: 1, bytes: 8 }),
            ev(3.0, Some(0), EventKind::RankFinish { busy: 1.0, comm: 2.0 }),
        ];
        for (what, ranks) in [("send first", [&send, &recv]), ("drain order", [&recv, &send])] {
            let mut events = vec![ev(0.0, None, EventKind::AttemptStart { attempt: 0 })];
            events.extend(ranks.into_iter().flatten().cloned());
            events.push(end(3.0, 0, 3.0));
            let analysis = Analysis::analyze(&Trace::from_events(events)).unwrap();
            let path = CriticalPath::analyze(&analysis);
            assert_eq!(path.attempts.len(), 1);
            let a = &path.attempts[0];
            // Forward order: rank 1's send (compute), the message edge
            // (blocked), rank 0's finish (compute).
            let shape: Vec<(Option<u32>, Blame, bool)> =
                a.steps.iter().map(|s| (s.rank, s.blame, s.cross)).collect();
            assert_eq!(
                shape,
                [
                    (Some(1), Blame::Compute, false),
                    (Some(0), Blame::BlockedOnRecv, true),
                    (Some(0), Blame::Compute, false),
                ],
                "{what}"
            );
            let [compute, blocked, ..] = a.path_blame();
            assert!((blocked - 0.5).abs() < 1e-12, "{what}: recv at 2.5 waited on the send at 2.0");
            assert!((compute - 2.5).abs() < 1e-12, "{what}: rank 0's wait is not compute");
            // Steps telescope: adjacent endpoints meet, spanning start to end.
            for w in a.steps.windows(2) {
                assert_eq!(w[0].to_time.to_bits(), w[1].from_time.to_bits());
            }
            assert_eq!(a.steps.first().unwrap().from_time, 0.0);
            assert_eq!(a.steps.last().unwrap().to_time, 3.0);
            assert_eq!(path.total_virtual_time.to_bits(), 3.0f64.to_bits());
        }
    }

    /// A parsed trace can claim anything. Message edges that form a cycle
    /// (each rank receives before it sends, all at one instant) must end
    /// the walk, not spin it.
    #[test]
    fn cyclic_message_edges_end_the_walk() {
        let events = vec![
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            ev(1.0, Some(0), EventKind::Recv { from: 1, bytes: 8 }),
            ev(1.0, Some(0), EventKind::Send { to: 1, bytes: 8 }),
            ev(1.0, Some(1), EventKind::Recv { from: 0, bytes: 8 }),
            ev(1.0, Some(1), EventKind::Send { to: 0, bytes: 8 }),
            end(1.0, 0, 1.0),
        ];
        let analysis = Analysis::analyze(&Trace::from_events(events)).unwrap();
        let steps = &CriticalPath::analyze(&analysis).attempts[0].steps;
        assert!(steps.len() <= 6, "{} steps", steps.len());
    }

    #[test]
    fn checkpoint_brackets_blamed_on_path_and_per_rank() {
        let events = vec![
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            ev(1.0, Some(0), EventKind::CheckpointBegin { seq: 0 }),
            ev(1.5, Some(0), EventKind::CheckpointCommit { seq: 0, bytes: 64, cost: 0.3 }),
            ev(4.0, Some(0), EventKind::RankFinish { busy: 3.0, comm: 1.0 }),
            end(4.0, 0, 4.0),
        ];
        let analysis = Analysis::analyze(&Trace::from_events(events)).unwrap();
        let path = CriticalPath::analyze(&analysis);
        let a = &path.attempts[0];
        let [compute, blocked, ckpt, heal] = a.path_blame();
        assert!((ckpt - 0.5).abs() < 1e-12, "the begin→commit bracket is checkpoint time");
        assert!((compute + blocked + ckpt + heal - 4.0).abs() < 1e-12, "blame partitions the span");
        // Per-rank: span 0.5 charged to checkpoint, write cost 0.3 carved
        // out of busy, barrier share 0.2 carved out of comm.
        let r = &a.ranks[0];
        assert!((r.checkpoint - 0.5).abs() < 1e-12);
        assert!((r.compute - 2.7).abs() < 1e-12);
        assert!((r.blocked_on_recv - 0.8).abs() < 1e-12);
        assert_eq!(r.heal, 0.0);
        assert!((r.total() - 4.0).abs() < 1e-12, "partition reassembles busy + comm");
        assert!((r.alpha() - 0.8 / 3.5).abs() < 1e-12);
    }

    #[test]
    fn incomplete_final_attempt_yields_zero_total_and_no_alpha() {
        let events = vec![
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            ev(1.0, Some(0), EventKind::RankFinish { busy: 1.0, comm: 0.0 }),
            ev(
                2.0,
                None,
                EventKind::AttemptEnd {
                    attempt: 0,
                    completed: false,
                    rel_end: 2.0,
                    rel_failure: 1.5,
                    killer: Some(0),
                },
            ),
        ];
        let analysis = Analysis::analyze(&Trace::from_events(events)).unwrap();
        let path = CriticalPath::analyze(&analysis);
        assert_eq!(path.total_virtual_time, 0.0);
        assert_eq!(path.blame_alpha(), None);
        assert!(!path.attempts[0].completed);
    }

    #[test]
    fn blame_alpha_weights_ranks_by_active_time() {
        let events = vec![
            ev(0.0, None, EventKind::AttemptStart { attempt: 0 }),
            ev(4.0, Some(0), EventKind::RankFinish { busy: 3.0, comm: 1.0 }),
            ev(4.0, Some(1), EventKind::RankFinish { busy: 1.0, comm: 3.0 }),
            end(4.0, 0, 4.0),
        ];
        let analysis = Analysis::analyze(&Trace::from_events(events)).unwrap();
        let path = CriticalPath::analyze(&analysis);
        // (1 + 3) blocked over (4 + 4) active.
        assert!((path.blame_alpha().unwrap() - 0.5).abs() < 1e-12);
    }
}
