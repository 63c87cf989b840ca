//! The concrete communicator: [`Comm`] is the world communicator every
//! rank's closure receives, and the only one.

use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use redcr_metrics::HistKey;
use redcr_trace::EventKind;

use crate::communicator::Communicator;
use crate::error::{MpiError, Result};
use crate::mailbox::{Mailbox, MatchSpec, Outcome};
use crate::message::{Envelope, Status};
use crate::obs::Obs;
use crate::rank::{Rank, RankSelector};
use crate::tag::{Namespace, Tag, TagSelector, WireTag};
use crate::time::VirtualClock;
use crate::world::Shared;

/// Rank-local send totals, merged into the world-shared counters when the
/// rank's communicator drops. The totals are only read after every rank
/// has joined, so batching them here keeps atomic read-modify-write
/// traffic off the per-send hot path.
#[derive(Debug)]
pub(crate) struct SendCounters {
    msgs: Cell<u64>,
    bytes: Cell<u64>,
    shared: Arc<Shared>,
}

impl SendCounters {
    fn new(shared: Arc<Shared>) -> Self {
        SendCounters { msgs: Cell::new(0), bytes: Cell::new(0), shared }
    }

    fn record(&self, bytes: u64) {
        self.msgs.set(self.msgs.get() + 1);
        self.bytes.set(self.bytes.get() + bytes);
    }
}

impl Drop for SendCounters {
    fn drop(&mut self) {
        // SeqCst: the flush happens once per rank at teardown, so the
        // stronger ordering costs nothing on the send hot path and makes
        // the totals well-defined for any reader, not just post-join ones.
        use std::sync::atomic::Ordering::SeqCst;
        self.shared.msgs_sent.fetch_add(self.msgs.get(), SeqCst);
        self.shared.bytes_sent.fetch_add(self.bytes.get(), SeqCst);
    }
}

/// One rank's handle on the world communicator, like an `MPI_COMM_WORLD`
/// handle. There are no derived communicators: the replication layer's
/// virtual↔physical map and the tag namespaces isolate traffic inside the
/// one world, so a second communicator would add a rank translation and a
/// membership check to every operation and change nothing else (ROADMAP
/// aim 2).
///
/// `Comm` is `Send` (a rank's task may run on any worker thread) but not
/// `Sync`: a rank's communicator belongs to that rank's task alone.
#[derive(Debug)]
pub struct Comm {
    shared: Arc<Shared>,
    rank: Rank,
    clock: VirtualClock,
    coll_seq: Cell<u64>,
    counters: SendCounters,
    obs: Obs,
}

impl Comm {
    pub(crate) fn new(shared: Arc<Shared>, rank: u32, start_time: f64, obs: Obs) -> Self {
        Comm {
            counters: SendCounters::new(Arc::clone(&shared)),
            shared,
            rank: Rank::new(rank),
            clock: VirtualClock::starting_at(start_time),
            coll_seq: Cell::new(0),
            obs,
        }
    }

    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    pub(crate) fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Observed communication fraction α of this rank so far.
    pub fn comm_fraction(&self) -> f64 {
        self.clock.comm_fraction()
    }

    /// Charges `seconds` of communication-side overhead to this rank's
    /// clock (used by interposition layers for work they add on the message
    /// path, e.g. redundant-copy comparison).
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::Dead`] if the clock reaches this rank's death
    /// time.
    pub fn charge_comm(&self, seconds: f64) -> Result<()> {
        self.check_abort()?;
        self.clock.advance_comm(seconds);
        self.check_abort()
    }

    /// Marks the whole job aborted (fail-stop escalation) and wakes every
    /// blocked rank. Used by interposition layers when a failure can no
    /// longer be masked (e.g. the last replica of a sphere died).
    pub fn abort_job(&self) {
        self.shared.trigger_abort();
    }

    /// Whether `peer`'s sampled death time is at or before this rank's
    /// current virtual time — the deterministic "is that rank dead from my
    /// point of view" test used on send paths.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is out of range.
    pub fn peer_dead_by_now(&self, peer: Rank) -> bool {
        self.shared.death_time(peer) <= self.clock.now()
    }

    fn check_abort(&self) -> Result<()> {
        let death = self.shared.death_time(self.rank);
        if self.clock.now() >= death {
            // This rank's own fail-stop: flag it (waking receivers blocked on
            // it) and stop executing. Deliberately *not* a world abort — peers
            // keep running and observe the death per-operation.
            if self.shared.mark_dead(self.rank) {
                self.obs.event(death, EventKind::Death);
            }
            return Err(MpiError::Dead { rank: self.rank, at: death });
        }
        // Deliberately NOT polled here: the world-abort flag. It is raised at
        // a *physical* instant (whichever rank escalates first), so a running
        // rank observing it would stop after a host-timing-dependent number
        // of operations and make message counts run-to-run noisy. Running
        // ranks stop only through deterministic virtual-time exits — own
        // death, DeadPeer/SphereDead escalation — and *parked* ranks return
        // Aborted once the scheduler finds the batch stalled (no rank can
        // ever push again). See the `mailbox` module docs.
        Ok(())
    }

    fn mailbox(&self) -> &Mailbox {
        &self.shared.mailboxes[self.rank.index()]
    }

    /// Returns the awaited rank if `spec` names a specific sender that has
    /// fail-stopped (receives use this to stop waiting: a dead rank has
    /// already deposited everything it will ever send).
    fn dead_source(&self, spec: &MatchSpec) -> Option<Rank> {
        match spec.src {
            RankSelector::Rank(r) if self.shared.is_dead(r) => Some(r),
            _ => None,
        }
    }

    /// The match a blocking mailbox wait ended with, or the error it ended
    /// with instead.
    fn matched<T>(&self, outcome: Outcome<T>) -> Result<T> {
        let at = self.clock.now();
        match outcome {
            Outcome::Matched(v) => Ok(v),
            Outcome::Aborted => Err(MpiError::Aborted { rank: self.rank(), at }),
            Outcome::SourceDead(peer) => Err(MpiError::DeadPeer { peer, at }),
            Outcome::Deadlock => Err(MpiError::Deadlock { rank: self.rank(), at }),
        }
    }

    /// Advances the clock to the instant a message deposited at `send_time`
    /// is available here.
    fn sync_to_arrival(&self, send_time: f64, len: usize) {
        self.clock.sync_to(self.shared.cost.availability(send_time, len));
    }

    /// The status of a message from `source`, stamped with the current time.
    fn status(&self, source: Rank, wire_tag: WireTag, len: usize) -> Status {
        Status { source, tag: wire_tag.user_tag(), len, completed_at: self.clock.now() }
    }
}

impl Communicator for Comm {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.n
    }

    fn now(&self) -> f64 {
        self.clock.now()
    }

    fn compute(&self, seconds: f64) -> Result<()> {
        self.check_abort()?;
        self.clock.advance_compute(seconds);
        self.check_abort()
    }

    fn send_ns(&self, dest: Rank, tag: Tag, data: Bytes, ns: Namespace) -> Result<()> {
        self.check_abort()?;
        if dest.index() >= self.shared.n {
            return Err(MpiError::InvalidRank { rank: dest.index(), size: self.shared.n });
        }
        // Deterministic dead-peer detection: the destination is dead from
        // this rank's point of view once its sampled death time is at or
        // before this rank's clock. (Delivery to a peer that dies *later*
        // in virtual time stays valid: the message is either consumed
        // before the peer's death or sits unread in its mailbox.)
        if self.peer_dead_by_now(dest) {
            return Err(MpiError::DeadPeer { peer: dest, at: self.clock.now() });
        }
        self.clock.advance_comm(self.shared.cost.msg_overhead);
        let bytes = data.len() as u64;
        self.counters.record(bytes);
        let now = self.clock.now();
        self.shared.mailboxes[dest.index()].push(
            Envelope { src: self.rank, wire_tag: tag.wire(ns), payload: data, send_time: now },
            &self.obs,
        );
        self.obs.event(now, EventKind::Send { to: dest.as_u32(), bytes });
        Ok(())
    }

    fn recv_ns(
        &self,
        src: RankSelector,
        tag: TagSelector,
        ns: Namespace,
    ) -> Result<(Bytes, Status)> {
        let spec = MatchSpec { ns, src, tag };
        self.check_abort()?;
        let env = self.matched(self.mailbox().recv_match(
            &spec,
            || self.shared.is_aborted(),
            || self.dead_source(&spec),
            &self.obs,
        ))?;
        self.sync_to_arrival(env.send_time, env.len());
        self.clock.advance_comm(self.shared.cost.msg_overhead);
        self.check_abort()?;
        let (now, bytes) = (self.clock.now(), env.len() as u64);
        self.obs.event(now, EventKind::Recv { from: env.src.as_u32(), bytes });
        // The envelope's send time is not in the event (it would move every
        // trace FNV), so the latency is the one metric a receive states
        // itself.
        self.obs.observe(HistKey::MessageLatency, now - env.send_time);
        let status = self.status(env.src, env.wire_tag, env.len());
        Ok((env.payload, status))
    }

    fn iprobe(&self, src: RankSelector, tag: TagSelector) -> Result<Option<Status>> {
        let spec = MatchSpec { ns: Namespace::User, src, tag };
        self.check_abort()?;
        Ok(self.mailbox().try_peek_match(&spec).map(|info| {
            self.sync_to_arrival(info.send_time, info.len);
            self.status(info.src, info.wire_tag, info.len)
        }))
    }

    fn probe_any(&self, specs: &[(RankSelector, TagSelector)]) -> Result<(usize, Status)> {
        assert!(!specs.is_empty(), "probe_any needs at least one selector pair");
        let specs: Vec<MatchSpec> =
            specs.iter().map(|&(src, tag)| MatchSpec { ns: Namespace::User, src, tag }).collect();
        self.check_abort()?;
        let (i, info) = self.matched(self.mailbox().peek_any(
            &specs,
            || self.shared.is_aborted(),
            || specs.iter().find_map(|s| self.dead_source(s)),
            &self.obs,
        ))?;
        self.sync_to_arrival(info.send_time, info.len);
        self.check_abort()?;
        Ok((i, self.status(info.src, info.wire_tag, info.len)))
    }

    fn next_collective_seq(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        s
    }

    fn obs(&self) -> &Obs {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::Comm;

    #[test]
    fn comm_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Comm>();
    }
}
