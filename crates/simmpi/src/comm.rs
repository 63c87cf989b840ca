//! The concrete communicator: [`Comm`] is the world communicator every
//! rank's closure receives and, with a group attached by
//! [`split`](Comm::split) or [`dup`](Comm::dup), a derived one.

use std::cell::Cell;
use std::rc::Rc;
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
/// rank's last communicator handle drops. The totals are only read after
/// every rank has joined, so batching them here keeps atomic read-modify-
/// write traffic off the per-send hot path.
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

/// What a derived communicator adds to the world: a subset of the world
/// ranks, renumbered, in a tag space of its own.
#[derive(Debug)]
struct Group {
    comm_id: u16,
    /// Members in group-rank order (world ranks).
    members: Vec<Rank>,
    /// Reverse map: world rank index → group rank.
    reverse: Vec<Option<u32>>,
    /// This rank's group rank.
    my_rank: Rank,
}

/// One rank's handle on a communicator: the world (every rank's closure
/// receives one) or a group derived from it by [`split`](Comm::split) /
/// [`dup`](Comm::dup), with renumbered ranks and an isolated tag space.
///
/// `Comm` is `Send` (it can be created on the rank's own thread) but not
/// `Sync`: a rank's communicator belongs to that rank's thread alone, like
/// an `MPI_COMM_WORLD` handle.
#[derive(Debug)]
pub struct Comm {
    shared: Arc<Shared>,
    /// This rank's world rank ([`Communicator::rank`] is its rank here).
    world_rank: Rank,
    clock: Rc<VirtualClock>,
    coll_seq: Cell<u64>,
    next_comm_id: Rc<Cell<u16>>,
    counters: Rc<SendCounters>,
    obs: Rc<Obs>,
    /// `None`: the world — communicator id 0, identity rank translation.
    group: Option<Group>,
}

/// A communicator derived by [`Comm::split`] or [`Comm::dup`]. The same
/// type as the world communicator; the name says which one is meant.
pub type SubComm = Comm;

impl Comm {
    pub(crate) fn new(shared: Arc<Shared>, rank: u32, start_time: f64, obs: Obs) -> Self {
        let counters = Rc::new(SendCounters::new(Arc::clone(&shared)));
        Comm {
            shared,
            world_rank: Rank::new(rank),
            clock: Rc::new(VirtualClock::starting_at(start_time)),
            coll_seq: Cell::new(0),
            next_comm_id: Rc::new(Cell::new(1)),
            counters,
            obs: Rc::new(obs),
            group: None,
        }
    }

    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    pub(crate) fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Splits the world into sub-communicators by `color`; ranks with equal
    /// color form one group, ordered by `(key, world rank)`. Collective over
    /// the world communicator.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::CollectiveMismatch`], before any traffic, when
    /// called on a derived communicator (see [`dup`](Self::dup)), or an
    /// error if the run aborted.
    pub fn split(&self, color: u64, key: u64) -> Result<SubComm> {
        self.world_only()?;
        let my = crate::datatype::encode(&[color, key, self.world_rank.as_u32() as u64]);
        let all = self.allgather(my)?;
        let mut members: Vec<(u64, u32)> = Vec::new();
        for part in &all {
            let (&[c, k, r], []) = part.as_chunks::<8>() else {
                return Err(MpiError::CollectiveMismatch { what: "split exchange payload" });
            };
            if u64::from_le_bytes(c) == color {
                members.push((u64::from_le_bytes(k), u64::from_le_bytes(r) as u32));
            }
        }
        members.sort_unstable();
        self.derive(members.iter().map(|&(_, r)| Rank::new(r)).collect())
    }

    /// Duplicates the world communicator into an isolated tag space.
    /// Collective over the world communicator.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::CollectiveMismatch`], before any traffic, when
    /// called on a derived communicator: communicator ids come from a
    /// per-rank counter that stays aligned across ranks only because every
    /// rank of the world takes part in every derivation. Otherwise returns
    /// an error if the run aborted.
    pub fn dup(&self) -> Result<SubComm> {
        self.world_only()?;
        // Synchronize so every rank allocates the same comm id at the same
        // point in its collective sequence.
        self.barrier()?;
        self.derive(self.members())
    }

    fn world_only(&self) -> Result<()> {
        match self.group {
            None => Ok(()),
            Some(_) => Err(MpiError::CollectiveMismatch {
                what: "split and dup are collective over the world communicator only",
            }),
        }
    }

    /// The communicator over `members` (world ranks, in group-rank order)
    /// with the next communicator id.
    fn derive(&self, members: Vec<Rank>) -> Result<SubComm> {
        let mut reverse = vec![None; self.shared.n];
        for (i, wr) in members.iter().enumerate() {
            reverse[wr.index()] = Some(i as u32);
        }
        let my_rank = reverse[self.world_rank.index()]
            .map(Rank::new)
            .ok_or(MpiError::InvalidRank { rank: self.world_rank.index(), size: members.len() })?;
        let comm_id = self.next_comm_id.get();
        // detlint::allow(R4, reason = "deterministic resource-exhaustion bug (65535 derives), not a runtime race; making every derive fallible for it would poison the whole API for an unreachable case")
        self.next_comm_id.set(comm_id.checked_add(1).expect("communicator id space exhausted"));
        Ok(Comm {
            shared: Arc::clone(&self.shared),
            world_rank: self.world_rank,
            clock: Rc::clone(&self.clock),
            coll_seq: Cell::new(0),
            next_comm_id: Rc::clone(&self.next_comm_id),
            counters: Rc::clone(&self.counters),
            obs: Rc::clone(&self.obs),
            group: Some(Group { comm_id, members, reverse, my_rank }),
        })
    }

    /// The world ranks of the members, in this communicator's rank order.
    pub fn members(&self) -> Vec<Rank> {
        match &self.group {
            None => (0..self.shared.n).map(|i| Rank::new(i as u32)).collect(),
            Some(g) => g.members.clone(),
        }
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
        let death = self.shared.death_time(self.world_rank);
        if self.clock.now() >= death {
            // This rank's own fail-stop: flag it (waking receivers blocked on
            // it) and stop executing. Deliberately *not* a world abort — peers
            // keep running and observe the death per-operation.
            if self.shared.mark_dead(self.world_rank) {
                self.obs.event(death, EventKind::Death);
            }
            return Err(MpiError::Dead { rank: self.world_rank, at: death });
        }
        // Deliberately NOT polled here: the world-abort flag. It is raised at
        // a *physical* instant (whichever rank escalates first), so a running
        // rank observing it would stop after a host-timing-dependent number
        // of operations and make message counts run-to-run noisy. Running
        // ranks stop only through deterministic virtual-time exits — own
        // death, DeadPeer/SphereDead escalation — and *parked*
        // ranks return Aborted once the abort is final (no rank can ever
        // push again). See `mailbox::Quiesce`.
        Ok(())
    }

    fn mailbox(&self) -> &Mailbox {
        &self.shared.mailboxes[self.world_rank.index()]
    }

    /// The structural match specification of a receive or probe posted on
    /// this communicator: selectors translated to world ranks, plus the
    /// group's membership table for `ANY_SOURCE`.
    fn spec(&self, src: RankSelector, tag: TagSelector, ns: Namespace) -> Result<MatchSpec<'_>> {
        let Some(g) = &self.group else {
            return Ok(MatchSpec { comm_id: 0, ns, src, tag, member: None });
        };
        let src = match src {
            RankSelector::Rank(r) => RankSelector::Rank(g.to_world(r)?),
            RankSelector::Any => RankSelector::Any,
        };
        Ok(MatchSpec { comm_id: g.comm_id, ns, src, tag, member: Some(&g.reverse) })
    }

    /// Returns the awaited world rank if `spec` names a specific sender
    /// that has fail-stopped (receives use this to stop waiting: a dead
    /// rank has already deposited everything it will ever send).
    fn dead_source(&self, spec: &MatchSpec<'_>) -> Option<Rank> {
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
        }
    }

    /// Advances the clock to the instant a message deposited at `send_time`
    /// is available here.
    fn sync_to_arrival(&self, send_time: f64, len: usize) {
        self.clock.sync_to(self.shared.cost.availability(send_time, len));
    }

    /// The status of a message from world rank `src`, in this
    /// communicator's rank numbering, stamped with the current time.
    fn status(&self, src: Rank, wire_tag: WireTag, len: usize) -> Status {
        let source = match &self.group {
            None => src,
            // detlint::allow(R4, reason = "invariant: the membership table in the match spec admits member sources only")
            Some(g) => Rank::new(g.reverse[src.index()].expect("sender is a member")),
        };
        Status { source, tag: wire_tag.user_tag(), len, completed_at: self.clock.now() }
    }
}

impl Group {
    fn to_world(&self, rank: Rank) -> Result<Rank> {
        self.members
            .get(rank.index())
            .copied()
            .ok_or(MpiError::InvalidRank { rank: rank.index(), size: self.members.len() })
    }
}

impl Communicator for Comm {
    fn rank(&self) -> Rank {
        self.group.as_ref().map_or(self.world_rank, |g| g.my_rank)
    }

    fn size(&self) -> usize {
        self.group.as_ref().map_or(self.shared.n, |g| g.members.len())
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
        let (dest, comm_id) = match &self.group {
            None => (dest, 0),
            Some(g) => (g.to_world(dest)?, g.comm_id),
        };
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
            Envelope {
                src: self.world_rank,
                wire_tag: tag.wire(comm_id, ns),
                payload: data,
                send_time: now,
            },
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
        let spec = self.spec(src, tag, ns)?;
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
        let spec = self.spec(src, tag, Namespace::User)?;
        self.check_abort()?;
        Ok(self.mailbox().try_peek_match(&spec).map(|info| {
            self.sync_to_arrival(info.send_time, info.len);
            self.status(info.src, info.wire_tag, info.len)
        }))
    }

    fn probe_any(&self, specs: &[(RankSelector, TagSelector)]) -> Result<(usize, Status)> {
        assert!(!specs.is_empty(), "probe_any needs at least one selector pair");
        // One pair (every `probe`) stays off the heap.
        let (one, many);
        let specs = match specs {
            [(src, tag)] => {
                one = self.spec(*src, *tag, Namespace::User)?;
                std::slice::from_ref(&one)
            }
            _ => {
                let translated = specs.iter().map(|&(s, t)| self.spec(s, t, Namespace::User));
                many = translated.collect::<Result<Vec<_>>>()?;
                &many[..]
            }
        };
        self.check_abort()?;
        let (i, info) = self.matched(self.mailbox().peek_any(
            specs,
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
