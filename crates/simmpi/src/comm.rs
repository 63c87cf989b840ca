//! Concrete communicators: the world communicator [`Comm`] and derived
//! sub-communicators [`SubComm`].

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use redcr_metrics::{CounterKey, HistKey};
use redcr_trace::EventKind;

use crate::communicator::Communicator;
use crate::error::{MpiError, Result};
use crate::mailbox::{MatchSpec, Outcome, PeekInfo};
use crate::message::{Envelope, Status};
use crate::obs::Obs;
use crate::rank::{Rank, RankSelector};
use crate::request::{Request, RequestKind};
use crate::tag::{Namespace, Tag, TagSelector};
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

/// The world communicator of one rank: every rank's closure receives one.
///
/// `Comm` is `Send` (it can be created on the rank's own thread) but not
/// `Sync`: a rank's communicator belongs to that rank's thread alone, like
/// an `MPI_COMM_WORLD` handle.
#[derive(Debug)]
pub struct Comm {
    shared: Arc<Shared>,
    rank: Rank,
    clock: Rc<VirtualClock>,
    coll_seq: Cell<u64>,
    next_comm_id: Rc<Cell<u16>>,
    counters: Rc<SendCounters>,
    obs: Rc<Obs>,
}

impl Comm {
    pub(crate) fn new(shared: Arc<Shared>, rank: u32, start_time: f64, obs: Obs) -> Self {
        let counters = Rc::new(SendCounters::new(Arc::clone(&shared)));
        Comm {
            shared,
            rank: Rank::new(rank),
            clock: Rc::new(VirtualClock::starting_at(start_time)),
            coll_seq: Cell::new(0),
            next_comm_id: Rc::new(Cell::new(1)),
            counters,
            obs: Rc::new(obs),
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
    /// Returns an error if the run aborted.
    pub fn split(&self, color: u64, key: u64) -> Result<SubComm> {
        let my = crate::datatype::encode_u64s(&[color, key, self.rank.as_u32() as u64]);
        let all = self.allgather(Bytes::from(my))?;
        let mut members: Vec<(u64, u32)> = Vec::new();
        for part in &all {
            let vals = crate::datatype::decode_u64s(part)?;
            if vals.len() != 3 {
                return Err(MpiError::CollectiveMismatch { what: "split exchange payload" });
            }
            if vals[0] == color {
                members.push((vals[1], vals[2] as u32));
            }
        }
        members.sort_unstable();
        let world_ranks: Vec<Rank> = members.iter().map(|&(_, r)| Rank::new(r)).collect();
        let comm_id = self.allocate_comm_id();
        SubComm::derive(self, world_ranks, comm_id)
    }

    /// Duplicates the world communicator into an isolated tag space.
    /// Collective over the world communicator.
    ///
    /// # Errors
    ///
    /// Returns an error if the run aborted.
    pub fn dup(&self) -> Result<SubComm> {
        // Synchronize so every rank allocates the same comm id at the same
        // point in its collective sequence.
        self.barrier()?;
        let world_ranks: Vec<Rank> = (0..self.size()).map(|i| Rank::new(i as u32)).collect();
        let comm_id = self.allocate_comm_id();
        SubComm::derive(self, world_ranks, comm_id)
    }

    fn allocate_comm_id(&self) -> u16 {
        let id = self.next_comm_id.get();
        // detlint::allow(R4, reason = "deterministic resource-exhaustion bug (65535 derives), not a runtime race; making every derive fallible for it would poison the whole API for an unreachable case")
        self.next_comm_id.set(id.checked_add(1).expect("communicator id space exhausted"));
        id
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
    /// Returns [`MpiError::Aborted`] if the clock crosses the abort horizon.
    pub fn charge_comm(&self, seconds: f64) -> Result<()> {
        self.check_abort()?;
        self.clock.advance_comm(seconds);
        self.check_abort()
    }

    fn check_abort(&self) -> Result<()> {
        self.endpoint().check_abort()
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
}

/// Shared implementation of the point-to-point primitives, parameterized by
/// the rank translation of the communicator.
struct Endpoint<'a> {
    shared: &'a Shared,
    clock: &'a VirtualClock,
    /// This rank's world rank.
    world_rank: Rank,
    /// This rank's communicator-level rank (for error reporting).
    comm_rank: Rank,
    comm_id: u16,
    counters: &'a SendCounters,
    obs: &'a Obs,
}

impl Endpoint<'_> {
    fn check_abort(&self) -> Result<()> {
        let now = self.clock.now();
        let death = self.shared.death_time(self.world_rank);
        if now >= death {
            // This rank's own fail-stop: flag it (waking receivers blocked on
            // it) and stop executing. Deliberately *not* a world abort — peers
            // keep running and observe the death per-operation.
            if self.shared.mark_dead(self.world_rank) {
                self.obs.event(death, EventKind::Death);
                self.obs.inc(CounterKey::Deaths, death);
            }
            return Err(MpiError::Dead { rank: self.world_rank, at: death });
        }
        if now >= self.shared.abort_horizon {
            self.shared.trigger_abort();
            return Err(MpiError::Aborted { rank: self.comm_rank, at: now });
        }
        // Deliberately NOT polled here: the world-abort flag. It is raised at
        // a *physical* instant (whichever rank escalates first), so a running
        // rank observing it would stop after a host-timing-dependent number
        // of operations and make message counts run-to-run noisy. Running
        // ranks stop only through deterministic virtual-time exits — own
        // death, DeadPeer/SphereDead escalation, the horizon — and *parked*
        // ranks return Aborted once the abort is final (no rank can ever
        // push again). See `mailbox::Quiesce`.
        Ok(())
    }

    /// Returns the awaited world rank if `src` names a specific sender that
    /// has fail-stopped (receives use this to stop waiting: a dead rank has
    /// already deposited everything it will ever send).
    fn dead_source(&self, src: RankSelector) -> Option<Rank> {
        match src {
            RankSelector::Rank(r) if self.shared.is_dead(r) => Some(r),
            _ => None,
        }
    }

    fn send(&self, world_dest: Rank, tag: Tag, data: Bytes, ns: Namespace) -> Result<()> {
        self.check_abort()?;
        if world_dest.index() >= self.shared.n {
            return Err(MpiError::InvalidRank { rank: world_dest.index(), size: self.shared.n });
        }
        // Deterministic dead-peer detection: the destination is dead from
        // this rank's point of view once its sampled death time is at or
        // before this rank's clock. (Delivery to a peer that dies *later*
        // in virtual time stays valid: the message is either consumed
        // before the peer's death or sits unread in its mailbox.)
        if self.shared.death_time(world_dest) <= self.clock.now() {
            return Err(MpiError::DeadPeer { peer: world_dest, at: self.clock.now() });
        }
        self.clock.advance_comm(self.shared.cost.msg_overhead);
        let bytes = data.len() as u64;
        self.counters.record(bytes);
        let now = self.clock.now();
        self.shared.mailboxes[world_dest.index()].push(
            Envelope {
                src: self.world_rank,
                wire_tag: tag.wire(self.comm_id, ns),
                payload: data,
                send_time: now,
            },
            self.obs,
        );
        self.obs.event(now, EventKind::Send { to: world_dest.as_u32(), bytes });
        self.obs.inc(CounterKey::Sends, now);
        self.obs.add(CounterKey::BytesSent, bytes, now);
        self.obs.observe(HistKey::PayloadSize, bytes as f64);
        Ok(())
    }

    /// The structural match specification for a receive or probe posted on
    /// this endpoint's communicator.
    fn spec<'a>(
        &self,
        src: RankSelector,
        tag: TagSelector,
        ns: Namespace,
        member_filter: Option<&'a dyn Fn(Rank) -> bool>,
    ) -> MatchSpec<'a> {
        MatchSpec { comm_id: self.comm_id, ns, src, tag, member: member_filter }
    }

    /// Receives with `src` given as a *world-rank* selector plus an optional
    /// membership filter for `ANY_SOURCE` in sub-communicators.
    fn recv(
        &self,
        src: RankSelector,
        tag: TagSelector,
        ns: Namespace,
        member_filter: Option<&dyn Fn(Rank) -> bool>,
    ) -> Result<Envelope> {
        self.check_abort()?;
        let spec = self.spec(src, tag, ns, member_filter);
        let mailbox = &self.shared.mailboxes[self.world_rank.index()];
        match mailbox.recv_match(
            &spec,
            || self.shared.is_aborted(),
            || self.dead_source(src),
            self.obs,
        ) {
            Outcome::Matched(env) => {
                let avail = self.shared.cost.availability(env.send_time, env.len());
                self.clock.sync_to(avail);
                self.clock.advance_comm(self.shared.cost.msg_overhead);
                self.check_abort()?;
                self.record_recv(&env);
                Ok(env)
            }
            Outcome::Aborted => {
                Err(MpiError::Aborted { rank: self.comm_rank, at: self.clock.now() })
            }
            Outcome::SourceDead(peer) => Err(MpiError::DeadPeer { peer, at: self.clock.now() }),
        }
    }

    fn record_recv(&self, env: &Envelope) {
        let (now, bytes) = (self.clock.now(), env.payload.len() as u64);
        self.obs.event(now, EventKind::Recv { from: env.src.as_u32(), bytes });
        self.obs.inc(CounterKey::Recvs, now);
        self.obs.add(CounterKey::BytesReceived, bytes, now);
        self.obs.observe(HistKey::MessageLatency, now - env.send_time);
    }

    fn iprobe(
        &self,
        src: RankSelector,
        tag: TagSelector,
        ns: Namespace,
        member_filter: Option<&dyn Fn(Rank) -> bool>,
    ) -> Result<Option<PeekInfo>> {
        self.check_abort()?;
        let spec = self.spec(src, tag, ns, member_filter);
        let mailbox = &self.shared.mailboxes[self.world_rank.index()];
        if let Some(info) = mailbox.try_peek_match(&spec) {
            let avail = self.shared.cost.availability(info.send_time, info.len);
            self.clock.sync_to(avail);
            Ok(Some(info))
        } else {
            Ok(None)
        }
    }

    /// Non-blocking matched receive: consumes and returns the first
    /// matching envelope if one is buffered.
    fn try_recv(
        &self,
        src: RankSelector,
        tag: TagSelector,
        ns: Namespace,
        member_filter: Option<&dyn Fn(Rank) -> bool>,
    ) -> Result<Option<Envelope>> {
        self.check_abort()?;
        let spec = self.spec(src, tag, ns, member_filter);
        let mailbox = &self.shared.mailboxes[self.world_rank.index()];
        match mailbox.try_recv_match(&spec) {
            Some(env) => {
                let avail = self.shared.cost.availability(env.send_time, env.len());
                self.clock.sync_to(avail);
                self.clock.advance_comm(self.shared.cost.msg_overhead);
                self.check_abort()?;
                self.record_recv(&env);
                Ok(Some(env))
            }
            None => Ok(None),
        }
    }

    fn probe(
        &self,
        src: RankSelector,
        tag: TagSelector,
        ns: Namespace,
        member_filter: Option<&dyn Fn(Rank) -> bool>,
    ) -> Result<PeekInfo> {
        self.check_abort()?;
        let spec = self.spec(src, tag, ns, member_filter);
        let mailbox = &self.shared.mailboxes[self.world_rank.index()];
        match mailbox.peek_match(
            &spec,
            || self.shared.is_aborted(),
            || self.dead_source(src),
            self.obs,
        ) {
            Outcome::Matched(info) => {
                let avail = self.shared.cost.availability(info.send_time, info.len);
                self.clock.sync_to(avail);
                self.check_abort()?;
                Ok(info)
            }
            Outcome::Aborted => {
                Err(MpiError::Aborted { rank: self.comm_rank, at: self.clock.now() })
            }
            Outcome::SourceDead(peer) => Err(MpiError::DeadPeer { peer, at: self.clock.now() }),
        }
    }
}

impl Communicator for Comm {
    type Request = Request;

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
        self.endpoint().send(dest, tag, data, ns)
    }

    fn recv_ns(
        &self,
        src: RankSelector,
        tag: TagSelector,
        ns: Namespace,
    ) -> Result<(Bytes, Status)> {
        let env = self.endpoint().recv(src, tag, ns, None)?;
        Ok(self.envelope_to_result(env))
    }

    fn isend(&self, dest: Rank, tag: Tag, data: Bytes) -> Result<Self::Request> {
        self.send_ns(dest, tag, data, Namespace::User)?;
        Ok(Request(RequestKind::Send))
    }

    fn irecv(&self, src: RankSelector, tag: TagSelector) -> Result<Self::Request> {
        self.check_abort()?;
        Ok(Request(RequestKind::Recv { src, tag }))
    }

    fn wait(&self, req: Self::Request) -> Result<Option<(Bytes, Status)>> {
        match req.0 {
            RequestKind::Send => Ok(None),
            RequestKind::Recv { src, tag } => {
                let (bytes, status) = self.recv_ns(src, tag, Namespace::User)?;
                Ok(Some((bytes, status)))
            }
        }
    }

    fn iprobe(&self, src: RankSelector, tag: TagSelector) -> Result<Option<Status>> {
        let info = self.endpoint().iprobe(src, tag, Namespace::User, None)?;
        Ok(info.map(|i| self.peek_to_status(i)))
    }

    fn probe(&self, src: RankSelector, tag: TagSelector) -> Result<Status> {
        let info = self.endpoint().probe(src, tag, Namespace::User, None)?;
        Ok(self.peek_to_status(info))
    }

    fn test(&self, req: Self::Request) -> Result<crate::TestOutcome<Self::Request>> {
        match req.0 {
            RequestKind::Send => Ok(crate::TestOutcome::Completed(None)),
            RequestKind::Recv { src, tag } => {
                match self.endpoint().try_recv(src, tag, Namespace::User, None)? {
                    Some(env) => {
                        Ok(crate::TestOutcome::Completed(Some(self.envelope_to_result(env))))
                    }
                    None => {
                        Ok(crate::TestOutcome::Pending(Request(RequestKind::Recv { src, tag })))
                    }
                }
            }
        }
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

impl Comm {
    fn endpoint(&self) -> Endpoint<'_> {
        Endpoint {
            shared: &self.shared,
            clock: &self.clock,
            world_rank: self.rank,
            comm_rank: self.rank,
            comm_id: 0,
            counters: &self.counters,
            obs: &self.obs,
        }
    }

    fn envelope_to_result(&self, env: Envelope) -> (Bytes, Status) {
        let status = Status {
            source: env.src,
            tag: env.wire_tag.user_tag(),
            len: env.payload.len(),
            completed_at: self.clock.now(),
        };
        (env.payload, status)
    }

    fn peek_to_status(&self, info: PeekInfo) -> Status {
        Status {
            source: info.src,
            tag: info.wire_tag.user_tag(),
            len: info.len,
            completed_at: self.clock.now(),
        }
    }
}

/// A communicator derived from the world by [`Comm::split`] or
/// [`Comm::dup`]: a subset of world ranks with renumbered ranks and an
/// isolated tag space.
#[derive(Debug)]
pub struct SubComm {
    shared: Arc<Shared>,
    clock: Rc<VirtualClock>,
    coll_seq: Cell<u64>,
    comm_id: u16,
    /// Members in sub-rank order (world ranks).
    members: Vec<Rank>,
    /// Reverse map: world rank index → sub rank.
    reverse: Vec<Option<u32>>,
    my_sub_rank: Rank,
    my_world_rank: Rank,
    counters: Rc<SendCounters>,
    obs: Rc<Obs>,
}

impl SubComm {
    fn derive(parent: &Comm, members: Vec<Rank>, comm_id: u16) -> Result<Self> {
        let mut reverse = vec![None; parent.shared.n];
        for (i, wr) in members.iter().enumerate() {
            reverse[wr.index()] = Some(i as u32);
        }
        let my_sub_rank = reverse[parent.rank.index()]
            .map(Rank::new)
            .ok_or(MpiError::InvalidRank { rank: parent.rank.index(), size: members.len() })?;
        Ok(SubComm {
            shared: Arc::clone(&parent.shared),
            clock: Rc::clone(&parent.clock),
            coll_seq: Cell::new(0),
            comm_id,
            members,
            reverse,
            my_sub_rank,
            my_world_rank: parent.rank,
            counters: Rc::clone(&parent.counters),
            obs: Rc::clone(&parent.obs),
        })
    }

    /// The world ranks of the members, in sub-rank order.
    pub fn members(&self) -> &[Rank] {
        &self.members
    }

    fn endpoint(&self) -> Endpoint<'_> {
        Endpoint {
            shared: &self.shared,
            clock: &self.clock,
            world_rank: self.my_world_rank,
            comm_rank: self.my_sub_rank,
            comm_id: self.comm_id,
            counters: &self.counters,
            obs: &self.obs,
        }
    }

    fn to_world(&self, sub: Rank) -> Result<Rank> {
        self.members
            .get(sub.index())
            .copied()
            .ok_or(MpiError::InvalidRank { rank: sub.index(), size: self.members.len() })
    }

    fn to_sub(&self, world: Rank) -> Rank {
        // detlint::allow(R4, reason = "invariant: callers only translate ranks already validated against the sub-communicator membership")
        Rank::new(self.reverse[world.index()].expect("sender is a member"))
    }

    fn translate_selector(&self, src: RankSelector) -> Result<RankSelector> {
        Ok(match src {
            RankSelector::Rank(r) => RankSelector::Rank(self.to_world(r)?),
            RankSelector::Any => RankSelector::Any,
        })
    }

    fn envelope_to_result(&self, env: Envelope) -> (Bytes, Status) {
        let status = Status {
            source: self.to_sub(env.src),
            tag: env.wire_tag.user_tag(),
            len: env.payload.len(),
            completed_at: self.clock.now(),
        };
        (env.payload, status)
    }

    fn peek_to_status(&self, info: PeekInfo) -> Status {
        Status {
            source: self.to_sub(info.src),
            tag: info.wire_tag.user_tag(),
            len: info.len,
            completed_at: self.clock.now(),
        }
    }

    fn member_filter(&self) -> impl Fn(Rank) -> bool + '_ {
        move |world: Rank| self.reverse[world.index()].is_some()
    }

    fn check_abort(&self) -> Result<()> {
        self.endpoint().check_abort()
    }
}

impl Communicator for SubComm {
    type Request = Request;

    fn rank(&self) -> Rank {
        self.my_sub_rank
    }

    fn size(&self) -> usize {
        self.members.len()
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
        let world_dest = self.to_world(dest)?;
        self.endpoint().send(world_dest, tag, data, ns)
    }

    fn recv_ns(
        &self,
        src: RankSelector,
        tag: TagSelector,
        ns: Namespace,
    ) -> Result<(Bytes, Status)> {
        let world_src = self.translate_selector(src)?;
        let filter = self.member_filter();
        let env = self.endpoint().recv(world_src, tag, ns, Some(&filter))?;
        Ok(self.envelope_to_result(env))
    }

    fn isend(&self, dest: Rank, tag: Tag, data: Bytes) -> Result<Self::Request> {
        self.send_ns(dest, tag, data, Namespace::User)?;
        Ok(Request(RequestKind::Send))
    }

    fn irecv(&self, src: RankSelector, tag: TagSelector) -> Result<Self::Request> {
        self.check_abort()?;
        Ok(Request(RequestKind::Recv { src, tag }))
    }

    fn wait(&self, req: Self::Request) -> Result<Option<(Bytes, Status)>> {
        match req.0 {
            RequestKind::Send => Ok(None),
            RequestKind::Recv { src, tag } => {
                let (bytes, status) = self.recv_ns(src, tag, Namespace::User)?;
                Ok(Some((bytes, status)))
            }
        }
    }

    fn iprobe(&self, src: RankSelector, tag: TagSelector) -> Result<Option<Status>> {
        let world_src = self.translate_selector(src)?;
        let filter = self.member_filter();
        let info = self.endpoint().iprobe(world_src, tag, Namespace::User, Some(&filter))?;
        Ok(info.map(|i| self.peek_to_status(i)))
    }

    fn probe(&self, src: RankSelector, tag: TagSelector) -> Result<Status> {
        let world_src = self.translate_selector(src)?;
        let filter = self.member_filter();
        let info = self.endpoint().probe(world_src, tag, Namespace::User, Some(&filter))?;
        Ok(self.peek_to_status(info))
    }

    fn test(&self, req: Self::Request) -> Result<crate::TestOutcome<Self::Request>> {
        match req.0 {
            RequestKind::Send => Ok(crate::TestOutcome::Completed(None)),
            RequestKind::Recv { src, tag } => {
                let world_src = self.translate_selector(src)?;
                let filter = self.member_filter();
                match self.endpoint().try_recv(world_src, tag, Namespace::User, Some(&filter))? {
                    Some(env) => {
                        Ok(crate::TestOutcome::Completed(Some(self.envelope_to_result(env))))
                    }
                    None => {
                        Ok(crate::TestOutcome::Pending(Request(RequestKind::Recv { src, tag })))
                    }
                }
            }
        }
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
