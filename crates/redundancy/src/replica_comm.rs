//! The interposed communicator: presents a virtual world of `N` ranks while
//! running on a physical world of `N_total` replicas.

use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;

use redcr_mpi::tag::Namespace;
use redcr_mpi::{
    datatype, Comm, Communicator, MpiError, Rank, RankSelector, Request, Result, Status, Tag,
    TagSelector, TestOutcome,
};

use crate::corruption::{CorruptionInjector, CorruptionModel};
use crate::stats::StatsSnapshot;
use crate::vmap::VirtualMap;
use crate::voting::{hash_payload, vote_hashed, vote_present, VoteCost, VotingMode};

/// Stack capacity for per-receive copy buffers: spheres up to this degree
/// gather and vote without touching the allocator (the receive path runs
/// once per virtual message — with the old per-receive `Vec`s the malloc
/// traffic dominated the replicated hot path's user time).
const STACK_COPIES: usize = 8;

/// Base of the protocol-namespace tag subrange reserved for the replication
/// layer's wildcard envelope forwarding (bit 45 set). Other protocol users
/// (e.g. checkpoint coordination) must stay below this value.
pub const ENVELOPE_TAG_BASE: u64 = 1 << 45;

/// A replicated communicator: the RedMPI-style interposition layer.
///
/// Every physical replica executes the application; `ReplicaComm` presents
/// the *virtual* rank space (`rank()`/`size()` report virtual values) and
/// translates each virtual point-to-point operation into the physical
/// fan-out described in the paper's Section 3.
#[derive(Debug)]
pub struct ReplicaComm<'a> {
    base: &'a Comm,
    vmap: Arc<VirtualMap>,
    my_virtual: Rank,
    my_replica: usize,
    mode: VotingMode,
    vote_cost: VoteCost,
    corruption: Option<CorruptionInjector>,
    stats: Cell<StatsSnapshot>,
    wildcard_seq: Cell<u64>,
    coll_seq: Cell<u64>,
}

impl<'a> ReplicaComm<'a> {
    /// Wraps a physical world communicator; `vote_cost` models the
    /// processing of redundant copies on the receive path. `base.size()`
    /// must equal the map's physical size.
    ///
    /// # Panics
    ///
    /// Panics if the base communicator size does not match the map.
    pub fn new(
        base: &'a Comm,
        vmap: Arc<VirtualMap>,
        mode: VotingMode,
        vote_cost: VoteCost,
    ) -> Self {
        assert_eq!(
            base.size(),
            vmap.n_physical(),
            "base world size must equal the virtual map's physical size"
        );
        let (my_virtual, my_replica) = vmap.owner_of(base.rank());
        ReplicaComm {
            base,
            vmap,
            my_virtual,
            my_replica,
            mode,
            vote_cost,
            corruption: None,
            stats: Cell::default(),
            wildcard_seq: Cell::new(0),
            coll_seq: Cell::new(0),
        }
    }

    /// Enables deterministic silent-data-corruption injection on this
    /// replica's outgoing physical copies (see
    /// [`CorruptionModel`](crate::CorruptionModel)). The receiver-side
    /// voting detects — and with three or more copies, corrects — the
    /// corrupted copies.
    pub fn with_corruption(mut self, model: CorruptionModel) -> Self {
        self.corruption = Some(CorruptionInjector::new(model));
        self
    }

    /// Applies the SDC injector to one outgoing physical copy.
    fn maybe_corrupt(&self, data: Bytes) -> Bytes {
        let Some(injector) = &self.corruption else { return data };
        match injector.corrupt_at(self.base.rank().as_u32(), self.my_replica, data.len()) {
            Some(at) => {
                let mut owned = data.to_vec();
                owned[at] ^= 0x01; // a single flipped bit
                Bytes::from(owned)
            }
            None => data,
        }
    }

    /// This process's virtual rank (same as [`Communicator::rank`]).
    pub fn virtual_rank(&self) -> Rank {
        self.my_virtual
    }

    /// The virtual↔physical map.
    pub fn vmap(&self) -> &VirtualMap {
        &self.vmap
    }

    /// The voting mode in effect.
    pub fn voting_mode(&self) -> VotingMode {
        self.mode
    }

    /// Replication statistics collected by this replica so far.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.get()
    }

    /// Applies one `record_*` update to this replica's statistics.
    fn count(&self, record: impl FnOnce(&mut StatsSnapshot)) {
        let mut stats = self.stats.get();
        record(&mut stats);
        self.stats.set(stats);
    }

    /// The underlying physical communicator (for diagnostics).
    pub fn base(&self) -> &Comm {
        self.base
    }

    /// Records one vote outcome in the statistics and, when tracing or
    /// metrics are on, as one event.
    fn record_vote(&self, copies: usize, unanimous: bool, corrected: bool) {
        self.count(|s| s.record_vote(unanimous, corrected));
        self.base.obs().event(
            self.base.now(),
            redcr_mpi::trace::EventKind::Vote { copies: copies as u32, unanimous, corrected },
        );
    }

    /// Whether sender replica `j` (of `r_send`) sends the full payload to
    /// receiver replica `i` (hash otherwise) in Msg-PlusHash mode. The
    /// pairing rule is shared by sender and receiver: receiver `i` gets the
    /// full copy from sender `i mod r_send`.
    fn pairs_full(j: usize, i: usize, r_send: usize) -> bool {
        i % r_send == j
    }

    /// Receives the `r_send` redundant physical copies of one virtual
    /// message from `src_v` with resolved user tag `tag`, skipping replica
    /// `already` (already consumed by a wildcard match, supplied as
    /// `copies[already]`), then votes and returns the winning payload.
    ///
    /// **Live degradation:** a sender replica that fail-stopped simply
    /// contributes no copy — the vote proceeds over the surviving copies
    /// (3 → 2 → 1). Only when *every* replica of the source sphere is dead
    /// does the receive escalate: the job cannot continue, so the whole run
    /// aborts and [`MpiError::SphereDead`] is returned.
    fn gather_copies_and_vote(
        &self,
        src_v: Rank,
        tag: Tag,
        ns: Namespace,
        pre_matched: Option<(usize, Bytes)>,
    ) -> Result<Bytes> {
        // Wall-clock span over the whole gather-and-vote: the redundant
        // copy receives plus the byte-wise comparison. Host clock only;
        // the virtual vote cost below is charged identically either way.
        let _vote_span = self.base.obs().span(redcr_mpi::prof::SpanKey::Vote);
        let vote_t0 = self.base.now();
        let senders = self.vmap.replicas_of(src_v);
        let r_send = senders.len();
        // Copies live in a stack buffer (sparse: `None` = sender replica
        // dead) — the common degrees must not touch the allocator on the
        // per-virtual-message path.
        let mut stack: [Option<Bytes>; STACK_COPIES] = std::array::from_fn(|_| None);
        let mut heap: Vec<Option<Bytes>>;
        let raw: &mut [Option<Bytes>] = if r_send <= STACK_COPIES {
            &mut stack[..r_send]
        } else {
            heap = vec![None; r_send];
            &mut heap
        };
        if let Some((k, payload)) = pre_matched {
            raw[k] = Some(payload);
        }
        for (j, phys) in senders.iter().enumerate() {
            if raw[j].is_some() {
                continue;
            }
            match self.base.recv_ns(RankSelector::Rank(*phys), TagSelector::Tag(tag), ns) {
                Ok((bytes, _)) => raw[j] = Some(bytes),
                Err(MpiError::DeadPeer { .. }) => self.count(StatsSnapshot::record_missing_copy),
                Err(e) => return Err(e),
            }
        }
        let present = raw.iter().flatten().count();
        if present == 0 {
            self.base.abort_job();
            return Err(MpiError::SphereDead { virtual_rank: src_v, at: self.base.now() });
        }
        self.count(|s| s.record_virtual_recv(present));
        // Processing the redundant copies (extra buffer handling plus the
        // byte-wise comparison) happens serially on the receive path.
        let payload_len = raw.iter().flatten().map(Bytes::len).max().unwrap_or(0);
        let processing = self.vote_cost.cost(present, payload_len);
        if processing > 0.0 {
            self.base.charge_comm(processing)?;
        }

        let payload = match self.mode {
            VotingMode::AllToAll => {
                let outcome = vote_present(raw);
                self.record_vote(present, outcome.unanimous, outcome.majority);
                // detlint::allow(R4, reason = "infallible: vote_present returns the index of a present copy by construction")
                raw[outcome.winner].take().expect("winner is present")
            }
            VotingMode::MsgPlusHash => {
                if r_send == 1 {
                    self.record_vote(1, true, false);
                    // detlint::allow(R4, reason = "invariant: with r_send == 1 delivery required the sole sender copy to be present")
                    raw[0].take().expect("present")
                } else {
                    // The pairing rule is fixed at sphere creation (senders
                    // cannot renegotiate it without communicating), so the
                    // designated full-copy sender does not change when
                    // replicas die. If that sender is dead, the surviving
                    // hashes cannot reconstruct the payload: this is the
                    // documented Msg-PlusHash degradation limit and the
                    // failure is unmaskable.
                    let full_idx = self.my_replica % r_send;
                    let Some(full) = raw[full_idx].take() else {
                        self.base.abort_job();
                        return Err(MpiError::DeadPeer {
                            peer: senders[full_idx],
                            at: self.base.now(),
                        });
                    };
                    // Vote over the *present* copies only, so dead replicas
                    // do not count against the majority. `raw[full_idx]` was
                    // just taken, so walk `raw` and keep the full copy's
                    // slot as the `None` hole `vote_hashed` expects.
                    let mut hash_stack: [Option<u64>; STACK_COPIES] = [None; STACK_COPIES];
                    let mut hash_heap: Vec<Option<u64>>;
                    let hashes: &mut [Option<u64>] = if r_send <= STACK_COPIES {
                        &mut hash_stack[..r_send]
                    } else {
                        hash_heap = vec![None; r_send];
                        &mut hash_heap
                    };
                    let mut full_pos = 0;
                    let mut filled = 0usize;
                    for (j, c) in raw.iter().enumerate() {
                        if j == full_idx {
                            full_pos = filled;
                            hashes[filled] = None;
                            filled += 1;
                        } else if let Some(bytes) = c {
                            hashes[filled] = Some(datatype::decode_u64(bytes)?);
                            filled += 1;
                        }
                    }
                    let outcome = vote_hashed(&full, full_pos, &hashes[..filled]);
                    self.record_vote(present, outcome.unanimous(), outcome.majority);
                    full
                }
            }
        };
        // The gather start is not in the `Vote` event (it would move every
        // trace FNV), so the vote states its latency itself.
        self.base
            .obs()
            .observe(redcr_mpi::metrics::HistKey::VoteLatency, self.base.now() - vote_t0);
        Ok(payload)
    }

    /// The physical replicas of virtual rank `v`, or the error for a rank
    /// outside the virtual world.
    fn check_virtual(&self, v: Rank) -> Result<&[Rank]> {
        if v.index() >= self.vmap.n_virtual() {
            return Err(MpiError::InvalidRank { rank: v.index(), size: self.vmap.n_virtual() });
        }
        Ok(self.vmap.replicas_of(v))
    }

    /// A physical probe status with its source mapped to the virtual rank.
    fn virtualize(&self, s: Status) -> Status {
        Status { source: self.vmap.owner_of(s.source).0, ..s }
    }

    /// The wildcard (`ANY_SOURCE`) receive protocol of paper Section 3.
    fn recv_wildcard(&self, tag: TagSelector, ns: Namespace) -> Result<(Bytes, Status)> {
        if ns != Namespace::User {
            return Err(MpiError::CollectiveMismatch {
                what: "wildcard receives are only supported for user messages",
            });
        }
        self.count(StatsSnapshot::record_wildcard_protocol);
        let my_replicas = self.vmap.replicas_of(self.my_virtual).to_vec();
        let wseq = self.wildcard_seq.get();
        self.wildcard_seq.set(wseq + 1);
        let envelope_tag = Tag::new(ENVELOPE_TAG_BASE | (wseq & (ENVELOPE_TAG_BASE - 1)));

        // Leadership with failover: the acting leader is the lowest-indexed
        // *live* replica of this sphere. A non-zero replica tries to learn
        // the resolved envelope from each lower-indexed candidate in order;
        // a candidate that fail-stopped without forwarding yields DeadPeer
        // and the search moves on. If every lower candidate is dead, this
        // replica becomes the leader and resolves the wildcard itself.
        let mut learned: Option<(Rank, Tag)> = None;
        for &cand in &my_replicas[..self.my_replica] {
            match self.base.recv_ns(
                RankSelector::Rank(cand),
                TagSelector::Tag(envelope_tag),
                Namespace::Protocol,
            ) {
                Ok((bytes, _)) => {
                    let vals = datatype::decode::<u64>(&bytes)?;
                    if vals.len() != 3 {
                        return Err(MpiError::DecodeError { what: "wildcard envelope" });
                    }
                    learned = Some((Rank::new(vals[0] as u32), Tag::new(vals[1])));
                    break;
                }
                Err(MpiError::DeadPeer { .. }) => continue,
                Err(e) => return Err(e),
            }
        }

        let (src_v, resolved_tag, pre_matched) = match learned {
            None => {
                // Acting leader (replica 0, or every lower replica is
                // dead): post the single wildcard receive.
                if self.my_replica > 0 {
                    // Leadership moved to this replica — every lower-indexed
                    // replica of the sphere died.
                    self.base.obs().event(
                        self.base.now(),
                        redcr_mpi::trace::EventKind::Failover { sphere: self.my_virtual.as_u32() },
                    );
                }
                let (bytes, status) = self.base.recv_ns(RankSelector::Any, tag, ns)?;
                let (src_v, k) = self.vmap.owner_of(status.source);
                (src_v, status.tag, Some((k, bytes)))
            }
            Some((src_v, t)) => (src_v, t, None),
        };

        // Relay the resolved envelope to every higher-indexed replica —
        // even when we learned it ourselves. A leader (or relayer) can
        // fail-stop partway through its forwarding loop; unconditional
        // relaying guarantees that the lowest live replica's resolution
        // reaches every live replica above it, so the sphere never diverges
        // and never deadlocks waiting on a forward that will not come.
        // Encode once and fan the same shared buffer out to every replica
        // (a `Bytes` clone is a refcount bump, not a copy).
        let envelope = datatype::encode(&[
            src_v.as_u32() as u64,
            resolved_tag.value(),
            pre_matched.as_ref().map_or(0, |(k, _)| *k as u64),
        ]);
        for replica in &my_replicas[self.my_replica + 1..] {
            match self.base.send_ns(*replica, envelope_tag, envelope.clone(), Namespace::Protocol) {
                Ok(()) | Err(MpiError::DeadPeer { .. }) => {}
                Err(e) => return Err(e),
            }
        }

        let payload = self.gather_copies_and_vote(src_v, resolved_tag, ns, pre_matched)?;
        let status = Status {
            source: src_v,
            tag: resolved_tag,
            len: payload.len(),
            completed_at: self.base.now(),
        };
        Ok((payload, status))
    }

    /// Specific-source receive: resolve the tag on the first replica if the
    /// tag is a wildcard, then gather all copies and vote.
    fn recv_specific(
        &self,
        src_v: Rank,
        tag: TagSelector,
        ns: Namespace,
    ) -> Result<(Bytes, Status)> {
        let senders = self.check_virtual(src_v)?;
        let (resolved_tag, pre_matched) = match tag {
            TagSelector::Tag(t) => (t, None),
            TagSelector::Any => {
                // Match one replica's copy with ANY_TAG to fix the tag,
                // then collect the rest with the resolved tag. Normally the
                // first replica resolves; if it fail-stopped without a
                // buffered copy, fail over to the next live sender replica.
                let mut resolved = None;
                for (k, phys) in senders.iter().enumerate() {
                    match self.base.recv_ns(RankSelector::Rank(*phys), TagSelector::Any, ns) {
                        Ok((bytes, status)) => {
                            resolved = Some((status.tag, Some((k, bytes))));
                            break;
                        }
                        Err(MpiError::DeadPeer { .. }) => continue,
                        Err(e) => return Err(e),
                    }
                }
                match resolved {
                    Some(r) => r,
                    None => {
                        self.base.abort_job();
                        return Err(MpiError::SphereDead {
                            virtual_rank: src_v,
                            at: self.base.now(),
                        });
                    }
                }
            }
        };
        let payload = self.gather_copies_and_vote(src_v, resolved_tag, ns, pre_matched)?;
        let status = Status {
            source: src_v,
            tag: resolved_tag,
            len: payload.len(),
            completed_at: self.base.now(),
        };
        Ok((payload, status))
    }
}

impl Communicator for ReplicaComm<'_> {
    fn rank(&self) -> Rank {
        self.my_virtual
    }

    fn size(&self) -> usize {
        self.vmap.n_virtual()
    }

    fn now(&self) -> f64 {
        self.base.now()
    }

    fn compute(&self, seconds: f64) -> Result<()> {
        self.base.compute(seconds)
    }

    fn send_ns(&self, dest: Rank, tag: Tag, data: Bytes, ns: Namespace) -> Result<()> {
        let receivers = self.check_virtual(dest)?;
        self.count(StatsSnapshot::record_virtual_send);
        let r_send = self.vmap.replica_count(self.my_virtual);
        // In Msg-PlusHash mode a sphere of several senders pairs each
        // receiver replica with one full-copy sender; the others send it
        // the hash.
        let hash = (self.mode == VotingMode::MsgPlusHash && r_send > 1)
            .then(|| datatype::encode(&[hash_payload(&data)]));
        // Live degradation: copies destined to a fail-stopped replica are
        // skipped (the runtime reports them as DeadPeer). The corruption
        // injector is still consulted for skipped copies so its counter
        // stream — and therefore the payloads delivered to survivors —
        // stays identical to the failure-free run. Only when *no* replica
        // of the destination sphere accepted a copy is the failure
        // unmaskable and escalated to a job abort.
        let mut delivered = 0usize;
        for (i, phys) in receivers.iter().enumerate() {
            let (copy, is_hash) = match &hash {
                Some(h) if !Self::pairs_full(self.my_replica, i, r_send) => (h.clone(), true),
                _ => (self.maybe_corrupt(data.clone()), false),
            };
            let len = copy.len();
            match self.base.send_ns(*phys, tag, copy, ns) {
                Ok(()) => {
                    self.count(|s| s.record_physical_send(len, is_hash));
                    delivered += 1;
                }
                Err(MpiError::DeadPeer { .. }) => self.count(StatsSnapshot::record_dead_peer_send),
                Err(e) => return Err(e),
            }
        }
        if delivered == 0 {
            self.base.abort_job();
            return Err(MpiError::SphereDead { virtual_rank: dest, at: self.base.now() });
        }
        Ok(())
    }

    fn recv_ns(
        &self,
        src: RankSelector,
        tag: TagSelector,
        ns: Namespace,
    ) -> Result<(Bytes, Status)> {
        match src {
            RankSelector::Rank(v) => self.recv_specific(v, tag, ns),
            RankSelector::Any => self.recv_wildcard(tag, ns),
        }
    }

    fn iprobe(&self, src: RankSelector, tag: TagSelector) -> Result<Option<Status>> {
        // Probe the primary replica of the (virtual) source, failing over
        // to the next replica when the probed one is dead with nothing
        // buffered. Note that, as in RedMPI, probe results are advisory:
        // replicas may observe different instantaneous states, so
        // applications must not let control flow diverge on iprobe
        // outcomes.
        match src {
            RankSelector::Rank(v) => {
                for phys in self.check_virtual(v)? {
                    if let Some(s) = self.base.iprobe(RankSelector::Rank(*phys), tag)? {
                        return Ok(Some(self.virtualize(s)));
                    }
                    if !self.base.peer_dead_by_now(*phys) {
                        // Live replica with nothing buffered: the message
                        // has not arrived yet.
                        return Ok(None);
                    }
                    // Dead with nothing buffered: this replica will never
                    // deliver — consult the next one.
                }
                Ok(None)
            }
            RankSelector::Any => {
                Ok(self.base.iprobe(RankSelector::Any, tag)?.map(|s| self.virtualize(s)))
            }
        }
    }

    fn probe_any(&self, specs: &[(RankSelector, TagSelector)]) -> Result<(usize, Status)> {
        // Each specific virtual source is probed through one replica at a
        // time, starting with its primary; `physical` is the set as the
        // base sees it and doubles as the per-spec replica cursor.
        let mut physical = Vec::with_capacity(specs.len());
        for &(src, tag) in specs {
            let src = match src {
                RankSelector::Rank(v) => RankSelector::Rank(self.check_virtual(v)?[0]),
                RankSelector::Any => RankSelector::Any,
            };
            physical.push((src, tag));
        }
        // Blocking probe with replica failover, mirroring
        // `gather_copies_and_vote`'s degradation: a replica that is dead
        // with nothing buffered hands over to the next one of its sphere.
        loop {
            match self.base.probe_any(&physical) {
                Ok((i, s)) => return Ok((i, self.virtualize(s))),
                Err(MpiError::DeadPeer { peer, .. }) => {
                    let (v, k) = self.vmap.owner_of(peer);
                    let Some(&next) = self.vmap.replicas_of(v).get(k + 1) else {
                        self.base.abort_job();
                        return Err(MpiError::SphereDead { virtual_rank: v, at: self.base.now() });
                    };
                    for (src, _) in &mut physical {
                        if *src == RankSelector::Rank(peer) {
                            *src = RankSelector::Rank(next);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn test(&self, req: Request) -> Result<TestOutcome> {
        // The one override of a provided method in the tree. Wildcard
        // receives must run the envelope-forwarding protocol on every
        // replica in lock-step; testing them non-blockingly could diverge
        // across replicas, so they are conservatively reported pending.
        // For a specific source the primary copy's arrival is the
        // completion signal; the sibling copies are (at most) a short
        // blocking receive away.
        match req {
            Request::Send => Ok(TestOutcome::Completed(None)),
            Request::Recv { src: RankSelector::Rank(v), tag }
                if self.iprobe(RankSelector::Rank(v), tag)?.is_some() =>
            {
                Ok(TestOutcome::Completed(Some(self.recv_specific(v, tag, Namespace::User)?)))
            }
            pending => Ok(TestOutcome::Pending(pending)),
        }
    }

    fn next_collective_seq(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        s
    }

    fn obs(&self) -> &redcr_mpi::Obs {
        self.base.obs()
    }
}
