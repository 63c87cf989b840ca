//! The [`Communicator`] trait: the MPI-like call surface shared by the base
//! runtime ([`Comm`](crate::Comm)) and the layers that
//! interpose on it (`redcr_red::ReplicaComm`, `redcr_ckpt::CountingComm`).
//!
//! Applications written against this trait run unchanged with or without
//! redundancy — the transparency property of the paper's RedMPI design.
//! The trait is deliberately narrow where it is *required*: a layer
//! implements ten methods and no type, and inherits the non-blocking
//! operations and every collective.

use bytes::Bytes;

use crate::collectives::{frame_parts, Gathered, ReduceOp};
use crate::datatype::{self, Word};
use crate::error::Result;
use crate::message::Status;
use crate::rank::{Rank, RankSelector};
use crate::request::{Request, TestOutcome};
use crate::tag::{Namespace, Tag, TagSelector};

/// An MPI-like communicator.
///
/// # Required methods
///
/// Ten: [`rank`](Self::rank), [`size`](Self::size), [`now`](Self::now),
/// [`compute`](Self::compute), [`send_ns`](Self::send_ns),
/// [`recv_ns`](Self::recv_ns), [`iprobe`](Self::iprobe),
/// [`probe_any`](Self::probe_any),
/// [`next_collective_seq`](Self::next_collective_seq) and
/// [`obs`](Self::obs) — identity, the clock, the two point-to-point choke
/// points, the two ways to look without taking, a deterministic collective
/// sequence counter and the telemetry handle. Everything else — the
/// non-blocking operations over [`Request`], typed sends,
/// send-receive and all collectives — is provided on top, so an
/// implementation that interposes on the required ten (like the
/// replication layer) covers the rest as well.
pub trait Communicator {
    /// This process's rank within the communicator.
    fn rank(&self) -> Rank;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Current virtual time of this rank, seconds.
    fn now(&self) -> f64;

    /// Advances this rank's virtual clock by `seconds` of computation.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::Dead`](crate::MpiError::Dead) if the clock
    /// reaches this rank's death time.
    fn compute(&self, seconds: f64) -> Result<()>;

    /// Sends `data` to `dest` with `tag` in namespace `ns`.
    ///
    /// Sends are eager and never block. This is the single choke point all
    /// outgoing traffic (including collectives) flows through.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid destination or if the run aborted.
    fn send_ns(&self, dest: Rank, tag: Tag, data: Bytes, ns: Namespace) -> Result<()>;

    /// Receives the next message matching `src`/`tag` in namespace `ns`,
    /// blocking until one arrives. This is the single choke point all
    /// incoming traffic flows through.
    ///
    /// # Errors
    ///
    /// Returns an error if the run aborted while waiting.
    fn recv_ns(
        &self,
        src: RankSelector,
        tag: TagSelector,
        ns: Namespace,
    ) -> Result<(Bytes, Status)>;

    /// Non-blocking probe for a matching user-namespace message.
    ///
    /// # Errors
    ///
    /// Returns an error if the run aborted.
    fn iprobe(&self, src: RankSelector, tag: TagSelector) -> Result<Option<Status>>;

    /// Blocking probe over a set: waits until a user-namespace message
    /// matching one of `specs` is available and returns that pair's index
    /// and the message's status, without consuming it. When several pairs
    /// already have a message buffered, the lowest index wins. This is the
    /// one blocking wait [`waitany`](Self::waitany) is built on.
    ///
    /// As with [`iprobe`](Self::iprobe), under replication the index is
    /// advisory: replicas may see different arrival orders, so applications
    /// must not let control flow diverge on it.
    ///
    /// # Errors
    ///
    /// Returns an error if the run aborted while waiting, or if a specific
    /// source in `specs` is dead with nothing matching buffered.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    fn probe_any(&self, specs: &[(RankSelector, TagSelector)]) -> Result<(usize, Status)>;

    /// Returns the next collective sequence number. Every rank calls
    /// collectives in the same order, so the sequence is identical across
    /// ranks and yields collision-free collective tags.
    fn next_collective_seq(&self) -> u64;

    /// This rank's telemetry handle (see [`Obs`](crate::Obs)).
    /// Interposition layers report their own events, counters and spans
    /// (votes, failovers, checkpoint commits) through it; a wrapper
    /// forwards its base communicator's handle.
    fn obs(&self) -> &crate::Obs;

    // ------------------------------------------------------------------
    // Provided point-to-point conveniences
    // ------------------------------------------------------------------

    /// Blocking user-namespace send (copies `data`).
    ///
    /// # Errors
    ///
    /// See [`send_ns`](Self::send_ns).
    fn send(&self, dest: Rank, tag: Tag, data: &[u8]) -> Result<()> {
        self.send_ns(dest, tag, Bytes::copy_from_slice(data), Namespace::User)
    }

    /// Blocking user-namespace send of an owned buffer (no copy).
    ///
    /// # Errors
    ///
    /// See [`send_ns`](Self::send_ns).
    fn send_bytes(&self, dest: Rank, tag: Tag, data: Bytes) -> Result<()> {
        self.send_ns(dest, tag, data, Namespace::User)
    }

    /// Blocking user-namespace receive.
    ///
    /// # Errors
    ///
    /// See [`recv_ns`](Self::recv_ns).
    fn recv(&self, src: RankSelector, tag: TagSelector) -> Result<(Bytes, Status)> {
        self.recv_ns(src, tag, Namespace::User)
    }

    // ------------------------------------------------------------------
    // Provided non-blocking operations
    // ------------------------------------------------------------------

    /// Starts a non-blocking send of user-namespace data. Sends are eager,
    /// so the message is in flight when this returns.
    ///
    /// # Errors
    ///
    /// Same as [`send_ns`](Self::send_ns).
    fn isend(&self, dest: Rank, tag: Tag, data: Bytes) -> Result<Request> {
        self.send_ns(dest, tag, data, Namespace::User)?;
        Ok(Request::Send)
    }

    /// Posts a non-blocking user-namespace receive. Posting only records
    /// the selectors: it moves no clock and checks nothing, so an invalid
    /// source or an aborted run surfaces when the request is completed.
    ///
    /// # Errors
    ///
    /// None today; the `Result` keeps the call shaped like `MPI_Irecv`.
    fn irecv(&self, src: RankSelector, tag: TagSelector) -> Result<Request> {
        Ok(Request::Recv { src, tag })
    }

    /// Completes a non-blocking operation. Send requests yield `None`;
    /// receive requests yield the payload and status.
    ///
    /// # Errors
    ///
    /// Returns an error if the run aborted while waiting.
    fn wait(&self, req: Request) -> Result<Option<(Bytes, Status)>> {
        match req {
            Request::Send => Ok(None),
            Request::Recv { src, tag } => self.recv(src, tag).map(Some),
        }
    }

    /// Non-blocking completion test, mirroring `MPI_Test`: a receive whose
    /// message [`iprobe`](Self::iprobe) reports is completed with
    /// [`recv`](Self::recv), a send is complete, and anything else is
    /// handed back. Implementations may conservatively report
    /// [`TestOutcome::Pending`] for operations they cannot test cheaply
    /// (wildcard receives under replication).
    ///
    /// # Errors
    ///
    /// Returns an error if the run aborted.
    fn test(&self, req: Request) -> Result<TestOutcome> {
        match req {
            Request::Send => Ok(TestOutcome::Completed(None)),
            Request::Recv { src, tag } if self.iprobe(src, tag)?.is_some() => {
                Ok(TestOutcome::Completed(Some(self.recv(src, tag)?)))
            }
            pending => Ok(TestOutcome::Pending(pending)),
        }
    }

    /// Waits for *one* of the requests to complete, mirroring
    /// `MPI_Waitany`: the first send if there is one (sends are eager),
    /// otherwise whichever receive [`probe_any`](Self::probe_any) finds a
    /// message for — the caller parks on the whole set, it never polls.
    /// Returns the completed request's index (within the input order), its
    /// result, and the still-pending requests (in their original relative
    /// order). Under replication the index is advisory, as for
    /// [`probe_any`](Self::probe_any).
    ///
    /// # Errors
    ///
    /// Returns the first error encountered.
    ///
    /// # Panics
    ///
    /// Panics if `reqs` is empty.
    #[allow(clippy::type_complexity)] // (index, recv payload, remaining) mirrors MPI_Waitany
    fn waitany(
        &self,
        mut reqs: Vec<Request>,
    ) -> Result<(usize, Option<(Bytes, Status)>, Vec<Request>)> {
        assert!(!reqs.is_empty(), "waitany needs at least one request");
        let i = match reqs.iter().position(Request::is_send) {
            Some(first_send) => first_send,
            None => {
                let recvs = reqs.iter().filter_map(|req| match *req {
                    Request::Recv { src, tag } => Some((src, tag)),
                    Request::Send => None,
                });
                self.probe_any(&recvs.collect::<Vec<_>>())?.0
            }
        };
        let out = self.wait(reqs.remove(i))?;
        Ok((i, out, reqs))
    }

    /// Waits for every request, returning results in request order.
    ///
    /// # Errors
    ///
    /// Returns the first error; remaining requests are abandoned.
    fn waitall(
        &self,
        reqs: impl IntoIterator<Item = Request>,
    ) -> Result<Vec<Option<(Bytes, Status)>>>
    where
        Self: Sized,
    {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    // ------------------------------------------------------------------
    // Provided typed conveniences
    // ------------------------------------------------------------------

    /// Sends a slice of `f64` values.
    ///
    /// # Errors
    ///
    /// See [`send_ns`](Self::send_ns).
    fn send_f64s(&self, dest: Rank, tag: Tag, values: &[f64]) -> Result<()> {
        self.send_bytes(dest, tag, datatype::encode(values))
    }

    /// Receives a slice of `f64` values.
    ///
    /// # Errors
    ///
    /// Decoding fails if the payload length is not a multiple of 8.
    fn recv_f64s(&self, src: RankSelector, tag: TagSelector) -> Result<(Vec<f64>, Status)> {
        let (bytes, status) = self.recv(src, tag)?;
        Ok((datatype::decode(&bytes)?, status))
    }

    // ------------------------------------------------------------------
    // Provided collectives (deterministic trees over point-to-point)
    // ------------------------------------------------------------------

    /// Synchronizes all ranks (dissemination barrier, ⌈log₂ n⌉ rounds).
    ///
    /// # Errors
    ///
    /// Returns an error if the run aborted.
    fn barrier(&self) -> Result<()>
    where
        Self: Sized,
    {
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        let seq = self.next_collective_seq();
        let me = self.rank();
        let mut round = 0u64;
        let mut dist = 1usize;
        while dist < n {
            let tag = coll_tag(seq, round);
            let to = me.offset(dist as i64, n);
            let from = me.offset(-(dist as i64), n);
            self.send_ns(to, tag, Bytes::new(), Namespace::Collective)?;
            self.recv_ns(RankSelector::Rank(from), TagSelector::Tag(tag), Namespace::Collective)?;
            dist <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Broadcasts `data` from `root` (binomial tree). Every rank returns the
    /// broadcast payload; non-roots pass `Bytes::new()` (ignored).
    ///
    /// # Errors
    ///
    /// Returns an error if the run aborted.
    fn bcast(&self, root: Rank, data: Bytes) -> Result<Bytes>
    where
        Self: Sized,
    {
        let n = self.size();
        let seq = self.next_collective_seq();
        let tag = coll_tag(seq, 0);
        if n == 1 {
            return Ok(data);
        }
        let me = self.rank().index();
        let relative = (me + n - root.index()) % n;
        let mut payload = data;

        // Receive phase: find the bit that identifies our parent.
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src = Rank::new(((relative - mask + root.index()) % n) as u32);
                let (bytes, _) = self.recv_ns(
                    RankSelector::Rank(src),
                    TagSelector::Tag(tag),
                    Namespace::Collective,
                )?;
                payload = bytes;
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children below our bit.
        mask >>= 1;
        // Bounded binomial-tree fanout: mask halves every iteration
        // (log2 n rounds) and sends are buffered mailbox pushes that never
        // wait.
        while mask > 0 {
            if relative + mask < n {
                let dst = Rank::new(((relative + mask + root.index()) % n) as u32);
                self.send_ns(dst, tag, payload.clone(), Namespace::Collective)?;
            }
            mask >>= 1;
        }
        Ok(payload)
    }

    /// Reduces element-wise to `root` (binomial tree, fixed combine order).
    /// Returns `Some(result)` on the root, `None` elsewhere.
    ///
    /// # Errors
    ///
    /// Returns an error on abort or operand length mismatch.
    fn reduce_f64(&self, root: Rank, values: &[f64], op: ReduceOp) -> Result<Option<Vec<f64>>>
    where
        Self: Sized,
    {
        reduce(self, root, values, op)
    }

    /// All-reduce: reduce to rank 0 then broadcast (every rank returns the
    /// reduced vector).
    ///
    /// # Errors
    ///
    /// Returns an error on abort or operand length mismatch.
    fn allreduce_f64(&self, values: &[f64], op: ReduceOp) -> Result<Vec<f64>>
    where
        Self: Sized,
    {
        allreduce(self, values, op)
    }

    /// [`allreduce_f64`](Self::allreduce_f64) for `u64` vectors (the
    /// checkpoint's bookmark exchange); sum and product saturate.
    ///
    /// # Errors
    ///
    /// Returns an error on abort or operand length mismatch.
    fn allreduce_u64(&self, values: &[u64], op: ReduceOp) -> Result<Vec<u64>>
    where
        Self: Sized,
    {
        allreduce(self, values, op)
    }

    /// Gathers every rank's `data` to `root` (linear). Returns
    /// `Some(parts_in_rank_order)` on the root, `None` elsewhere.
    ///
    /// # Errors
    ///
    /// Returns an error if the run aborted.
    fn gather(&self, root: Rank, data: Bytes) -> Result<Option<Vec<Bytes>>>
    where
        Self: Sized,
    {
        let n = self.size();
        let seq = self.next_collective_seq();
        let tag = coll_tag(seq, 0);
        if self.rank() == root {
            let mut parts = Vec::with_capacity(n);
            for i in 0..n {
                if i == root.index() {
                    parts.push(data.clone());
                } else {
                    let (bytes, _) = self.recv_ns(
                        RankSelector::Rank(Rank::new(i as u32)),
                        TagSelector::Tag(tag),
                        Namespace::Collective,
                    )?;
                    parts.push(bytes);
                }
            }
            Ok(Some(parts))
        } else {
            self.send_ns(root, tag, data, Namespace::Collective)?;
            Ok(None)
        }
    }

    /// All-gather: every rank returns all ranks' payloads in rank order
    /// (gather to 0 + broadcast of the framed parts). The parts are read in
    /// place from the one broadcast buffer: see [`Gathered`].
    ///
    /// # Errors
    ///
    /// Returns an error if the run aborted, or
    /// [`MpiError::DecodeError`](crate::MpiError::DecodeError) if the
    /// broadcast frame is malformed.
    fn allgather(&self, data: Bytes) -> Result<Gathered>
    where
        Self: Sized,
    {
        let root = Rank::new(0);
        let gathered = self.gather(root, data)?;
        let framed = match gathered {
            Some(parts) => frame_parts(&parts),
            None => Bytes::new(),
        };
        Gathered::unframe(self.bcast(root, framed)?)
    }

    /// Inclusive prefix reduction (linear chain): rank `i` returns
    /// `op(values₀, …, valuesᵢ)` element-wise.
    ///
    /// # Errors
    ///
    /// Returns an error on abort or operand length mismatch.
    fn scan_f64(&self, values: &[f64], op: ReduceOp) -> Result<Vec<f64>>
    where
        Self: Sized,
    {
        let n = self.size();
        let seq = self.next_collective_seq();
        let tag = coll_tag(seq, 0);
        let me = self.rank().index();
        let mut acc = values.to_vec();
        if me > 0 {
            let (bytes, _) = self.recv_ns(
                RankSelector::Rank(Rank::new((me - 1) as u32)),
                TagSelector::Tag(tag),
                Namespace::Collective,
            )?;
            // acc = op(prefix, mine) — fixed order for determinism.
            let mut prefix = datatype::decode(&bytes)?;
            op.fold(&mut prefix, &acc)?;
            acc = prefix;
        }
        if me + 1 < n {
            self.send_ns(
                Rank::new((me + 1) as u32),
                tag,
                datatype::encode(&acc),
                Namespace::Collective,
            )?;
        }
        Ok(acc)
    }
}

/// The one reduction tree: a binomial reduce to `root` in fixed combine
/// order, the rank `relative | mask` folded into `relative` at each round.
/// Returns `Some(result)` on the root, `None` elsewhere.
fn reduce<C: Communicator, T: Word>(
    comm: &C,
    root: Rank,
    values: &[T],
    op: ReduceOp,
) -> Result<Option<Vec<T>>> {
    let n = comm.size();
    let tag = coll_tag(comm.next_collective_seq(), 0);
    let relative = (comm.rank().index() + n - root.index()) % n;
    let rank_of = |rel: usize| Rank::new(((rel + root.index()) % n) as u32);
    let mut acc = values.to_vec();

    let mut mask = 1usize;
    while mask < n {
        if relative & mask == 0 {
            if relative | mask < n {
                let (bytes, _) = comm.recv_ns(
                    RankSelector::Rank(rank_of(relative | mask)),
                    TagSelector::Tag(tag),
                    Namespace::Collective,
                )?;
                op.fold_bytes(&mut acc, &bytes)?;
            }
        } else {
            let dst = rank_of(relative & !mask);
            comm.send_ns(dst, tag, datatype::encode(&acc), Namespace::Collective)?;
            return Ok(None);
        }
        mask <<= 1;
    }
    Ok(Some(acc))
}

/// [`reduce`] to rank 0, then a broadcast of the result.
fn allreduce<C: Communicator, T: Word>(comm: &C, values: &[T], op: ReduceOp) -> Result<Vec<T>> {
    let root = Rank::new(0);
    let payload = match reduce(comm, root, values, op)? {
        Some(v) => datatype::encode(&v),
        None => Bytes::new(),
    };
    datatype::decode(&comm.bcast(root, payload)?)
}

/// Builds the collective wire tag for sequence `seq`, round `round`.
pub(crate) fn coll_tag(seq: u64, round: u64) -> Tag {
    debug_assert!(round < 64);
    Tag::new(((seq << 6) | round) & crate::tag::MAX_USER_TAG)
}
