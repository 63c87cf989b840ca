//! A message-counting communicator wrapper — the PML-level bookkeeping that
//! coordinated checkpointing relies on.
//!
//! Open MPI's checkpoint service tracks "all messages moving in and out of
//! the point-to-point stack" (paper Section 2). [`CountingComm`] does the
//! same for our runtime: it counts user-namespace messages per peer, and
//! keeps a *stash* of messages that the bookmark quiesce drained from
//! the transport before they were matched by the application. Subsequent
//! application receives consume the stash first, so draining is invisible
//! to the application — and the stash is exactly the **channel state** a
//! checkpoint must save.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use bytes::Bytes;

use redcr_mpi::tag::Namespace;
use redcr_mpi::{Communicator, Rank, RankSelector, Result, Status, Tag, TagSelector};

use crate::snapshot::ChannelMessage;

/// Wraps any [`Communicator`], counting user traffic and buffering drained
/// messages.
#[derive(Debug)]
pub struct CountingComm<'a, C> {
    inner: &'a C,
    sent_to: RefCell<Vec<u64>>,
    recvd_from: RefCell<Vec<u64>>,
    stash: RefCell<VecDeque<ChannelMessage>>,
    drains: Cell<u64>,
}

impl<'a, C: Communicator> CountingComm<'a, C> {
    /// Wraps `inner` with fresh counters and an empty stash.
    pub fn new(inner: &'a C) -> Self {
        let n = inner.size();
        CountingComm {
            inner,
            sent_to: RefCell::new(vec![0; n]),
            recvd_from: RefCell::new(vec![0; n]),
            stash: RefCell::new(VecDeque::new()),
            drains: Cell::new(0),
        }
    }

    /// Wraps `inner` and pre-loads the stash with channel state restored
    /// from a checkpoint: the application will receive these messages as if
    /// they were still in flight.
    pub fn with_restored_channel(inner: &'a C, messages: Vec<ChannelMessage>) -> Self {
        let c = Self::new(inner);
        *c.stash.borrow_mut() = messages.into();
        c
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        self.inner
    }

    /// Per-peer count of user messages sent by this rank.
    pub fn sent_counts(&self) -> Vec<u64> {
        self.sent_to.borrow().clone()
    }

    /// Per-peer count of user messages consumed from the transport.
    pub fn received_counts(&self) -> Vec<u64> {
        self.recvd_from.borrow().clone()
    }

    /// Number of protocol drains performed (diagnostics).
    pub fn drain_count(&self) -> u64 {
        self.drains.get()
    }

    /// A copy of the currently stashed (drained but unconsumed) messages —
    /// the channel state to include in a checkpoint.
    pub fn channel_state(&self) -> Vec<ChannelMessage> {
        self.stash.borrow().iter().cloned().collect()
    }

    /// Receives one user message directly from the transport (bypassing the
    /// stash) and appends it to the stash. Used by the bookmark quiesce to
    /// drain in-flight traffic.
    ///
    /// # Errors
    ///
    /// Propagates transport errors (e.g. abort).
    pub fn drain_one(&self) -> Result<()> {
        let (bytes, status) =
            self.inner.recv_ns(RankSelector::Any, TagSelector::Any, Namespace::User)?;
        self.drains.set(self.drains.get() + 1);
        self.recvd_from.borrow_mut()[status.source.index()] += 1;
        self.stash.borrow_mut().push_back(ChannelMessage {
            src: status.source.as_u32(),
            tag: status.tag.value(),
            payload: bytes.to_vec(),
        });
        Ok(())
    }

    /// Position of the oldest stashed message matching `src`/`tag`.
    fn stash_position(&self, src: RankSelector, tag: TagSelector) -> Option<usize> {
        self.stash.borrow().iter().position(|m| src.matches(Rank::new(m.src)) && tag.matches(m.tag))
    }

    /// The status a stashed message is received or probed with.
    fn stash_status(&self, m: &ChannelMessage) -> Status {
        Status {
            source: Rank::new(m.src),
            tag: Tag::new(m.tag),
            len: m.payload.len(),
            completed_at: self.inner.now(),
        }
    }

    /// Stash entries are logically "arrived": probes report them first.
    fn peek_stash(&self, src: RankSelector, tag: TagSelector) -> Option<Status> {
        let pos = self.stash_position(src, tag)?;
        Some(self.stash_status(&self.stash.borrow()[pos]))
    }
}

impl<C: Communicator> Communicator for CountingComm<'_, C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn compute(&self, seconds: f64) -> Result<()> {
        self.inner.compute(seconds)
    }

    fn send_ns(&self, dest: Rank, tag: Tag, data: Bytes, ns: Namespace) -> Result<()> {
        if ns == Namespace::User && dest.index() < self.sent_to.borrow().len() {
            self.sent_to.borrow_mut()[dest.index()] += 1;
        }
        self.inner.send_ns(dest, tag, data, ns)
    }

    fn recv_ns(
        &self,
        src: RankSelector,
        tag: TagSelector,
        ns: Namespace,
    ) -> Result<(Bytes, Status)> {
        if ns != Namespace::User {
            return self.inner.recv_ns(src, tag, ns);
        }
        if let Some(pos) = self.stash_position(src, tag) {
            let m = self.stash.borrow_mut().remove(pos).expect("position just found");
            let status = self.stash_status(&m);
            return Ok((Bytes::from(m.payload), status));
        }
        let (bytes, status) = self.inner.recv_ns(src, tag, ns)?;
        self.recvd_from.borrow_mut()[status.source.index()] += 1;
        Ok((bytes, status))
    }

    fn iprobe(&self, src: RankSelector, tag: TagSelector) -> Result<Option<Status>> {
        match self.peek_stash(src, tag) {
            Some(status) => Ok(Some(status)),
            None => self.inner.iprobe(src, tag),
        }
    }

    fn probe_any(&self, specs: &[(RankSelector, TagSelector)]) -> Result<(usize, Status)> {
        let stashed =
            specs.iter().enumerate().find_map(|(i, &(s, t))| Some((i, self.peek_stash(s, t)?)));
        match stashed {
            Some(hit) => Ok(hit),
            None => self.inner.probe_any(specs),
        }
    }

    fn next_collective_seq(&self) -> u64 {
        self.inner.next_collective_seq()
    }

    fn obs(&self) -> &redcr_mpi::Obs {
        self.inner.obs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcr_mpi::{CostModel, World};

    #[test]
    fn counts_user_traffic_per_peer() {
        let report = World::builder(3)
            .cost_model(CostModel::zero())
            .run(|base| {
                let comm = CountingComm::new(base);
                let me = comm.rank().index();
                if me == 0 {
                    comm.send(Rank::new(1), Tag::new(1), b"a")?;
                    comm.send(Rank::new(1), Tag::new(1), b"b")?;
                    comm.send(Rank::new(2), Tag::new(1), b"c")?;
                    Ok((comm.sent_counts(), comm.received_counts()))
                } else {
                    let expect = if me == 1 { 2 } else { 1 };
                    for _ in 0..expect {
                        comm.recv(Rank::new(0).into(), Tag::new(1).into())?;
                    }
                    Ok((comm.sent_counts(), comm.received_counts()))
                }
            })
            .unwrap();
        let results = report.into_results().unwrap();
        assert_eq!(results[0].0, vec![0, 2, 1]);
        assert_eq!(results[1].1, vec![2, 0, 0]);
        assert_eq!(results[2].1, vec![1, 0, 0]);
    }

    #[test]
    fn collective_traffic_not_counted() {
        let report = World::builder(2)
            .cost_model(CostModel::zero())
            .run(|base| {
                let comm = CountingComm::new(base);
                comm.barrier()?;
                comm.allreduce_f64(&[1.0], redcr_mpi::collectives::ReduceOp::Sum)?;
                Ok((comm.sent_counts(), comm.received_counts()))
            })
            .unwrap();
        for (sent, recvd) in report.into_results().unwrap() {
            assert!(sent.iter().all(|c| *c == 0));
            assert!(recvd.iter().all(|c| *c == 0));
        }
    }

    #[test]
    fn drained_messages_consumed_transparently() {
        let report = World::builder(2)
            .cost_model(CostModel::zero())
            .run(|base| {
                let comm = CountingComm::new(base);
                if comm.rank().index() == 0 {
                    comm.send(Rank::new(1), Tag::new(5), b"early")?;
                    Ok(Vec::new())
                } else {
                    // Protocol drains the message before the app asks.
                    comm.drain_one()?;
                    assert_eq!(comm.channel_state().len(), 1);
                    // The app's receive is then served from the stash.
                    let (bytes, status) = comm.recv(Rank::new(0).into(), Tag::new(5).into())?;
                    assert_eq!(status.source.index(), 0);
                    assert!(comm.channel_state().is_empty());
                    Ok(bytes.to_vec())
                }
            })
            .unwrap();
        assert_eq!(report.into_results().unwrap()[1], b"early".to_vec());
    }

    #[test]
    fn restored_channel_state_served_first() {
        let report = World::builder(1)
            .cost_model(CostModel::zero())
            .run(|base| {
                let restored = vec![ChannelMessage { src: 0, tag: 3, payload: vec![9, 9] }];
                let comm = CountingComm::with_restored_channel(base, restored);
                // Probe sees the stash entry.
                let s = comm.iprobe(RankSelector::Any, TagSelector::Any)?.expect("stash");
                assert_eq!(s.len, 2);
                let (bytes, status) = comm.recv(Rank::new(0).into(), Tag::new(3).into())?;
                assert_eq!(status.tag.value(), 3);
                Ok(bytes.to_vec())
            })
            .unwrap();
        assert_eq!(report.into_results().unwrap()[0], vec![9, 9]);
    }

    #[test]
    fn stash_matching_respects_selectors() {
        World::builder(1)
            .cost_model(CostModel::zero())
            .run(|base| {
                let restored = vec![
                    ChannelMessage { src: 0, tag: 1, payload: vec![1] },
                    ChannelMessage { src: 0, tag: 2, payload: vec![2] },
                ];
                let comm = CountingComm::with_restored_channel(base, restored);
                // Ask for tag 2 first: must skip the tag-1 entry.
                let (b2, _) = comm.recv(Rank::new(0).into(), Tag::new(2).into())?;
                assert_eq!(&b2[..], &[2]);
                let (b1, _) = comm.recv(Rank::new(0).into(), Tag::new(1).into())?;
                assert_eq!(&b1[..], &[1]);
                Ok(())
            })
            .unwrap()
            .into_results()
            .unwrap();
    }
}
