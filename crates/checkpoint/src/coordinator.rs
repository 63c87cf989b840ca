//! The checkpoint coordinator: quiesce → capture → store → commit, with the
//! storage cost charged to virtual time (that charge *is* the paper's
//! checkpoint cost `c`).

use std::sync::Arc;

use redcr_mpi::Communicator;

use crate::bookmark;
use crate::codec::{Decode, Encode};
use crate::counting::CountingComm;
use crate::snapshot::{ChannelMessage, ProcessImage};
use crate::storage::{SnapshotKey, StableStorage, StorageCostModel};
use crate::Result;

/// Receipt describing one completed coordinated checkpoint (per rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointReceipt {
    /// The stored image size in bytes.
    pub stored_bytes: usize,
    /// Virtual-time cost charged for the write, seconds.
    pub cost_seconds: f64,
    /// Number of in-flight messages captured as channel state.
    pub channel_messages: usize,
}

/// State recovered from a checkpoint at restart.
#[derive(Debug, Clone)]
pub struct Restored<T> {
    /// The application state.
    pub state: T,
    /// In-flight messages owed to this rank at the cut; feed them to
    /// [`CountingComm::with_restored_channel`].
    pub channel: Vec<ChannelMessage>,
    /// Virtual time at which the cut was taken, seconds.
    pub cut_time: f64,
    /// Virtual-time cost charged for the read, seconds.
    pub cost_seconds: f64,
}

/// Coordinates checkpoints of a whole communicator onto stable storage.
#[derive(Debug, Clone)]
pub struct CheckpointCoordinator {
    storage: Arc<dyn StableStorage>,
    cost: StorageCostModel,
}

impl CheckpointCoordinator {
    /// A coordinator writing to `storage` with zero storage cost.
    pub fn new(storage: Arc<dyn StableStorage>) -> Self {
        CheckpointCoordinator { storage, cost: StorageCostModel::zero() }
    }

    /// Sets the storage cost model.
    pub fn cost_model(mut self, cost: StorageCostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The storage backend.
    pub fn storage(&self) -> &Arc<dyn StableStorage> {
        &self.storage
    }

    /// Takes coordinated checkpoint number `seq`, stamping the image with
    /// this rank's own clock on entry. Ranks whose clocks differ — replicas
    /// of one sphere, which store under one key — must agree on the cut
    /// first and call [`checkpoint_at`](Self::checkpoint_at) with it.
    ///
    /// # Errors
    ///
    /// As [`checkpoint_at`](Self::checkpoint_at).
    pub fn checkpoint<C, S>(
        &self,
        comm: &CountingComm<'_, C>,
        seq: u64,
        state: &S,
    ) -> Result<CheckpointReceipt>
    where
        C: Communicator,
        S: Encode,
    {
        self.checkpoint_at(comm, seq, comm.now(), state)
    }

    /// Takes coordinated checkpoint number `seq` at the virtual time `cut`.
    /// Collective: every rank of `comm` must call with the same `seq` at
    /// the same logical point. `cut` is stored in the image and comes back
    /// as [`Restored::cut_time`]; every caller that stores under one key
    /// must pass the same value, or which image survives is a race.
    ///
    /// One fixed sequence, as in the paper's Open MPI service: the bookmark
    /// quiesce, the image write, the write cost charged to the rank's
    /// virtual clock, the store, and a barrier that commits the checkpoint
    /// (BLCR's synchronous write).
    ///
    /// # Errors
    ///
    /// Returns a protocol error if the run aborts mid-checkpoint, or a
    /// storage error.
    pub fn checkpoint_at<C, S>(
        &self,
        comm: &CountingComm<'_, C>,
        seq: u64,
        cut: f64,
        state: &S,
    ) -> Result<CheckpointReceipt>
    where
        C: Communicator,
        S: Encode,
    {
        let obs = comm.obs();
        obs.event(comm.now(), redcr_mpi::trace::EventKind::CheckpointBegin { seq });
        let channel = bookmark::quiesce(comm)?;
        let channel_messages = channel.len();
        // Wall-clock span over the real serialization work (encoding and
        // framing) — the part of a checkpoint the simulator actually pays
        // for on the host, as opposed to the modeled virtual write cost
        // charged below.
        let encode_span = obs.span(redcr_mpi::prof::SpanKey::CheckpointEncode);
        let rank = comm.rank().as_u32();
        let bytes = ProcessImage::write(rank, cut, state, &channel);
        drop(encode_span);
        let stored_bytes = bytes.len();
        let cost = self.cost.write_seconds;
        let commit_span = obs.span(redcr_mpi::prof::SpanKey::CheckpointCommit);
        comm.compute(cost)?;
        self.storage.store(SnapshotKey::new(seq, rank), &bytes)?;
        // Storage has its own copy: this one need not wait out the barrier.
        drop(bytes);
        comm.barrier()?;
        drop(commit_span);
        // Recorded only after the commit barrier: a rank that dies
        // mid-checkpoint never emits a commit event. The metrics fold times
        // the commit from this rank's begin above.
        obs.event(
            comm.now(),
            redcr_mpi::trace::EventKind::CheckpointCommit { seq, bytes: stored_bytes as u64, cost },
        );
        Ok(CheckpointReceipt { stored_bytes, cost_seconds: cost, channel_messages })
    }

    /// Loads this rank's image from checkpoint `seq`, charging the read
    /// cost to virtual time.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::NotFound`](crate::CkptError::NotFound) if the
    /// image is missing, or codec/storage errors.
    pub fn restore<C, T>(&self, comm: &C, seq: u64) -> Result<Restored<T>>
    where
        C: Communicator,
        T: Decode,
    {
        let bytes = self.storage.load(SnapshotKey::new(seq, comm.rank().as_u32()))?;
        let cost = self.cost.read_seconds;
        comm.compute(cost)?;
        let image = ProcessImage::from_stored_bytes(&bytes)?;
        let state = image.restore()?;
        comm.obs().event(
            comm.now(),
            redcr_mpi::trace::EventKind::Restore { seq, cut: image.virtual_time },
        );
        Ok(Restored {
            state,
            channel: image.channel_state,
            cut_time: image.virtual_time,
            cost_seconds: cost,
        })
    }

    /// Deletes checkpoints older than `keep_from_seq` (call from one rank,
    /// or idempotently from all).
    ///
    /// # Errors
    ///
    /// Returns storage errors.
    pub fn prune_before(&self, keep_from_seq: u64) -> Result<()> {
        self.storage.prune_before(keep_from_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemoryStorage;
    use redcr_mpi::{CostModel, Rank, Tag, World};

    #[derive(Debug, PartialEq, Clone)]
    struct State {
        iter: u64,
        data: Vec<f64>,
    }
    crate::codec_struct!(State { iter, data });

    #[test]
    fn checkpoint_then_restore_round_trip() {
        let storage: Arc<dyn StableStorage> = Arc::new(MemoryStorage::new());
        let coord = CheckpointCoordinator::new(Arc::clone(&storage));
        let coord2 = coord.clone();
        World::builder(3)
            .cost_model(CostModel::zero())
            .run(move |base| {
                let comm = CountingComm::new(base);
                let state = State { iter: 5, data: vec![comm.rank().index() as f64; 8] };
                coord2.checkpoint(&comm, 1, &state).unwrap();
                let restored: Restored<State> = coord2.restore(comm.inner(), 1).unwrap();
                assert_eq!(restored.state, state);
                assert!(restored.channel.is_empty());
                Ok(())
            })
            .unwrap()
            .into_results()
            .unwrap();
        assert_eq!(storage.list().unwrap().len(), 3);
    }

    #[test]
    fn checkpoint_cost_charged_to_virtual_time() {
        let storage: Arc<dyn StableStorage> = Arc::new(MemoryStorage::new());
        let coord =
            CheckpointCoordinator::new(storage).cost_model(StorageCostModel::fixed(120.0, 500.0));
        let report = World::builder(2)
            .cost_model(CostModel::zero())
            .run(move |base| {
                let comm = CountingComm::new(base);
                let receipt = coord.checkpoint(&comm, 0, &vec![1u64, 2, 3]).unwrap();
                assert_eq!(receipt.cost_seconds, 120.0);
                Ok(comm.now())
            })
            .unwrap();
        for t in report.into_results().unwrap() {
            assert!(t >= 120.0, "virtual time {t} must include checkpoint cost");
        }
    }

    #[test]
    fn in_flight_messages_survive_checkpoint_restore() {
        let storage: Arc<dyn StableStorage> = Arc::new(MemoryStorage::new());
        let coord = CheckpointCoordinator::new(storage);
        World::builder(2)
            .cost_model(CostModel::zero())
            .run(move |base| {
                let comm = CountingComm::new(base);
                if comm.rank().index() == 0 {
                    comm.send(Rank::new(1), Tag::new(4), b"in-flight")?;
                }
                let receipt = coord.checkpoint(&comm, 9, &0u64).unwrap();
                if comm.rank().index() == 1 {
                    assert_eq!(receipt.channel_messages, 1);
                    // Simulate restart: a fresh CountingComm primed with the
                    // restored channel state.
                    let restored: Restored<u64> = coord.restore(comm.inner(), 9).unwrap();
                    let comm2 = CountingComm::with_restored_channel(comm.inner(), restored.channel);
                    let (b, _) = comm2.recv(Rank::new(0).into(), Tag::new(4).into())?;
                    assert_eq!(&b[..], b"in-flight");
                }
                Ok(())
            })
            .unwrap()
            .into_results()
            .unwrap();
    }

    #[test]
    fn missing_checkpoint_is_not_found() {
        let storage: Arc<dyn StableStorage> = Arc::new(MemoryStorage::new());
        let coord = CheckpointCoordinator::new(storage);
        World::builder(1)
            .cost_model(CostModel::zero())
            .run(move |base| {
                let r: Result<Restored<u64>> = coord.restore(base, 99);
                assert!(matches!(r, Err(crate::CkptError::NotFound { .. })));
                Ok(())
            })
            .unwrap()
            .into_results()
            .unwrap();
    }
}
