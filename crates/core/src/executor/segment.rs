//! The rank side of the executor: what every physical rank of one world
//! segment runs, and the values it exchanges with the driver.

use redcr_ckpt::bookmark;
use redcr_ckpt::coordinator::{CheckpointCoordinator, Restored};
use redcr_ckpt::snapshot::{ChannelMessage, ProcessImage};
use redcr_ckpt::storage::SnapshotKey;
use redcr_ckpt::CountingComm;
use redcr_mpi::collectives::ReduceOp;
use redcr_mpi::{Communicator, MpiError};
use redcr_red::{DetectorParams, HealPolicy, ReplicaComm};

use super::{Attempt, ResilientApp};
use crate::config::ExecutorConfig;

/// Checkpoint generations each virtual rank keeps on stable storage: the
/// newest, which a restart resumes from, and the one before it, which is
/// still complete if the newest turns out not to be. The replicas of a
/// sphere share its keys and retire them together (deleting is idempotent).
const GENERATIONS_KEPT: u64 = 2;

/// How a segment's ranks come by their state. Decided once per segment on
/// the driver (`Job::begin_attempt` from the attempt's one look at stable
/// storage, `Job::heal` after a commit); the ranks only act on it.
#[derive(Debug)]
pub(super) enum Resume {
    /// Nothing to restore: initialize the application. A job restarting
    /// from scratch still pays the restart overhead (process re-launch).
    Scratch { pay_restart: bool },
    /// Restore this complete coordinated checkpoint from stable storage.
    Stored(u64),
    /// Heal relaunch: every rank — respawned or survivor — resumes from
    /// its sphere's transferred image.
    Live(Vec<DonorImage>),
}

/// Where a rank stands in the checkpoint sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Cursor {
    pub(super) next_seq: u64,
    pub(super) next_ckpt: f64,
    /// Commits across the whole attempt (carried over heal relaunches).
    pub(super) checkpoints: u64,
}

/// Live state carried across a heal relaunch, one per virtual rank: the
/// donor replica's serialized checkpoint image (the checkpoint codec
/// doubles as the state-transfer wire format) and its checkpoint cursor.
#[derive(Debug)]
pub(super) struct DonorImage {
    pub(super) bytes: Vec<u8>,
    pub(super) cursor: Cursor,
}

/// What one world segment of an attempt produced on each rank. An attempt
/// is a sequence of segments: the failure detector splits it at heal
/// boundaries, and only the last segment runs the application to
/// completion.
pub(super) enum SegmentOutcome<S> {
    /// The application finished.
    Done { state: S, checkpoints: u64 },
    /// The failure detector fired at the collective boundary: the segment
    /// quiesced its channels so the driver can respawn the suspected
    /// replicas and relaunch every rank from live state.
    Quiesced { state: S, channel: Vec<ChannelMessage>, boundary: f64, cursor: Cursor },
}

/// The modeled failure detector of one attempt. Its verdicts are pure in
/// the clock boundary and the (identical) death schedule, so every rank
/// takes the same branch without any extra communication, and the driver
/// names the same suspects afterwards.
#[derive(Debug, Clone, Copy)]
pub(super) struct Detector {
    pub(super) policy: HealPolicy,
    pub(super) params: DetectorParams,
    pub(super) attempt_start: f64,
}

impl Detector {
    /// When a replica dying at `death` is suspected.
    pub(super) fn suspicion_time(&self, death: f64) -> f64 {
        self.params.suspicion_time(self.attempt_start, death)
    }

    /// The replicas whose suspicion deadline has elapsed at `now`.
    pub(super) fn suspects<'d>(
        &'d self,
        deaths: &'d [f64],
        now: f64,
    ) -> impl Iterator<Item = usize> + 'd {
        (0..deaths.len()).filter(move |&p| self.suspicion_time(deaths[p]) <= now)
    }

    /// Whether a heal cycle is due at the agreed clock boundary `now_max`.
    /// `Never` is simply the policy whose heal is never due.
    pub(super) fn heal_due(&self, deaths: &[f64], now_max: f64, next_ckpt: f64) -> bool {
        let suspected = || self.suspects(deaths, now_max).next().is_some();
        match self.policy {
            HealPolicy::Never => false,
            HealPolicy::OnDegrade => suspected(),
            HealPolicy::AtCheckpoint => now_max >= next_ckpt && suspected(),
        }
    }
}

/// One rank's segment: obtain the state as the attempt's `resume` says, then step
/// the application until it finishes or the failure detector calls a heal,
/// checkpointing at the configured interval and keeping
/// [`GENERATIONS_KEPT`] generations on stable storage.
pub(super) fn rank_segment<A: ResilientApp>(
    app: &A,
    cfg: &ExecutorConfig,
    coordinator: &CheckpointCoordinator,
    attempt: &Attempt,
    comm: &ReplicaComm,
) -> redcr_mpi::Result<SegmentOutcome<A::State>> {
    let interval = cfg.checkpoint_interval;
    let (mut state, mut cursor, counting) = match &attempt.resume {
        Resume::Live(donors) => {
            // The transfer itself is charged on the driver side through
            // the segment's start time, not here.
            let v = comm.rank().index();
            let donor = donors.get(v).ok_or_else(|| MpiError::App {
                what: format!("no heal image for virtual rank {v}"),
            })?;
            let image = ProcessImage::from_stored_bytes(&donor.bytes).map_err(MpiError::from)?;
            let state: A::State = image.restore().map_err(MpiError::from)?;
            (state, donor.cursor, CountingComm::with_restored_channel(comm, image.channel_state))
        }
        Resume::Stored(seq) => {
            // Charges the read cost R to virtual time and primes the
            // channel state.
            let restored: Restored<A::State> =
                coordinator.restore(comm, *seq).map_err(MpiError::from)?;
            let cursor =
                Cursor { next_seq: seq + 1, next_ckpt: comm.now() + interval, checkpoints: 0 };
            (restored.state, cursor, CountingComm::with_restored_channel(comm, restored.channel))
        }
        Resume::Scratch { pay_restart } => {
            if *pay_restart {
                comm.compute(cfg.restart_cost)?;
            }
            let counting = CountingComm::new(comm);
            let state = app.init(&counting)?;
            let cursor = Cursor { next_seq: 0, next_ckpt: comm.now() + interval, checkpoints: 0 };
            (state, cursor, counting)
        }
    };

    loop {
        app.step(&counting, &mut state)?;
        if app.is_done(&state) {
            return Ok(SegmentOutcome::Done { state, checkpoints: cursor.checkpoints });
        }
        // Collective clock agreement so that every rank and replica takes
        // the heal and checkpoint decisions together.
        let now_max = counting.allreduce_f64(&[counting.now()], ReduceOp::Max)?[0];
        let deaths = attempt.plan.absolute_death_times();
        if attempt.detector.heal_due(deaths, now_max, cursor.next_ckpt) {
            // Every rank reaches this decision from the same agreed
            // boundary, so the quiesce is collectively consistent.
            let channel = bookmark::quiesce(&counting)?;
            return Ok(SegmentOutcome::Quiesced { state, channel, boundary: now_max, cursor });
        }
        if now_max >= cursor.next_ckpt {
            // Stamped with the agreed boundary, not this replica's own
            // clock: the replicas of a sphere store under one key, and
            // their images must not depend on which of them writes last.
            coordinator
                .checkpoint_at(&counting, cursor.next_seq, now_max, &state)
                .map_err(MpiError::from)?;
            // The commit barrier has passed, so this generation and the one
            // before it are both complete; the one before that goes.
            if let Some(retired) = cursor.next_seq.checked_sub(GENERATIONS_KEPT) {
                let key = SnapshotKey::new(retired, counting.rank().as_u32());
                coordinator.storage().delete(key).map_err(MpiError::from)?;
            }
            cursor = Cursor {
                next_seq: cursor.next_seq + 1,
                next_ckpt: now_max + interval,
                checkpoints: cursor.checkpoints + 1,
            };
        }
    }
}
