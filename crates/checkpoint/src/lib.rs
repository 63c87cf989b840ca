//! # redcr-ckpt — coordinated checkpoint/restart for `redcr-mpi` worlds
//!
//! The C/R substrate of the `redcr` reproduction of *Combining Partial
//! Redundancy and Checkpointing for HPC* (ICDCS 2012). The paper uses BLCR
//! (a system-level single-process checkpointer) underneath Open MPI's
//! coordinated checkpoint service; this crate provides the equivalent
//! building blocks for applications running on the simulated runtime:
//!
//! * [`codec`] — the checkpoint wire format: the [`codec::Encode`] /
//!   [`codec::Decode`] pair and [`codec_struct!`], the one line under a
//!   state struct that lists its stored fields, so any application state
//!   can become a process image.
//! * [`snapshot`] — process images: application state + drained channel
//!   state + the virtual time of the cut.
//! * [`storage`] — stable-storage backends (in-memory and on-disk) with a
//!   write/read **cost model** that yields the paper's checkpoint cost `c`
//!   and restart cost `R` in virtual time.
//! * [`counting`] — a message-counting communicator wrapper (the PML-level
//!   bookkeeping Open MPI's bookmark protocol relies on).
//! * [`bookmark`] — the all-to-all *bookmark exchange* quiesce protocol
//!   used by Open MPI: ranks exchange per-peer send totals and drain until
//!   the totals equalize.
//! * [`incremental`] — page-level incremental checkpoints with full-image
//!   reconstruction (not on the checkpoint path).
//! * [`compress`] — run-length compression (not on the checkpoint path).
//! * [`coordinator`] — ties it together: quiesce, write the image, charge
//!   the checkpoint cost to virtual time, store and commit.
//! * [`restart`] — locating and loading the latest complete checkpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bookmark;
pub mod codec;
pub mod compress;
pub mod coordinator;
pub mod counting;
pub mod incremental;
pub mod restart;
pub mod snapshot;
pub mod storage;

mod error;

pub use codec::{from_bytes, to_bytes};
pub use coordinator::CheckpointCoordinator;
pub use counting::CountingComm;
pub use error::CkptError;
pub use snapshot::ProcessImage;
pub use storage::{DiskStorage, MemoryStorage, SnapshotKey, StableStorage, StorageCostModel};

/// Result alias for checkpoint operations.
pub type Result<T> = std::result::Result<T, CkptError>;
