//! # redcr-red — transparent process replication over `redcr-mpi`
//!
//! A reimplementation of the paper's **RedMPI** layer: applications written
//! against [`redcr_mpi::Communicator`] run unchanged while every *virtual*
//! process is backed by `r` *physical* replicas ("a sphere"). The layer
//! interposes on the two point-to-point choke points (`send_ns`/`recv_ns`),
//! which — because collectives in `redcr-mpi` are built over point-to-point
//! messages — transparently covers collectives too, exactly as the paper
//! argues.
//!
//! ## Semantics (paper Section 3)
//!
//! * Every replica of a virtual process executes the same program and
//!   receives exactly the same messages in the same order.
//! * A send from virtual `A` to virtual `B` becomes, in **All-to-all** mode,
//!   one physical message from *each* replica of `A` to *each* replica of
//!   `B` (so a 2x-replicated pair exchanges 4 physical messages — the
//!   paper's "up to four times the number of messages").
//! * In **Msg-PlusHash** mode each receiver replica receives one full
//!   payload and hashes from the other sender replicas, cutting bandwidth.
//! * Receives compare the redundant copies: with ≥3 replicas a corrupted
//!   copy is voted out (SDC detection); with 2 replicas a mismatch is
//!   detected and reported.
//! * Wildcard receives (`MPI_ANY_SOURCE`) use the envelope-forwarding
//!   protocol of Section 3: the lowest replica of the receiver matches
//!   first, forwards the resolved envelope (sender + tag) to its own
//!   replicas, and everyone then posts specific receives.
//!
//! ## Partial redundancy
//!
//! The degree `r` may be fractional (Eqs. 5–8, via
//! [`redcr_model::partition::RedundancyPartition`]); virtual processes are
//! then split between `⌊r⌋` and `⌈r⌉` replicas using the paper's
//! interleaved placement ("every even process has a replica" at 1.5x).
//!
//! # Example
//!
//! ```
//! use redcr_red::{ReplicatedWorld, VotingMode};
//! use redcr_mpi::{Communicator, Rank, Tag};
//!
//! // 4 virtual processes at 2x redundancy: 8 physical ranks underneath.
//! let report = ReplicatedWorld::builder(4, 2.0)
//!     .expect("valid degree")
//!     .voting_mode(VotingMode::AllToAll)
//!     .run(|comm| {
//!         // Plain MPI-style code; replication is invisible.
//!         let sum = comm.allreduce_f64(
//!             &[comm.rank().index() as f64],
//!             redcr_mpi::collectives::ReduceOp::Sum,
//!         )?;
//!         assert_eq!(sum[0], 6.0);
//!         Ok(())
//!     })
//!     .expect("run failed");
//! assert_eq!(report.n_physical, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corruption;
pub mod heartbeat;
pub mod stats;
pub mod vmap;
pub mod voting;

mod replica_comm;
mod world;

pub use corruption::CorruptionModel;
pub use heartbeat::{DetectorParams, FailureDetector, HealPolicy};
pub use replica_comm::ReplicaComm;
pub use stats::StatsSnapshot;
pub use vmap::VirtualMap;
pub use voting::{hash_payload, VoteCost, VoteOutcome, VotingMode};
pub use world::{ReplicatedReport, ReplicatedWorld, ReplicatedWorldBuilder};
