//! # redcr-mpi — a deterministic in-process message-passing runtime
//!
//! This crate is the MPI substrate of the `redcr` reproduction of *Combining
//! Partial Redundancy and Checkpointing for HPC* (ICDCS 2012). It provides
//! the call surface the paper's RedMPI layer interposes on — blocking and
//! non-blocking point-to-point messaging, wildcard receives
//! (`MPI_ANY_SOURCE`), and collectives built *over* point-to-point messages
//! (matching the paper's assumption that "all collective communication in
//! MPI is based on point-to-point MPI messages") — but runs every rank as a
//! `redcr-sched` task inside one process and accounts time on a **virtual
//! clock** instead of wallclock.
//!
//! ## One trait, one communicator, one request
//!
//! [`Communicator`] is the call surface: ten required methods, with the
//! non-blocking operations, the probes' conveniences and every collective
//! provided on top — so a layer that interposes (the replication layer,
//! the checkpoint service's message counter) implements the ten and
//! inherits the rest. [`Comm`] is the one concrete communicator: the world
//! every rank closure receives. Nothing derives others from it; tag
//! namespaces and the replication layer's rank map isolate traffic inside
//! the one world. [`Request`] is the one handle type for pending
//! non-blocking operations, on every layer.
//!
//! ## Virtual time
//!
//! Each rank carries its own clock ([`time::VirtualClock`]). Computation
//! advances it explicitly via [`Communicator::compute`]; message delivery
//! advances the receiver to
//! `max(local, send_time + latency + len·byte_time) + msg_overhead`
//! (a LogP-style model, [`time::CostModel`]). The simulated wallclock of a
//! run is the maximum clock over all ranks at finalize. This is what lets a
//! "46-minute" NPB-CG execution finish in milliseconds while preserving the
//! communication/computation ratio `α` that drives the paper's model.
//!
//! ## Determinism
//!
//! Sends are eager and buffered (they never block). Each mailbox is one
//! queue in arrival order, and a receive takes the oldest envelope its
//! source and tag selectors match, so receives are FIFO per (source, tag);
//! collectives use fixed deterministic trees. A deterministic application
//! therefore produces bitwise-identical results and virtual times on every
//! run. Wildcard receives match in arrival order, which is
//! scheduler-dependent, exactly as in real MPI. A find scans about one
//! buffered envelope on average; the 1 024-rank CG averages about 17,
//! from its `allgather` root (see [`mailbox`]).
//!
//! ## Aborts
//!
//! Failures are per rank: [`WorldBuilder::death_times`] gives each rank a
//! virtual fail-stop time. A rank's runtime call at or past it returns
//! [`MpiError::Dead`], and its peers see [`MpiError::DeadPeer`]. When a
//! layer escalates a death it cannot mask ([`Comm::abort_job`]), ranks
//! blocked in receives return [`MpiError::Aborted`] once no rank can send
//! again: the scheduler finds every unfinished rank parked with no wake
//! committed (its stall rule). The resilient executor in `redcr-core`
//! ends an attempt this way and restarts from the last checkpoint. The
//! same stall without an abort is a deadlocked program, and its blocked
//! ranks return [`MpiError::Deadlock`] instead of hanging.
//!
//! # Example
//!
//! ```
//! use redcr_mpi::{World, Communicator, RankSelector, TagSelector};
//!
//! let report = World::builder(2)
//!     .run(|comm| {
//!         if comm.rank().index() == 0 {
//!             comm.send(1u32.into(), 7u64.into(), b"ping")?;
//!         } else {
//!             let (msg, status) = comm.recv(RankSelector::Any, TagSelector::Tag(7u64.into()))?;
//!             assert_eq!(&msg[..], b"ping");
//!             assert_eq!(status.source.index(), 0);
//!         }
//!         Ok(())
//!     })
//!     .expect("run failed");
//! assert!(report.max_virtual_time > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod collectives;
pub mod datatype;
pub mod mailbox;
pub mod message;
pub mod obs;
pub mod rank;
pub mod request;
pub mod tag;
pub mod time;
pub mod world;

mod comm;
mod communicator;
mod error;

/// The flight-recorder layer (re-exported from `redcr-trace`): enable it
/// by putting a [`trace::Collector`] in the [`Sinks`] given to
/// [`WorldBuilder::obs`], pull events out of it afterwards.
pub use redcr_trace as trace;

/// The metrics layer (re-exported from `redcr-metrics`): enable it by
/// putting a [`metrics::MetricsRegistry`] (built with the scrape-grid
/// spacing) in the [`Sinks`], pull totals and the virtual-time series out
/// of it afterwards.
pub use redcr_metrics as metrics;

/// The wall-clock self-profiling layer (re-exported from `redcr-prof`):
/// enable it by putting a [`prof::Profiler`] in the [`Sinks`], pull the
/// span/counter report out of it afterwards. Profiling watches the
/// *simulator* (host clock), never the simulated machine, and a run with
/// it off is bit-identical to one without it compiled in at all.
pub use redcr_prof as prof;

/// The concrete communicator: the world.
pub use comm::Comm;
/// The MPI-like call surface every communicator layer implements.
pub use communicator::Communicator;
pub use error::{MpiError, Result};
pub use message::Status;
pub use obs::{Drained, Obs, Sinks};
pub use rank::{Rank, RankSelector};
/// The one non-blocking request handle and what testing one yields.
pub use request::{Request, TestOutcome};
pub use tag::{Tag, TagSelector};
pub use time::CostModel;
pub use world::{RunReport, World, WorldBuilder};

/// Cooperative yield for rank code that busy-polls (e.g. a `test` loop on
/// a nonblocking request). Inside a scheduler task this parks the current
/// coroutine at the back of its run queue so other ranks can run; on a
/// plain OS thread it degrades to [`std::thread::yield_now`]. Rank
/// closures must call this — not `std::thread::yield_now` — in any spin
/// loop: under the M:N executor a raw thread yield never releases the
/// worker, which livelocks a single-worker pool.
pub use redcr_sched::yield_now;
