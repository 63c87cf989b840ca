//! # redcr-cluster — a discrete-event simulator of checkpointed,
//! replicated jobs at scale
//!
//! The paper's evaluation spans scales no testbed reaches (Tables 2–3 cover
//! up to 100 000 nodes; Figures 13–14 up to 200 000+ processes). This crate
//! replays a job's **segment / checkpoint / failure / restart / rework
//! timeline** directly as events, so a 168-hour, 100k-node job simulates in
//! microseconds — the Monte-Carlo counterpart of the closed-form model in
//! `redcr-model`, and the engine behind the Table 2/3/4 reproductions.
//!
//! * [`job`] — job configuration: work amount, checkpoint interval/cost,
//!   restart cost, and whether failures strike during overhead phases
//!   (the paper's model says yes; its cluster experiments say no — both
//!   are supported).
//! * [`failure_source`] — where failures come from: each attempt drawn
//!   from the replica-sphere failure law that per-process exponential
//!   failures induce, or a scripted schedule for tests.
//! * [`simulate`] — the timeline walker producing a [`stats::JobStats`]
//!   breakdown (work / checkpoint / recompute / restart), the same four
//!   buckets as the paper's Table 2.
//! * [`sweep`] — seeded Monte-Carlo aggregation (mean/σ over many runs)
//!   and [`sweep::work_queue`], the one function that spreads indexed jobs
//!   over host threads: Monte-Carlo trials here, cold scenarios in
//!   `redcr-sweep`'s engine.
//! * [`combined`] — bridges `redcr-model::combined::CombinedConfig` to a
//!   simulation: redundant time from Eq. 1, sphere structure from the
//!   partial-redundancy partition, Daly's interval from Eq. 15; a
//!   [`combined::PreparedJob`] derives that once and simulates it per seed.
//!
//! # Example
//!
//! ```
//! use redcr_cluster::job::{FailureExposure, JobConfig};
//! use redcr_cluster::failure_source::SphereSource;
//! use redcr_cluster::simulate::simulate_job;
//! use redcr_fault::ReplicaGroups;
//!
//! // 100 h of work, 6 min checkpoints every 2 h, 10 min restarts, one
//! // unreplicated process with MTBF 50 h.
//! let cfg = JobConfig {
//!     work: 100.0,
//!     checkpoint_cost: 0.1,
//!     checkpoint_interval: 2.0,
//!     restart_cost: 1.0 / 6.0,
//!     exposure: FailureExposure::AllTime,
//!     max_attempts: 100_000,
//! };
//! let mut source = SphereSource::new(ReplicaGroups::uniform(1, 1), 50.0, 42);
//! let stats = simulate_job(&cfg, &mut source).expect("completes");
//! assert!(stats.total_time > 100.0);
//! assert!(stats.work_time >= 100.0 - 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combined;
pub mod failure_source;
pub mod job;
pub mod simulate;
pub mod stats;
pub mod sweep;

pub use failure_source::{FailureSource, ScheduledSource, SphereSource};
pub use job::{FailureExposure, JobConfig};
pub use simulate::{simulate_job, SimError};
pub use stats::JobStats;
pub use sweep::{monte_carlo, Aggregate, CountMeans};
