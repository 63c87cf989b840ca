//! # redcr — Combining Partial Redundancy and Checkpointing for HPC
//!
//! A Rust reproduction of Elliott, Kharbas, Fiala, Mueller, Ferreira and
//! Engelmann, *Combining Partial Redundancy and Checkpointing for HPC*
//! (ICDCS 2012): the analytic model, a RedMPI-style replication layer over a
//! deterministic message-passing runtime, coordinated checkpoint/restart,
//! Poisson failure injection, NPB-style application kernels, and a
//! discrete-event cluster simulator — everything needed to regenerate every
//! table and figure of the paper's evaluation.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`model`] — Eqs. 1–15 and the optimal-configuration search.
//! * [`mpi`] — the in-process message-passing runtime (virtual time).
//! * [`red`] — transparent process replication (RedMPI-style).
//! * [`ckpt`] — coordinated checkpoint/restart protocols and storage.
//! * [`fault`] — Poisson failure injection.
//! * [`apps`] — CG / Jacobi / EP kernels.
//! * [`cluster`] — discrete-event job simulator at exascale node counts,
//!   and the one work queue Monte-Carlo trials and sweeps run on.
//! * [`core`] — the resilient executor, which runs a job at the `r` and `δ`
//!   that [`model`]'s optimizer picks.
//! * [`trace`] — virtual-time flight recorder, JSONL/Perfetto export and
//!   analyzer.
//! * [`metrics`] — virtual-time metrics registry (counters, gauges, log2
//!   histograms) with a configurable-cadence scraper.
//! * [`sweep`] — the scenario-sweep capacity planner: dedup, multi-core
//!   batch execution, persistent result cache, Pareto frontiers.
//!
//! # Quickstart
//!
//! ```
//! use redcr::model::combined::CombinedConfig;
//! use redcr::model::optimizer::{optimal_redundancy, RGrid};
//! use redcr::model::units;
//!
//! # fn main() -> Result<(), redcr::model::ModelError> {
//! let cfg = CombinedConfig::builder()
//!     .virtual_processes(100_000)
//!     .base_time_hours(128.0)
//!     .node_mtbf_hours(units::hours_from_years(5.0))
//!     .comm_fraction(0.2)
//!     .checkpoint_cost_hours(units::hours_from_mins(10.0))
//!     .restart_cost_hours(units::hours_from_mins(30.0))
//!     .build()?;
//! let best = optimal_redundancy(&cfg, &RGrid::half_steps())?;
//! println!("best degree: {}x, T = {:.1} h", best.degree, best.outcome.total_time);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use redcr_apps as apps;
pub use redcr_ckpt as ckpt;
pub use redcr_cluster as cluster;
pub use redcr_core as core;
pub use redcr_fault as fault;
pub use redcr_metrics as metrics;
pub use redcr_model as model;
pub use redcr_mpi as mpi;
pub use redcr_prof as prof;
pub use redcr_red as red;
pub use redcr_sweep as sweep;
pub use redcr_trace as trace;
