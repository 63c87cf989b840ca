//! # redcr-core — combined partial redundancy + checkpoint/restart
//!
//! The paper's primary contribution, as a library: given an application, a
//! cluster, and a resource/time goal, **choose the redundancy degree `r`
//! and checkpoint interval `δ`** that minimize the expected cost (the
//! model's `redcr_model::optimizer`), and **execute** the application under
//! exactly that configuration — transparent replication, coordinated
//! checkpointing, Poisson fault injection, and restart from the last
//! checkpoint — on the virtual-time runtime ([`executor`]).
//!
//! The executor reproduces the paper's experimental procedure (Section 5)
//! as a state machine; each step is one of its transitions (see
//! [`executor`]):
//!
//! 1. a failure injector samples per-physical-process failure times —
//!    `begin_attempt`, which plans the attempt's failure timeline
//!    ([`redcr_fault::AttemptPlan`]);
//! 2. the application runs (replicated) until the first replica *sphere*
//!    is completely dead — `run_segment`, whose ranks run
//!    `executor::segment::rank_segment`; with self-healing on, a segment
//!    may instead quiesce into `heal`, which respawns the suspected
//!    replicas and relaunches from live state;
//! 3. the whole job is then terminated and restarted from the last
//!    coordinated checkpoint, with spare nodes replacing the failed ones —
//!    `close_attempt` ends the attempt and accounts for it, and the next
//!    `begin_attempt` resumes from the newest complete checkpoint on
//!    stable storage;
//! 4. a checkpointer writes coordinated checkpoints at a fixed virtual-time
//!    interval (Daly's `δ_opt` by default) — on the ranks, inside
//!    `rank_segment`'s step loop.
//!
//! # Example: choose `r` and `δ`
//!
//! ```
//! use redcr_model::combined::CombinedConfig;
//! use redcr_model::optimizer::{optimal_by_cost, CostWeights, RGrid};
//! use redcr_model::units;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = CombinedConfig::builder()
//!     .virtual_processes(10_000)
//!     .base_time_hours(128.0)
//!     .node_mtbf_hours(units::hours_from_years(5.0))
//!     .comm_fraction(0.2)
//!     .checkpoint_cost_hours(units::hours_from_mins(5.0))
//!     .restart_cost_hours(units::hours_from_mins(10.0))
//!     .build()?;
//! let best = optimal_by_cost(&cfg, &RGrid::quarter_steps(), &CostWeights::time_only())?;
//! assert!(best.degree >= 1.0 && best.degree <= 3.0);
//! println!(
//!     "run at {}x, checkpoint every {:.2} h, expect {:.1} h total",
//!     best.degree, best.outcome.checkpoint_interval, best.outcome.total_time
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod config;
pub mod executor;
pub mod report;
pub mod validation;

pub use config::ExecutorConfig;
pub use executor::{ResilientApp, ResilientExecutor};
pub use report::ExecutionReport;
pub use validation::{ModelValidation, ValidationError};

mod error;

pub use error::CoreError;

/// Result alias for executor operations.
pub type Result<T> = std::result::Result<T, CoreError>;
