//! Analytic model for **combined partial redundancy and checkpoint/restart**
//! in HPC, reproducing Elliott, Kharbas, Fiala, Mueller, Ferreira and
//! Engelmann, *Combining Partial Redundancy and Checkpointing for HPC*,
//! ICDCS 2012 (Section 4, Eqs. 1–15).
//!
//! The model answers two questions posed by the paper:
//!
//! 1. Is it advantageous to use both C/R and redundancy at the same time?
//! 2. What are the optimal values of the (partial) redundancy degree `r` and
//!    the checkpoint interval `δ`?
//!
//! # Structure
//!
//! * [`partition`] — Eqs. 5–8: splitting `N` virtual processes into the
//!   `⌊r⌋`- and `⌈r⌉`-replicated sets for a fractional degree `r`.
//! * [`reliability`] — Eqs. 2–4: node and replica-sphere reliability.
//! * [`redundancy`] — Eq. 1 (redundant execution time) and Eqs. 9–10
//!   (system reliability, failure rate and MTBF under partial redundancy).
//! * [`repair`] — the repair-rate extension of Eqs. 9–10: sphere lifetimes
//!   as absorbing birth–death chains when the self-healing layer respawns
//!   dead replicas at rate `μ`.
//! * [`checkpointing`] — Eqs. 12–14 (expected lost work, restart+rework,
//!   total time under periodic checkpointing) and Eq. 15 (Daly's optimal
//!   checkpoint interval), plus Young's first-order interval.
//! * [`combined`] — Section 4.3: the full combined model and the simplified
//!   variant the paper uses in Section 6(5) for Figures 11–12.
//! * [`optimizer`] — optimal `r` search (at Daly's `δ`), weighted
//!   time-vs-resource cost functions, and crossover finders (Figures 13–14).
//!
//! # Conventions
//!
//! All durations passed to free functions are in **a single consistent unit**
//! (the functions are unit-agnostic; the structs in [`combined`] document
//! their fields in hours). MTBF is always the mean time between failures of
//! a *single* failure unit (node) unless explicitly named `system_*`.
//!
//! # Example
//!
//! Find the optimal redundancy degree for a 128-hour job on 100 000 nodes
//! with a 5-year per-node MTBF:
//!
//! ```
//! use redcr_model::combined::CombinedConfig;
//! use redcr_model::optimizer::{self, RGrid};
//!
//! # fn main() -> Result<(), redcr_model::ModelError> {
//! let cfg = CombinedConfig::builder()
//!     .virtual_processes(100_000)
//!     .base_time_hours(128.0)
//!     .node_mtbf_hours(5.0 * 365.0 * 24.0)
//!     .comm_fraction(0.2)
//!     .checkpoint_cost_hours(600.0 / 3600.0)
//!     .restart_cost_hours(500.0 / 3600.0)
//!     .build()?;
//! let best = optimizer::optimal_redundancy(&cfg, &optimizer::RGrid::quarter_steps())?;
//! assert!(best.degree >= 2.0); // at this scale dual redundancy wins
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpointing;
pub mod combined;
pub mod optimizer;
pub mod partition;
pub mod redundancy;
pub mod reliability;
pub mod repair;
pub mod units;

mod error;

pub use error::ModelError;

/// Convenient result alias for fallible model computations.
pub type Result<T> = std::result::Result<T, ModelError>;
