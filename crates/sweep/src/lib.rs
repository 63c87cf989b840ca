//! # redcr-sweep — the scenario-sweep capacity planner
//!
//! The paper's practical payoff (Figures 9–14) is a *sweep*: evaluate a
//! grid of (redundancy degree, node count, MTBF, workload) points and read off the trade-off between wallclock and
//! resources. This crate turns that one-off experiment into a serving
//! layer — a batch engine that answers thousands of what-if queries
//! against a persistent result cache, with the closed-form model and the
//! discrete-event cluster simulator as cold-miss backends.
//!
//! Pipeline:
//!
//! 1. [`spec`] — a canonical [`ScenarioSpec`] with a
//!    versioned byte encoding and stable 64-bit FNV-1a hash;
//! 2. [`dedup`](mod@dedup) — identical submitted points collapse to one
//!    query;
//! 3. [`cache`] — a JSONL store keyed by scenario hash: warm hits skip
//!    evaluation entirely, cold results are appended deterministically;
//! 4. [`engine`] — a work queue draining cold misses across worker
//!    threads, with results independent of thread count and scheduling;
//! 5. [`pareto`] — the non-dominated (wallclock, node-hours, completion
//!    rate) frontier of a finished sweep, globally and per knob family
//!    (scenarios differing only in the redundancy degree).
//!
//! Determinism contract: a repeated submission of the same batch against
//! the same cache is a 100% hit rate and a byte-identical report — the
//! cache layer inherits the workspace's reproducibility gate.
//!
//! # Example
//!
//! ```
//! use redcr_sweep::cache::ResultCache;
//! use redcr_sweep::engine::run_sweep;
//! use redcr_sweep::pareto;
//! use redcr_sweep::spec::{Backend, ScenarioSpec, SpecPolicy, Workload};
//!
//! let workload = Workload {
//!     base_time_hours: 128.0,
//!     alpha: 0.24,
//!     checkpoint_cost_hours: 1.0 / 6.0,
//!     restart_cost_hours: 0.5,
//! };
//! let specs: Vec<ScenarioSpec> = [1.0, 2.0, 3.0]
//!     .iter()
//!     .map(|&degree| ScenarioSpec {
//!         backend: Backend::Model,
//!         n_virtual: 50_000,
//!         degree,
//!         policy: SpecPolicy::Daly,
//!         node_mtbf_hours: 43_800.0,
//!         workload,
//!         seeds: 0,
//!     })
//!     .collect();
//! let mut cache = ResultCache::in_memory();
//! let report = run_sweep(&specs, 4, &mut cache).expect("sweep runs");
//! let front = pareto::frontier(&report.entries);
//! assert!(!front.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dedup;
pub mod engine;
pub mod pareto;
pub mod spec;

pub use cache::{ResultCache, ScenarioResult};
pub use dedup::{dedup, DedupedBatch};
pub use engine::{run_sweep, run_sweep_profiled, SweepEntry, SweepError, SweepReport, SweepStats};
pub use pareto::{frontier, grouped_frontiers, GroupFrontier, ParetoPoint};
pub use spec::{Backend, ScenarioSpec, SpecPolicy, Workload};
