//! # redcr-fault — Poisson-process failure injection
//!
//! Reimplements the paper's fault injector (Section 5). The injector:
//!
//! 1. maintains a mapping of virtual to physical processes;
//! 2. samples, for each physical process, the time of its next failure from
//!    an exponential distribution (failures arrive as a Poisson process,
//!    paper assumption 3);
//! 3. marks processes dead as their failure times pass;
//! 4. triggers application termination — followed by restart from the last
//!    checkpoint — only when **all** physical processes of some virtual
//!    process (a replica *sphere*) are dead.
//!
//! Individual replica failures below sphere level do not stall the job: the
//! surviving replicas carry on (the redundancy property). Spare nodes
//! replace failed ones at restart (paper assumption 5), so each attempt
//! starts with a fully-alive system and fresh failure samples.
//!
//! # Example
//!
//! ```
//! use redcr_fault::{FailureInjector, ReplicaGroups};
//!
//! // 4 virtual processes at dual redundancy: spheres {0,4} {1,5} {2,6} {3,7}.
//! let groups = ReplicaGroups::uniform(4, 2);
//! let mut injector = FailureInjector::new(groups, 3600.0, 42);
//! let plan = injector.plan_attempt(0.0);
//! // The job dies when the first whole sphere is dead — strictly after the
//! // first individual process failure (at dual redundancy).
//! assert!(plan.job_failure_time > plan.schedule.first_process_failure());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod injector;
pub mod poisson;
pub mod schedule;
pub mod trace;

pub use injector::{AttemptPlan, Death, FailureInjector};
pub use poisson::ExpSampler;
pub use schedule::{FailureSchedule, ReplicaGroups};
pub use trace::{FailureEvent, FailureTrace};
