//! # redcr-trace — a virtual-time flight recorder for the redcr stack
//!
//! Every layer of the reproduction — the message runtime (`redcr-mpi`), the
//! replication layer (`redcr-red`), the checkpoint coordinator
//! (`redcr-ckpt`) and the resilient executor (`redcr-core`) — emits
//! structured, virtual-time-stamped [`Event`]s into a per-rank [`Recorder`]
//! whose chunks a shared [`Collector`] adopts at world teardown (an event
//! is written once and never copied), the same rank-thread-local pattern
//! the replication statistics use. The resulting
//! [`Trace`] can be exported as JSONL (one event per line) and replayed by
//! the [`analyzer`], which reconstructs per-attempt, per-rank timelines and
//! derives the paper's measured quantities — observed communication
//! fraction `α` per rank, checkpoint commit latency, degraded-sphere
//! intervals, and lost work per failure — from the events alone, so the
//! derived totals can be cross-checked against the executor's hand-kept
//! counters.
//!
//! ## Virtual-time semantics
//!
//! Event times are **virtual seconds** on the emitting rank's clock
//! (absolute, i.e. including the resume offset of restarted attempts).
//! Events that participate in the executor's accounting additionally carry
//! the **relative** times the executor itself compared
//! ([`EventKind::Injected::rel`], [`EventKind::AttemptEnd::rel_failure`],
//! [`EventKind::AttemptEnd::rel_end`]) so the analyzer reproduces the exact
//! same `f64` comparisons — no re-derived rounding can flip an inclusive
//! boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod critical;
mod event;
pub mod heal;
mod jsonl;
pub mod perfetto;
mod recorder;

pub use analyzer::{Analysis, AnalyzeError, AttemptSummary, DerivedTotals};
pub use critical::{AttemptPath, Blame, CriticalPath, PathStep, RankBlame};
pub use event::{Event, EventKind};
pub use jsonl::TraceError;
pub use perfetto::{CounterTrack, PerfettoSummary};
pub use recorder::{Collector, Recorder, Trace};
