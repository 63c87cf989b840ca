//! # redcr-prof — wall-clock self-profiling for the redcr stack
//!
//! Every other observability layer in this workspace (`redcr-trace`,
//! `redcr-metrics`, the Perfetto export) watches the **simulated** machine
//! in virtual time. This crate watches the **simulator** in wall-clock
//! time: how long rank tasks spend parked in mailbox waits, encoding
//! checkpoints or voting, and scheduler and sweep workers idling or
//! running scenarios. Its first deliverable was the measured
//! parking/context-switch baseline the M:N rank scheduler was judged
//! against.
//!
//! ## Design
//!
//! The shard/registry split mirrors `redcr-metrics` exactly:
//!
//! * [`RankProf`] is a rank-thread-local shard — `Send` but not `Sync`,
//!   all-`Cell` on the hot path, drained once at rank teardown. Spans are
//!   RAII [`SpanGuard`]s: every entry is counted, and a scheduled sample
//!   of them — the first 64 of a key on a shard, then one in sixteen at
//!   random gaps — is measured over [`std::time::Instant`]. A key's total
//!   is scaled up from its timed entries and reported with its standard
//!   error ([`SpanStat`]); rare long spans are all timed, hence exact.
//! * [`Profiler`] is the shared registry: a `Mutex` that is only locked at
//!   absorb (teardown) and report time, never on a hot path, so it adds no
//!   edge to the workspace lock graph.
//! * [`ProfReport`] is the drained, per-scope result, exportable as a
//!   handwritten JSON sidecar ([`ProfReport::to_json`]) and as
//!   inferno-compatible folded-stack text ([`ProfReport::folded`]) for
//!   flamegraphs; [`ProfReport::counter_tracks`] feeds Perfetto counter
//!   tracks (queue depth, cumulative parks).
//!
//! ## Determinism contract
//!
//! This crate is the *only* non-bench crate allowed to read the host
//! clock: it opts out of clippy's wall-clock ban below (and, since it sits
//! below `redcr-sched`, of the ban on std locks). Rank code reaches its
//! shard through the runtime's one telemetry handle (`redcr_mpi::Obs`),
//! which costs one `Option` check per site when profiling is off, and no
//! wall-clock reading here ever feeds back into a virtual clock —
//! profiler-off runs are bit-identical, profiler-on runs perturb nothing
//! but wall time.

// Wall-clock reads are this crate's entire purpose; it opts out of the
// workspace-wide clippy bans the same way the bench harness does.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod keys;
mod registry;
mod report;
mod shard;

pub use keys::{CounterKey, SpanKey, TrackKey};
pub use registry::{ProfScope, Profiler};
pub use report::{CounterTrackData, ProfReport, ScopeProf, SpanStat};
pub use shard::{ProfDrain, RankProf, SpanGuard, TrackSample};
