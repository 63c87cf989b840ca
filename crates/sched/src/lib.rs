//! # redcr-sched — M:N rank scheduler
//!
//! Runs the simulator's rank bodies as lightweight tasks multiplexed onto
//! a small work-stealing pool of OS threads, instead of one OS thread per
//! rank. A rank that would block — a receive with no matching message, a
//! barrier, a checkpoint quiesce — *yields* its coroutine back to the
//! worker via [`park_current`]; the sender that later satisfies it calls
//! [`Waker::wake`], which queues the task on its *home* worker's deque.
//! This is the only way a rank blocks: on a single worker the whole world
//! is a user-space event loop with zero thread spawns and zero condvar
//! traffic per segment. With `W` workers each rank is homed on one of them — in
//! contiguous blocks of an affinity key the caller may pass — and stays
//! there; an idle worker only ever borrows a sibling's task for one run.
//!
//! ## Quick start
//!
//! ```
//! use redcr_sched::{run_batch, Backend, PoolConfig};
//!
//! let cfg = PoolConfig { workers: 2, stack_bytes: 128 * 1024, backend: Backend::Coro };
//! let batch = run_batch(&cfg, 8, None, None, |task| task * task); // no affinity keys, no profiler
//! let squares: Vec<usize> = batch.results.into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```
//!
//! ## Knobs
//!
//! | Source | Meaning |
//! |---|---|
//! | `ExecutorConfig::workers` / `WorldBuilder::workers` | explicit worker count (wins) |
//! | `REDCR_WORKERS` | worker count when no explicit one is set |
//! | `REDCR_EXEC=threads` | thread-per-task fallback backend |
//! | `REDCR_STACK_KB` | coroutine stack size (default 128; detlint R9 bounds root chains well under that) |
//!
//! Unset, the pool sizes itself to `available_parallelism()`.
//!
//! ## Determinism
//!
//! The scheduler introduces no entropy of its own (fixed placement and
//! steal rotation, FIFO deques, no clocks, no RNG — clippy's
//! `disallowed-types` bans them). Simulation results stay bit-identical
//! across worker counts and placements because the layers above order
//! all observable effects by virtual time; the workspace gate tests
//! assert that at 1, 2, 3, 8 and 16 workers, with and without the
//! placement hint.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod ctx;
mod pool;
mod stack;
pub mod sync;

pub use pool::{
    current_waker, park_current, run_batch, yield_now, Backend, BatchResult, BatchStats,
    PoolConfig, Waker,
};
