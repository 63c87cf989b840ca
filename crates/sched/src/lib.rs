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
//! ## The stall rule
//!
//! A batch *stalls* when every unfinished task is parked and no wake is
//! committed; only the pool can see that, so the pool decides it. It then
//! wakes every parked task once, and [`park_current`] returns
//! `Err(`[`Stalled`]`)` for each of those parks and, at once, for every
//! park after. The contract is that a batch's tasks are woken only by
//! tasks of the same batch. A world run's aborted ranks and a deadlocked
//! program's ranks leave their receives this way instead of hanging, and
//! so does a task whose only waker panicked.
//!
//! ## Quick start
//!
//! ```
//! use redcr_sched::{run_batch, Backend, PoolConfig};
//!
//! let cfg = PoolConfig { workers: 2, stack_bytes: 128 * 1024, backend: Backend::Coro };
//! let results = run_batch(&cfg, 8, None, None, |task| task * task); // no affinity keys, no profiler
//! let squares: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
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
//! | `REDCR_STACK_KB` | coroutine stack size in KiB (default 128, at least 64; debug builds measure the use, the profiler's `stack_high_water`) |
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
    current_waker, park_current, run_batch, yield_now, Backend, PoolConfig, Stalled, Waker,
};
pub use stack::DEFAULT_STACK_BYTES;
