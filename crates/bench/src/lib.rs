//! # redcr-bench — regenerating every table and figure of the paper
//!
//! One module per experiment; `--bin all` is the one entry point that
//! writes them to `results/` (artifact names as positional arguments, none
//! for everything). Each module exposes a `generate()` function returning
//! structured rows and a `render()` producing the printable table, so each
//! module's unit tests assert the *shape* of its reproduction (who wins,
//! where minima and crossovers fall) without string scraping.
//!
//! Absolute numbers are not expected to match the paper — the substrate is
//! a virtual-time simulator, not the authors' 2012 cluster — but the shape
//! claims are recorded against the paper's values in `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p redcr-bench --release --bin all
//! cargo run -p redcr-bench --release --bin all -- table4 fig12
//! ```
//!
//! The other binaries: `validation` (measured-vs-model gate), `chaos`
//! (kill/heal race sweep), `sweep` (capacity-planner sweep), `profile`
//! (one traced + profiled `cg_r3` run) and `perf`, the repository's one
//! host-speed benchmark (`BENCHMARK.json`; a package of its own under
//! `src/bin/perf/` that imports nothing from this library).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod chaos;
pub mod fig11;
pub mod fig12;
pub mod fig13_14;
pub mod fig2;
pub mod fig4_6;
pub mod output;
pub mod paper;
pub mod sweepbench;
pub mod table1;
pub mod table2_3;
pub mod table4;
pub mod table5;
pub mod validation;
pub mod window;

/// Worker-thread count for Monte-Carlo sweeps: the machine's available
/// parallelism, clamped to `[1, 64]`, falling back to 8 when the host
/// cannot report it.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(8).clamp(1, 64)
}
