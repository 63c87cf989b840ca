//! An allgather's parts are read in place: a CG step's allgather and the
//! assembly of the full search direction cost each rank the same number of
//! allocations at 128 ranks as at 16. (When every rank took one `Bytes` and
//! one decoded `Vec` per part, a rank paid one allocation per peer, so the
//! world paid n² a step.)
//!
//! One test in this binary, so nothing else allocates while it counts.

use redcr::apps::cg::{CgConfig, CgSolver};
use redcr::mpi::{CostModel, World};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Rows a rank owns: its allgather part is 32 bytes.
const ROWS_PER_RANK: usize = 4;

/// Allocations a world of `ranks` makes to set up and run `steps` CG
/// steps on one worker. Each step is one allgather, its assembly and two
/// scalar allreduces.
fn solve(ranks: usize, steps: u64) -> u64 {
    let solver = CgSolver::new(CgConfig::small(ROWS_PER_RANK * ranks));
    let before = allocations();
    World::builder(ranks)
        .cost_model(CostModel::zero())
        .workers(1)
        .run(|comm| {
            let mut state = solver.init_state(comm)?;
            solver.run(comm, &mut state, steps)
        })
        .unwrap()
        .into_results()
        .unwrap();
    allocations() - before
}

/// Allocations per rank per step: the difference of a long and a short
/// solve, so set-up cancels. The harness's own thread now and then
/// allocates while a solve runs; that only ever adds, so the least of
/// three runs is the solve's.
fn per_rank_per_step(ranks: usize) -> f64 {
    let least = |steps| (0..3).map(|_| solve(ranks, steps)).min().unwrap();
    let (short, long) = (least(8), least(24));
    (long - short) as f64 / (16 * ranks) as f64
}

#[test]
fn allgather_allocations_per_rank_do_not_grow_with_the_rank_count() {
    let small = per_rank_per_step(16);
    let large = per_rank_per_step(128);
    // A per-part allocation would add 112 a rank a step going from 16 to
    // 128 ranks; one extra allocation at the root would add under 0.01.
    assert!(
        large <= small + 1.0,
        "{small:.2} allocations a rank a step at 16 ranks, {large:.2} at 128"
    );
}
