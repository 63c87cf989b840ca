//! An allgather's parts are read in place: a CG step's allgather and the
//! matvec over the full search direction cost each rank the same number of
//! allocations, and the same number of bytes, at 128 ranks as at 16. (When
//! every rank took one `Bytes` and one decoded `Vec` per part, a rank paid
//! one allocation per peer, so the world paid n² a step. When every rank
//! decoded the whole direction into its own `Vec`, a rank requested 8·n
//! bytes a step, and the world n² bytes, all freed at once.)
//!
//! One test in this binary, so nothing else allocates while it counts.

use redcr::apps::cg::{CgConfig, CgSolver};
use redcr::mpi::{CostModel, World};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, requested, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Rows a rank owns: its allgather part is 32 bytes.
const ROWS_PER_RANK: usize = 4;

/// What one solve asked of the allocator.
#[derive(Clone, Copy)]
struct Cost {
    allocations: u64,
    bytes: u64,
}

/// Allocations and bytes requested so far.
fn cost() -> Cost {
    Cost { allocations: allocations(), bytes: requested().0 }
}

impl Cost {
    /// The smaller of each count.
    fn least(self, other: Cost) -> Cost {
        Cost {
            allocations: self.allocations.min(other.allocations),
            bytes: self.bytes.min(other.bytes),
        }
    }
}

/// What a world of `ranks` asks of the allocator to set up and run `steps`
/// CG steps on one worker. Each step is one allgather, the matvec over it
/// and two scalar allreduces.
fn solve(ranks: usize, steps: u64) -> Cost {
    let solver = CgSolver::new(CgConfig::small(ROWS_PER_RANK * ranks));
    let before = cost();
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
    let after = cost();
    Cost { allocations: after.allocations - before.allocations, bytes: after.bytes - before.bytes }
}

/// `(allocations, bytes)` per rank per step: the difference of a long and
/// a short solve, so set-up cancels. The harness's own thread now and then
/// allocates while a solve runs; that only ever adds, so the least of three
/// runs is the solve's, for each count.
fn per_rank_per_step(ranks: usize) -> (f64, f64) {
    let least = |steps| (0..3).map(|_| solve(ranks, steps)).reduce(Cost::least).unwrap();
    let (short, long) = (least(8), least(24));
    let per = |long: u64, short: u64| (long - short) as f64 / (16 * ranks) as f64;
    (per(long.allocations, short.allocations), per(long.bytes, short.bytes))
}

#[test]
fn allgather_allocations_per_rank_do_not_grow_with_the_rank_count() {
    let (small, small_bytes) = per_rank_per_step(16);
    let (large, large_bytes) = per_rank_per_step(128);
    // A per-part allocation would add 112 a rank a step going from 16 to
    // 128 ranks; one extra allocation at the root would add under 0.01.
    assert!(
        large <= small + 1.0,
        "{small:.2} allocations a rank a step at 16 ranks, {large:.2} at 128"
    );
    // A rank's own copy of the direction would add 8·4·(128 − 16) = 3 584
    // bytes a rank a step. The frame and the root's gather list cost a
    // rank the same at any width; what grows is mailbox queues that fill
    // deeper in a wider world (about 80 bytes at 128 ranks).
    assert!(
        large_bytes <= small_bytes + 512.0,
        "{small_bytes:.0} bytes a rank a step at 16 ranks, {large_bytes:.0} at 128"
    );
}
