//! Distributed conjugate gradient — the paper's experimental workload.
//!
//! Solves `A·x = b` for a random sparse SPD matrix with a row-block
//! partition: every rank owns a contiguous block of rows and the matching
//! slices of the iteration vectors. Each iteration performs
//!
//! 1. an **allgather** of the search-direction blocks (the irregular
//!    long-distance exchange NPB CG is known for),
//! 2. a local sparse matvec over the owned rows,
//! 3. two scalar **allreduces** for the dot products.
//!
//! Like the paper's modified CG, the iteration count is fixed (the
//! benchmark repeats work to run long enough to attract failures) rather
//! than residual-driven — but the residual is tracked and must shrink.
//!
//! [`CgState`] is exactly what a checkpoint saves — its `codec_struct!`
//! line is its stored layout — and resuming from a restored state
//! continues the solve identically.

use redcr_mpi::collectives::ReduceOp;
use redcr_mpi::{datatype, Communicator, Result};

use crate::compute::ComputeModel;
use crate::sparse::CsrMatrix;

/// Configuration of a CG run.
#[derive(Debug, Clone, PartialEq)]
pub struct CgConfig {
    /// Global problem dimension.
    pub n: usize,
    /// Approximate off-diagonal entries per row of the random SPD matrix.
    pub offdiag_per_row: usize,
    /// Matrix generator seed (all ranks/replicas must agree).
    pub seed: u64,
    /// Computation cost model.
    pub compute: ComputeModel,
}

impl CgConfig {
    /// A small functional-test configuration.
    pub fn small(n: usize) -> Self {
        CgConfig { n, offdiag_per_row: 4, seed: 0xC6, compute: ComputeModel::zero() }
    }
}

/// The solver: owns the (replicated, deterministic) matrix and partition.
#[derive(Debug, Clone)]
pub struct CgSolver {
    config: CgConfig,
    matrix: CsrMatrix,
}

/// The iteration state — what a checkpoint captures.
#[derive(Debug, Clone, PartialEq)]
pub struct CgState {
    /// Completed iterations.
    pub iteration: u64,
    /// Local block of the solution vector `x`.
    pub x: Vec<f64>,
    /// Local block of the residual `r`.
    pub r: Vec<f64>,
    /// Local block of the search direction `p`.
    pub p: Vec<f64>,
    /// Global `rᵀr` from the previous iteration.
    pub rho: f64,
}
redcr_ckpt::codec_struct!(CgState { iteration, x, r, p, rho });

impl CgState {
    /// The current residual norm `‖r‖₂ = √rho`.
    pub fn residual_norm(&self) -> f64 {
        self.rho.sqrt()
    }
}

/// Row range `[lo, hi)` owned by `rank` of `size` for dimension `n`.
pub fn block_range(n: usize, rank: usize, size: usize) -> (usize, usize) {
    let base = n / size;
    let extra = n % size;
    let lo = rank * base + rank.min(extra);
    let hi = lo + base + usize::from(rank < extra);
    (lo, hi)
}

impl CgSolver {
    /// Builds the solver (every rank constructs the same matrix
    /// deterministically from the seed).
    pub fn new(config: CgConfig) -> Self {
        let matrix = CsrMatrix::random_spd(config.n, config.offdiag_per_row, config.seed);
        CgSolver { config, matrix }
    }

    /// The configuration.
    pub fn config(&self) -> &CgConfig {
        &self.config
    }

    /// The (global) system matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// Initializes the CG state for this rank: `x = 0`, `r = p = b` with
    /// `b = (1, 1, …, 1)`. Performs one allreduce to establish `rho`.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (abort).
    pub fn init_state<C: Communicator>(&self, comm: &C) -> Result<CgState> {
        let (lo, hi) = block_range(self.config.n, comm.rank().index(), comm.size());
        let local = hi - lo;
        let b = vec![1.0; local];
        let local_dot: f64 = b.iter().map(|v| v * v).sum();
        let rho = comm.allreduce_f64(&[local_dot], ReduceOp::Sum)?[0];
        Ok(CgState { iteration: 0, x: vec![0.0; local], r: b.clone(), p: b, rho })
    }

    /// Performs one CG iteration, advancing both the numerical state and
    /// the rank's virtual clock (compute + communication). Returns the new
    /// residual norm.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (abort).
    pub fn step<C: Communicator>(&self, comm: &C, state: &mut CgState) -> Result<f64> {
        let n = self.config.n;
        let size = comm.size();
        let me = comm.rank().index();
        let (lo, hi) = block_range(n, me, size);
        debug_assert_eq!(state.p.len(), hi - lo);

        // 1. Gather the full search direction p (irregular exchange).
        let p_full = comm.allgather(datatype::encode(&state.p))?;

        // 2. Local sparse matvec q = A p over the owned rows, read in place
        //    from the broadcast frame. No rank keeps a decoded copy: with
        //    every rank of a world on one heap, freeing n copies at once each
        //    step let the allocator trim the heap top and fault it back in.
        let (q, flops) = self.matrix.matvec_block(p_full.words()?, lo, hi);
        comm.compute(self.config.compute.cost(flops))?;

        // 3. alpha = rho / (p q).
        let local_pq: f64 = state.p.iter().zip(&q).map(|(a, b)| a * b).sum();
        let pq = comm.allreduce_f64(&[local_pq], ReduceOp::Sum)?[0];
        let alpha = state.rho / pq;

        // 4. Update x, r locally.
        for ((x, r), (p, q)) in
            state.x.iter_mut().zip(state.r.iter_mut()).zip(state.p.iter().zip(&q))
        {
            *x += alpha * p;
            *r -= alpha * q;
        }
        comm.compute(self.config.compute.cost(4 * (hi - lo) as u64))?;

        // 5. rho' = r r; beta; p = r + beta p.
        let local_rr: f64 = state.r.iter().map(|v| v * v).sum();
        let rho_new = comm.allreduce_f64(&[local_rr], ReduceOp::Sum)?[0];
        let beta = rho_new / state.rho;
        for (p, r) in state.p.iter_mut().zip(&state.r) {
            *p = r + beta * *p;
        }
        comm.compute(self.config.compute.cost(4 * (hi - lo) as u64))?;

        state.rho = rho_new;
        state.iteration += 1;
        Ok(rho_new.sqrt())
    }

    /// Runs `iterations` steps from `state` (used directly by tests and by
    /// the resilient executor between checkpoints).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (abort).
    pub fn run<C: Communicator>(
        &self,
        comm: &C,
        state: &mut CgState,
        iterations: u64,
    ) -> Result<f64> {
        let mut res = state.residual_norm();
        for _ in 0..iterations {
            res = self.step(comm, state)?;
        }
        Ok(res)
    }

    /// Verifies `A·x ≈ b` for the assembled solution (gathers `x`);
    /// returns the max abs error on every rank.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (abort).
    pub fn verify<C: Communicator>(&self, comm: &C, state: &CgState) -> Result<f64> {
        let x_full = comm.allgather(datatype::encode(&state.x))?;
        let (ax, _) = self.matrix.matvec_block(x_full.words()?, 0, self.config.n);
        let err = ax.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max);
        Ok(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcr_mpi::{CostModel, World};

    #[test]
    fn block_range_partitions_exactly() {
        for n in [1usize, 7, 64, 100] {
            for size in [1usize, 2, 3, 7, 16] {
                let mut covered = 0;
                for rank in 0..size {
                    let (lo, hi) = block_range(n, rank, size);
                    assert_eq!(lo, covered, "n={n} size={size} rank={rank}");
                    covered = hi;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn cg_converges_single_rank() {
        let solver = CgSolver::new(CgConfig::small(50));
        World::builder(1)
            .cost_model(CostModel::zero())
            .run(|comm| {
                let mut state = solver.init_state(comm)?;
                let initial = state.residual_norm();
                let final_res = solver.run(comm, &mut state, 30)?;
                assert!(final_res < initial * 1e-6, "res {final_res} vs {initial}");
                let err = solver.verify(comm, &state)?;
                assert!(err < 1e-6, "solution error {err}");
                Ok(())
            })
            .unwrap()
            .into_results()
            .unwrap();
    }

    #[test]
    fn cg_distributed_matches_single_rank() {
        let cfg = CgConfig::small(60);
        let run_with = |ranks: usize| {
            let solver = CgSolver::new(cfg.clone());
            World::builder(ranks)
                .cost_model(CostModel::zero())
                .run(move |comm| {
                    let mut state = solver.init_state(comm)?;
                    solver.run(comm, &mut state, 15)?;
                    Ok((state.rho, state.x))
                })
                .unwrap()
                .into_results()
                .unwrap()
        };
        let single = run_with(1);
        let multi = run_with(4);
        // Same rho (deterministic reduction trees differ between world
        // sizes, so allow tiny float drift).
        let rel = (single[0].0 - multi[0].0).abs() / single[0].0.abs().max(1e-300);
        assert!(rel < 1e-9, "rho diverged: {} vs {}", single[0].0, multi[0].0);
        // Concatenated solution blocks match.
        let x_multi: Vec<f64> = multi.iter().flat_map(|(_, x)| x.iter().copied()).collect();
        for (a, b) in single[0].1.iter().zip(&x_multi) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn state_round_trips_through_checkpoint_codec() {
        let solver = CgSolver::new(CgConfig::small(40));
        World::builder(2)
            .cost_model(CostModel::zero())
            .run(|comm| {
                let mut state = solver.init_state(comm)?;
                solver.run(comm, &mut state, 5)?;
                let bytes = redcr_ckpt::to_bytes(&state).expect("serialize");
                let restored: CgState = redcr_ckpt::from_bytes(&bytes).expect("deserialize");
                assert_eq!(restored, state);
                // Continue from the restored state: identical trajectory.
                let mut a = state.clone();
                let mut b = restored;
                solver.step(comm, &mut a)?;
                solver.step(comm, &mut b)?;
                assert_eq!(a, b);
                Ok(())
            })
            .unwrap()
            .into_results()
            .unwrap();
    }

    #[test]
    fn virtual_time_advances_with_compute_model() {
        let mut cfg = CgConfig::small(64);
        cfg.compute = ComputeModel { secs_per_flop: 1e-6 };
        let solver = CgSolver::new(cfg);
        let report = World::builder(2)
            .cost_model(CostModel::zero())
            .run(|comm| {
                let mut state = solver.init_state(comm)?;
                solver.run(comm, &mut state, 3)?;
                Ok(())
            })
            .unwrap();
        assert!(report.max_virtual_time > 0.0);
    }
}
