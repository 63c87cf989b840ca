//! A 1-D Jacobi sweep (Laplace relaxation) with halo exchange — a
//! neighbour-communication workload with a lower communication fraction
//! than CG.

use redcr_mpi::collectives::ReduceOp;
use redcr_mpi::{Communicator, Rank, Result, Tag};

use crate::compute::ComputeModel;

/// Halo-exchange tags.
const HALO_LEFT: u64 = 100;
const HALO_RIGHT: u64 = 101;

/// Configuration of a Jacobi run.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiConfig {
    /// Grid points per rank (interior).
    pub points_per_rank: usize,
    /// Boundary values at the global left/right ends.
    pub left_boundary: f64,
    /// Right end boundary value.
    pub right_boundary: f64,
    /// Computation cost model.
    pub compute: ComputeModel,
}

impl JacobiConfig {
    /// A small functional-test configuration.
    pub fn small(points_per_rank: usize) -> Self {
        JacobiConfig {
            points_per_rank,
            left_boundary: 0.0,
            right_boundary: 1.0,
            compute: ComputeModel::zero(),
        }
    }
}

/// Checkpointable Jacobi state (one rank's grid slice).
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiState {
    /// Completed sweeps.
    pub iteration: u64,
    /// The rank's interior points.
    pub u: Vec<f64>,
}
redcr_ckpt::codec_struct!(JacobiState { iteration, u });

/// The Jacobi solver.
#[derive(Debug, Clone)]
pub struct JacobiSolver {
    config: JacobiConfig,
}

impl JacobiSolver {
    /// Creates a solver.
    pub fn new(config: JacobiConfig) -> Self {
        JacobiSolver { config }
    }

    /// The configuration.
    pub fn config(&self) -> &JacobiConfig {
        &self.config
    }

    /// Initial state: all zeros.
    pub fn init_state(&self) -> JacobiState {
        JacobiState { iteration: 0, u: vec![0.0; self.config.points_per_rank] }
    }

    /// One sweep: exchange halos with neighbours, relax every interior
    /// point, and return the global max update (via allreduce).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (abort).
    pub fn step<C: Communicator>(&self, comm: &C, state: &mut JacobiState) -> Result<f64> {
        let me = comm.rank().index();
        let n = comm.size();
        let local = &state.u;
        let m = local.len();

        // Exchange halo values (eager sends never deadlock).
        if me > 0 {
            comm.send_f64s(Rank::new((me - 1) as u32), Tag::new(HALO_LEFT), &[local[0]])?;
        }
        if me + 1 < n {
            comm.send_f64s(Rank::new((me + 1) as u32), Tag::new(HALO_RIGHT), &[local[m - 1]])?;
        }
        let left = if me > 0 {
            comm.recv_f64s(Rank::new((me - 1) as u32).into(), Tag::new(HALO_RIGHT).into())?.0[0]
        } else {
            self.config.left_boundary
        };
        let right = if me + 1 < n {
            comm.recv_f64s(Rank::new((me + 1) as u32).into(), Tag::new(HALO_LEFT).into())?.0[0]
        } else {
            self.config.right_boundary
        };

        // Relax.
        let mut next = Vec::with_capacity(m);
        let mut max_delta = 0.0f64;
        for i in 0..m {
            let l = if i == 0 { left } else { local[i - 1] };
            let r = if i + 1 == m { right } else { local[i + 1] };
            let v = 0.5 * (l + r);
            max_delta = max_delta.max((v - local[i]).abs());
            next.push(v);
        }
        comm.compute(self.config.compute.cost(3 * m as u64))?;
        state.u = next;
        state.iteration += 1;

        let global = comm.allreduce_f64(&[max_delta], ReduceOp::Max)?;
        Ok(global[0])
    }

    /// Runs `iterations` sweeps.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (abort).
    pub fn run<C: Communicator>(
        &self,
        comm: &C,
        state: &mut JacobiState,
        iterations: u64,
    ) -> Result<f64> {
        let mut delta = f64::INFINITY;
        for _ in 0..iterations {
            delta = self.step(comm, state)?;
        }
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcr_mpi::{CostModel, World};

    #[test]
    fn converges_to_linear_profile() {
        // Laplace in 1-D with boundaries 0 and 1 converges to a straight
        // line.
        let solver = JacobiSolver::new(JacobiConfig::small(8));
        let report = World::builder(4)
            .cost_model(CostModel::zero())
            .run(|comm| {
                let mut state = solver.init_state();
                let delta = solver.run(comm, &mut state, 3000)?;
                assert!(delta < 1e-8, "not converged: {delta}");
                Ok(state.u)
            })
            .unwrap();
        let blocks = report.into_results().unwrap();
        let all: Vec<f64> = blocks.into_iter().flatten().collect();
        let total = all.len();
        for (i, v) in all.iter().enumerate() {
            let expect = (i + 1) as f64 / (total + 1) as f64;
            assert!((v - expect).abs() < 1e-4, "point {i}: {v} vs {expect}");
        }
    }

    #[test]
    fn deltas_monotumble_toward_zero() {
        let solver = JacobiSolver::new(JacobiConfig::small(16));
        World::builder(2)
            .cost_model(CostModel::zero())
            .run(|comm| {
                let mut state = solver.init_state();
                let d1 = solver.run(comm, &mut state, 10)?;
                let d2 = solver.run(comm, &mut state, 100)?;
                assert!(d2 < d1);
                Ok(())
            })
            .unwrap()
            .into_results()
            .unwrap();
    }

    #[test]
    fn state_serializable() {
        let solver = JacobiSolver::new(JacobiConfig::small(4));
        let state = solver.init_state();
        let bytes = redcr_ckpt::to_bytes(&state).unwrap();
        let back: JacobiState = redcr_ckpt::from_bytes(&bytes).unwrap();
        assert_eq!(back, state);
    }
}
