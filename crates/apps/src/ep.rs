//! An embarrassingly parallel kernel (NPB "EP"-style): per-rank
//! pseudo-random accumulation with a single final reduction. Its
//! communication fraction is essentially zero, the opposite end of the `α`
//! spectrum from CG.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use redcr_mpi::collectives::ReduceOp;
use redcr_mpi::{Communicator, Result};

use crate::compute::ComputeModel;

/// Configuration of an EP run.
#[derive(Debug, Clone, PartialEq)]
pub struct EpConfig {
    /// Random pairs evaluated per rank per batch.
    pub pairs_per_batch: u64,
    /// Base RNG seed (combined with the rank).
    pub seed: u64,
    /// Computation cost model.
    pub compute: ComputeModel,
}

/// Checkpointable EP state.
#[derive(Debug, Clone, PartialEq)]
pub struct EpState {
    /// Completed batches.
    pub batch: u64,
    /// Count of points inside the unit circle so far (Monte-Carlo π).
    pub inside: u64,
    /// Total points so far.
    pub total: u64,
}
redcr_ckpt::codec_struct!(EpState { batch, inside, total });

/// The EP kernel: Monte-Carlo estimation of π, one batch at a time.
#[derive(Debug, Clone)]
pub struct EpKernel {
    config: EpConfig,
}

impl EpKernel {
    /// Creates the kernel.
    pub fn new(config: EpConfig) -> Self {
        EpKernel { config }
    }

    /// Fresh state.
    pub fn init_state(&self) -> EpState {
        EpState { batch: 0, inside: 0, total: 0 }
    }

    /// Runs one batch of local random evaluation (no communication).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (abort).
    pub fn step<C: Communicator>(&self, comm: &C, state: &mut EpState) -> Result<()> {
        // Seed derived from (seed, rank, batch): deterministic and
        // replica-identical, yet fresh per batch.
        let seed = self
            .config
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(comm.rank().as_u32() as u64)
            .wrapping_add(state.batch << 32);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inside = 0u64;
        for _ in 0..self.config.pairs_per_batch {
            let x: f64 = rng.gen();
            let y: f64 = rng.gen();
            if x * x + y * y <= 1.0 {
                inside += 1;
            }
        }
        comm.compute(self.config.compute.cost(4 * self.config.pairs_per_batch))?;
        state.inside += inside;
        state.total += self.config.pairs_per_batch;
        state.batch += 1;
        Ok(())
    }

    /// Reduces the global π estimate (one collective).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (abort).
    pub fn estimate<C: Communicator>(&self, comm: &C, state: &EpState) -> Result<f64> {
        let sums = comm.allreduce_f64(&[state.inside as f64, state.total as f64], ReduceOp::Sum)?;
        Ok(4.0 * sums[0] / sums[1].max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcr_mpi::{CostModel, World};

    fn config() -> EpConfig {
        EpConfig { pairs_per_batch: 20_000, seed: 7, compute: ComputeModel::zero() }
    }

    #[test]
    fn estimates_pi() {
        let kernel = EpKernel::new(config());
        let report = World::builder(4)
            .cost_model(CostModel::zero())
            .run(|comm| {
                let mut state = kernel.init_state();
                for _ in 0..5 {
                    kernel.step(comm, &mut state)?;
                }
                kernel.estimate(comm, &state)
            })
            .unwrap();
        for pi in report.into_results().unwrap() {
            assert!((pi - std::f64::consts::PI).abs() < 0.02, "pi estimate {pi}");
        }
    }

    #[test]
    fn batches_are_deterministic_but_distinct() {
        let kernel = EpKernel::new(config());
        World::builder(1)
            .cost_model(CostModel::zero())
            .run(|comm| {
                let mut a = kernel.init_state();
                kernel.step(comm, &mut a)?;
                let first = a.inside;
                kernel.step(comm, &mut a)?;
                let second = a.inside - first;
                assert_ne!(first, second, "independent batches");
                // Re-running batch 0 reproduces it exactly.
                let mut b = kernel.init_state();
                kernel.step(comm, &mut b)?;
                assert_eq!(b.inside, first);
                Ok(())
            })
            .unwrap()
            .into_results()
            .unwrap();
    }

    #[test]
    fn state_serializable() {
        let s = EpState { batch: 3, inside: 100, total: 400 };
        let bytes = redcr_ckpt::to_bytes(&s).unwrap();
        let back: EpState = redcr_ckpt::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
    }
}
