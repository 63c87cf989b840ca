//! Workload characterization: measuring the communication/computation
//! ratio `α` that parameterizes the paper's Eq. 1.

use redcr_mpi::{CostModel, Result, World};

use crate::cg::{CgConfig, CgSolver};

/// Result of an `α` measurement ([`measure_cg_alpha`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaMeasurement {
    /// Mean observed communication fraction across ranks.
    pub alpha: f64,
    /// Total virtual runtime of the probe, seconds.
    pub virtual_time: f64,
}

/// Measures the observed `α` of a CG configuration at redundancy 1 by
/// running `iterations` iterations on `ranks` ranks under the given cost
/// models.
///
/// # Errors
///
/// Propagates runtime errors.
pub fn measure_cg_alpha(
    ranks: usize,
    cfg: &CgConfig,
    cost: CostModel,
    iterations: u64,
) -> Result<AlphaMeasurement> {
    let solver = CgSolver::new(cfg.clone());
    let report = World::builder(ranks).cost_model(cost).run(move |comm| {
        let mut state = solver.init_state(comm)?;
        solver.run(comm, &mut state, iterations)?;
        Ok(())
    })?;
    Ok(AlphaMeasurement {
        alpha: report.mean_comm_fraction(),
        virtual_time: report.max_virtual_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::ComputeModel;

    #[test]
    fn alpha_decreases_with_compute_cost() {
        let mut cfg = CgConfig::small(64);
        let cost = CostModel::infiniband_qdr();
        cfg.compute = ComputeModel { secs_per_flop: 1e-11 };
        let fast = measure_cg_alpha(4, &cfg, cost, 5).unwrap();
        cfg.compute = ComputeModel { secs_per_flop: 1e-6 };
        let slow = measure_cg_alpha(4, &cfg, cost, 5).unwrap();
        assert!(fast.alpha > slow.alpha, "fast {} slow {}", fast.alpha, slow.alpha);
        assert!(slow.alpha < 0.2, "slow alpha {}", slow.alpha);
        assert!(fast.alpha > 0.9, "fast alpha {}", fast.alpha);
    }
}
