//! Ready-made [`ResilientApp`] adapters for the `redcr-apps` kernels.
//!
//! Each adapter wraps a kernel with a fixed iteration target and an
//! optional per-step compute pad (virtual seconds) that stretches the
//! runtime so failure injection and checkpoint cadence have something to
//! bite on — the same reason the paper's modified CG "was modified to run
//! longer by adding more iterations".

use redcr_apps::cg::{CgConfig, CgSolver, CgState};
use redcr_apps::ep::{EpConfig, EpKernel, EpState};
use redcr_apps::jacobi::{JacobiConfig, JacobiSolver, JacobiState};
use redcr_mpi::Communicator;

use crate::executor::ResilientApp;

/// Conjugate gradient as a resilient application.
#[derive(Debug, Clone)]
pub struct CgApp {
    solver: CgSolver,
    iterations: u64,
    pad_seconds: f64,
}

impl CgApp {
    /// Wraps a CG configuration with an iteration target.
    pub fn new(config: CgConfig, iterations: u64) -> Self {
        CgApp { solver: CgSolver::new(config), iterations, pad_seconds: 0.0 }
    }

    /// Adds `seconds` of synthetic compute per step (virtual time).
    pub fn with_step_pad(mut self, seconds: f64) -> Self {
        self.pad_seconds = seconds;
        self
    }

    /// The wrapped solver.
    pub fn solver(&self) -> &CgSolver {
        &self.solver
    }
}

impl ResilientApp for CgApp {
    type State = CgState;

    fn init<C: Communicator>(&self, comm: &C) -> redcr_mpi::Result<CgState> {
        self.solver.init_state(comm)
    }

    fn step<C: Communicator>(&self, comm: &C, state: &mut CgState) -> redcr_mpi::Result<()> {
        if self.pad_seconds > 0.0 {
            comm.compute(self.pad_seconds)?;
        }
        self.solver.step(comm, state)?;
        Ok(())
    }

    fn is_done(&self, state: &CgState) -> bool {
        state.iteration >= self.iterations
    }
}

/// The 1-D Jacobi sweep as a resilient application.
#[derive(Debug, Clone)]
pub struct JacobiApp {
    solver: JacobiSolver,
    iterations: u64,
    pad_seconds: f64,
}

impl JacobiApp {
    /// Wraps a Jacobi configuration with a sweep target.
    pub fn new(config: JacobiConfig, iterations: u64) -> Self {
        JacobiApp { solver: JacobiSolver::new(config), iterations, pad_seconds: 0.0 }
    }

    /// Adds `seconds` of synthetic compute per sweep (virtual time).
    pub fn with_step_pad(mut self, seconds: f64) -> Self {
        self.pad_seconds = seconds;
        self
    }
}

impl ResilientApp for JacobiApp {
    type State = JacobiState;

    fn init<C: Communicator>(&self, _comm: &C) -> redcr_mpi::Result<JacobiState> {
        self.solver.config().validate()?;
        Ok(self.solver.init_state())
    }

    fn step<C: Communicator>(&self, comm: &C, state: &mut JacobiState) -> redcr_mpi::Result<()> {
        if self.pad_seconds > 0.0 {
            comm.compute(self.pad_seconds)?;
        }
        self.solver.step(comm, state)?;
        Ok(())
    }

    fn is_done(&self, state: &JacobiState) -> bool {
        state.iteration >= self.iterations
    }
}

/// The embarrassingly parallel kernel as a resilient application.
#[derive(Debug, Clone)]
pub struct EpApp {
    kernel: EpKernel,
    batches: u64,
    pad_seconds: f64,
}

impl EpApp {
    /// Wraps an EP configuration with a batch target.
    pub fn new(config: EpConfig, batches: u64) -> Self {
        EpApp { kernel: EpKernel::new(config), batches, pad_seconds: 0.0 }
    }

    /// Adds `seconds` of synthetic compute per batch (virtual time).
    pub fn with_step_pad(mut self, seconds: f64) -> Self {
        self.pad_seconds = seconds;
        self
    }

    /// The wrapped kernel (e.g. for [`EpKernel::estimate`]).
    pub fn kernel(&self) -> &EpKernel {
        &self.kernel
    }
}

impl ResilientApp for EpApp {
    type State = EpState;

    fn init<C: Communicator>(&self, _comm: &C) -> redcr_mpi::Result<EpState> {
        Ok(self.kernel.init_state())
    }

    fn step<C: Communicator>(&self, comm: &C, state: &mut EpState) -> redcr_mpi::Result<()> {
        if self.pad_seconds > 0.0 {
            comm.compute(self.pad_seconds)?;
        }
        self.kernel.step(comm, state)
    }

    fn is_done(&self, state: &EpState) -> bool {
        state.batch >= self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutorConfig;
    use crate::executor::ResilientExecutor;
    use crate::CoreError;
    use redcr_apps::compute::ComputeModel;
    use redcr_mpi::MpiError;

    #[test]
    fn cg_adapter_runs_under_failures() {
        let app = CgApp::new(CgConfig::small(24), 20).with_step_pad(1.0);
        let cfg = ExecutorConfig::new(3, 2.0)
            .node_mtbf(40.0)
            .checkpoint_interval(5.0)
            .checkpoint_cost(0.2)
            .restart_cost(0.5)
            .seed(4);
        let report = ResilientExecutor::new(cfg).run(&app).unwrap();
        for s in &report.final_states {
            assert_eq!(s.iteration, 20);
        }
    }

    #[test]
    fn jacobi_adapter_runs() {
        let app = JacobiApp::new(JacobiConfig::small(6), 15).with_step_pad(0.5);
        let report = ResilientExecutor::new(ExecutorConfig::new(2, 1.0)).run(&app).unwrap();
        assert_eq!(report.final_states[0].iteration, 15);
    }

    #[test]
    fn jacobi_adapter_refuses_ranks_with_no_points() {
        let app = JacobiApp::new(JacobiConfig::small(0), 15);
        let err = ResilientExecutor::new(ExecutorConfig::new(2, 2.0)).run(&app).unwrap_err();
        let CoreError::Runtime(MpiError::App { what }) = &err else {
            panic!("expected an application error, got: {err}");
        };
        assert!(what.contains("points_per_rank = 0"), "{what}");
    }

    #[test]
    fn ep_adapter_estimates_pi_despite_restarts() {
        let app = EpApp::new(
            EpConfig { pairs_per_batch: 5_000, seed: 1, compute: ComputeModel::zero() },
            10,
        )
        .with_step_pad(1.0);
        let cfg = ExecutorConfig::new(4, 2.0)
            .node_mtbf(30.0)
            .checkpoint_interval(3.0)
            .checkpoint_cost(0.1)
            .restart_cost(0.5)
            .seed(8);
        let report = ResilientExecutor::new(cfg).run(&app).unwrap();
        let s = &report.final_states[0];
        let pi = 4.0 * s.inside as f64 / s.total as f64;
        // Single-rank slice of the estimate is still a π estimate.
        assert!((pi - std::f64::consts::PI).abs() < 0.1, "pi {pi}");
    }
}
