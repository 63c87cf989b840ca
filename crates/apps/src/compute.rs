//! Computation cost model: converts floating-point work into virtual time.

/// Converts flop counts into virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Seconds per floating-point operation (1 / sustained flop rate).
    pub secs_per_flop: f64,
}

impl ComputeModel {
    /// A 2010s-era Opteron-like core: ~2 Gflop/s sustained on sparse
    /// kernels.
    pub fn opteron_core() -> Self {
        ComputeModel { secs_per_flop: 0.5e-9 }
    }

    /// Zero-cost computation (functional tests).
    pub fn zero() -> Self {
        ComputeModel { secs_per_flop: 0.0 }
    }

    /// Virtual seconds for `flops` floating-point operations.
    pub fn cost(&self, flops: u64) -> f64 {
        flops as f64 * self.secs_per_flop
    }
}

impl Default for ComputeModel {
    fn default() -> Self {
        Self::opteron_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_scales_linearly() {
        let m = ComputeModel { secs_per_flop: 1e-9 };
        assert_eq!(m.cost(0), 0.0);
        assert!((m.cost(2_000_000_000) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_opteron() {
        assert_eq!(ComputeModel::default(), ComputeModel::opteron_core());
    }
}
