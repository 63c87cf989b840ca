//! Calibrated experiment parameters.
//!
//! The paper does not print every input of its model plots (Figures 2,
//! 4–6, 13–14) and our substrate is a simulator, so a one-time calibration
//! pass fixed the free parameters below. Each constant records what it was
//! tuned against; `EXPERIMENTS.md` documents the resulting paper-vs-ours
//! numbers.

use redcr_apps::cg::CgConfig;
use redcr_apps::compute::ComputeModel;
use redcr_model::combined::CombinedConfig;
use redcr_model::units;
use redcr_mpi::CostModel;
use redcr_red::VoteCost;

use crate::paper::constants;

/// Table 5 runtime calibration: CG problem size for the failure-free runs.
pub const T5_PROBLEM_SIZE: usize = 2048;
/// Table 5: off-diagonals per row.
pub const T5_OFFDIAG: usize = 8;
/// Table 5: virtual ranks of the runtime experiment (scaled down from the
/// paper's 128 to keep a 9-degree sweep fast; the overhead curve is
/// rank-count-insensitive at this message/computation balance).
pub const T5_RANKS: u64 = 16;
/// Table 5: CG iterations per run.
pub const T5_ITERATIONS: u64 = 10;
/// Table 5: per-flop cost calibrated so CG shows α ≈ 0.2 at degree 1 under
/// [`CostModel::infiniband_qdr`] (measured α = 0.184 at this problem size).
pub const T5_SECS_PER_FLOP: f64 = 6e-8;

/// Redundant-copy processing cost calibrated so the failure-free overhead
/// curve matches the paper's Table 5 ratios (46→82 min, i.e. 1.00→1.78,
/// with the super-linear first step):
/// measured ≈ 1.00 1.20 1.30 1.35 1.39 1.59 1.69 1.74 1.78 against the
/// paper's 1.00 1.20 1.28 1.33 1.37 1.52 1.65 1.70 1.78.
pub fn table5_vote_cost() -> VoteCost {
    VoteCost { per_copy: 2.5e-6, per_byte: 0.67e-9 }
}

/// The CG configuration of the Table 5 runtime experiment.
pub fn table5_cg_config() -> CgConfig {
    CgConfig {
        n: T5_PROBLEM_SIZE,
        offdiag_per_row: T5_OFFDIAG,
        seed: 0xC6,
        compute: ComputeModel { secs_per_flop: T5_SECS_PER_FLOP },
    }
}

/// Communication cost model of the runtime experiments.
pub fn table5_cost_model() -> CostModel {
    CostModel::infiniband_qdr()
}

/// The combined-model configuration of the Section 6 cluster experiment
/// (Table 4 / Figures 8, 11, 12) at the given per-process MTBF (hours).
pub fn experiment_config(mtbf_hours: f64) -> CombinedConfig {
    CombinedConfig::builder()
        .virtual_processes(constants::N_PROCESSES)
        .base_time_hours(constants::BASE_TIME_MINS / 60.0)
        .node_mtbf_hours(mtbf_hours)
        .comm_fraction(constants::ALPHA)
        .checkpoint_cost_hours(units::hours_from_secs(constants::CHECKPOINT_SECS))
        .restart_cost_hours(units::hours_from_secs(constants::RESTART_SECS))
        .build()
        .expect("experiment constants are valid")
}

/// Monte-Carlo seeds per Table 4 cell.
pub const T4_SEEDS: usize = 32;

/// Tables 2–3 calibration: fixed checkpoint cost (seconds). Tuned so the
/// 100k-node row lands near the paper's 35% useful work.
pub const T23_CHECKPOINT_SECS: f64 = 180.0;
/// Tables 2–3: fixed restart cost (seconds).
pub const T23_RESTART_SECS: f64 = 550.0;

/// The combined-model configuration behind Tables 2–3.
pub fn sandia_config(nodes: u64, job_hours: f64, mtbf_years: f64) -> CombinedConfig {
    CombinedConfig::builder()
        .virtual_processes(nodes)
        .base_time_hours(job_hours)
        .node_mtbf_hours(units::hours_from_years(mtbf_years))
        .checkpoint_cost_hours(units::hours_from_secs(T23_CHECKPOINT_SECS))
        .restart_cost_hours(units::hours_from_secs(T23_RESTART_SECS))
        .build()
        .expect("sandia constants are valid")
}

/// Figures 13–14 calibration: communication fraction tuned so the model's
/// 1x/2x and 1x/3x crossovers land near the paper's 4,351 and 12,551
/// (ours: 4,445 and 11,334).
pub const F13_ALPHA: f64 = 0.24;
/// Figures 13–14: checkpoint cost, minutes.
pub const F13_CHECKPOINT_MINS: f64 = 10.0;
/// Figures 13–14: restart cost, minutes.
pub const F13_RESTART_MINS: f64 = 30.0;

/// The weak-scaling configuration of Figures 13–14 (process count is
/// swept; the value here is a placeholder).
pub fn scaling_config() -> CombinedConfig {
    CombinedConfig::builder()
        .virtual_processes(1_000)
        .base_time_hours(128.0)
        .node_mtbf_hours(units::hours_from_years(5.0))
        .comm_fraction(F13_ALPHA)
        .checkpoint_cost_hours(units::hours_from_mins(F13_CHECKPOINT_MINS))
        .restart_cost_hours(units::hours_from_mins(F13_RESTART_MINS))
        .build()
        .expect("scaling constants are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_build() {
        assert_eq!(experiment_config(12.0).n_virtual, 128);
        assert_eq!(sandia_config(100_000, 168.0, 5.0).node_mtbf, 43_800.0);
        assert_eq!(scaling_config().alpha, F13_ALPHA);
        assert!(table5_vote_cost().per_copy > 0.0);
        assert_eq!(table5_cg_config().n, T5_PROBLEM_SIZE);
    }
}
