//! Quickstart: ask the model's optimizer for the redundancy degree and
//! checkpoint interval that suit a large job, the paper's "tuning knob".
//!
//! ```text
//! cargo run --example quickstart
//! ```

use redcr::apps::cg::CgConfig;
use redcr::core::apps::CgApp;
use redcr::core::{ExecutorConfig, ResilientExecutor};
use redcr::model::combined::CombinedConfig;
use redcr::model::optimizer::{optimal_by_cost, CostWeights, RGrid};
use redcr::model::units;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 128-hour job on 100,000 processes, 5-year node MTBF — the scale of
    // the paper's Figure 14.
    let cfg = CombinedConfig::builder()
        .virtual_processes(100_000)
        .base_time_hours(128.0)
        .node_mtbf_hours(units::hours_from_years(5.0))
        .comm_fraction(0.2)
        .checkpoint_cost_hours(units::hours_from_mins(10.0))
        .restart_cost_hours(units::hours_from_mins(30.0))
        .build()?;
    let grid = RGrid::quarter_steps();

    let plan = optimal_by_cost(&cfg, &grid, &CostWeights::time_only())?;
    let predicted = &plan.outcome;
    println!("minimizing wallclock:");
    println!("  degree      : {}x", plan.degree);
    println!("  checkpoint δ: {:.2} h", predicted.checkpoint_interval);
    println!("  expected T  : {:.1} h", predicted.total_time);
    println!("  processes   : {}", predicted.total_physical);
    println!("  node-hours  : {:.0}", predicted.node_hours);
    println!("  exp failures: {:.1}", predicted.expected_failures);
    println!();
    println!("full sweep (degree -> expected hours):");
    for (degree, time) in &plan.sweep {
        match time {
            Some(t) => println!("  {degree:>5}x  {t:8.1} h"),
            None => println!("  {degree:>5}x  diverges (job cannot finish)"),
        }
    }

    // The same job optimized for node-hours instead.
    let thrifty = optimal_by_cost(&cfg, &grid, &CostWeights::resources_only())?;
    println!();
    println!(
        "minimizing node-hours instead: {}x, {:.0} node-hours ({:.1} h wallclock)",
        thrifty.degree, thrifty.outcome.node_hours, thrifty.outcome.total_time
    );

    // Then actually *run* a pocket-sized job at the recommended shape on
    // the virtual-time executor, with the metrics plane on, and print the
    // human-readable summary.
    let app = CgApp::new(CgConfig::small(64), 10).with_step_pad(1.0);
    let config = ExecutorConfig::new(4, plan.degree)
        .node_mtbf(120.0)
        .checkpoint_interval(5.0)
        .checkpoint_cost(0.2)
        .restart_cost(1.0)
        .seed(7)
        .metrics(true);
    let report = ResilientExecutor::new(config).run(&app)?;
    println!();
    println!("a pocket-sized run at {}x on the simulator:", plan.degree);
    println!("{}", report.summarize());
    Ok(())
}
