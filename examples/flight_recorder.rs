//! Flight recorder quick-start: run a stormy resilient execution with
//! tracing enabled, export the trace as JSONL, parse it back and replay it
//! through the analyzer — asserting that the derived totals match the
//! executor's own report exactly.
//!
//! ```text
//! cargo run --release --example flight_recorder
//! ```
//!
//! Writes `target/flight_recorder.jsonl`; exits non-zero if the trace is
//! empty, fails to parse, or disagrees with the report.

#![expect(
    clippy::disallowed_methods,
    reason = "writes the exported file from main, on no coroutine"
)]

use redcr::apps::cg::CgConfig;
use redcr::core::apps::CgApp;
use redcr::core::{ExecutorConfig, ResilientExecutor};
use redcr::mpi::CostModel;
use redcr::trace::{Analysis, Trace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Same stack as the cg_resilient example, with the recorder switched
    // on: 8 virtual processes at 2x, harsh MTBF, regular checkpoints.
    let app = CgApp::new(CgConfig::small(512), 60).with_step_pad(1.0);
    let config = ExecutorConfig::new(8, 2.0)
        .node_mtbf(90.0)
        .checkpoint_interval(10.0)
        .checkpoint_cost(0.5)
        .restart_cost(2.0)
        .seed(2012)
        .comm_cost(CostModel::infiniband_qdr())
        .tracing(true);

    let report = ResilientExecutor::new(config).run(&app)?;
    let trace = report.trace.as_ref().ok_or("tracing was enabled but no trace came back")?;
    if trace.is_empty() {
        return Err("flight recorder produced an empty trace".into());
    }

    // Export, re-parse, replay. The round trip is lossless (shortest
    // round-trip float formatting), so the re-parsed trace derives the
    // same totals.
    let jsonl = trace.to_jsonl();
    let path = std::path::Path::new("target").join("flight_recorder.jsonl");
    std::fs::create_dir_all("target")?;
    std::fs::write(&path, &jsonl)?;
    let parsed = Trace::from_jsonl(&jsonl)?;
    if parsed.len() != trace.len() {
        return Err(format!("round trip lost events: {} -> {}", trace.len(), parsed.len()).into());
    }

    let analysis = Analysis::analyze(&parsed)?;
    let totals = analysis.totals();
    if totals.attempts != report.attempts
        || totals.failures != report.failures
        || totals.masked_failures != report.masked_failures
        || totals.checkpoints_committed != report.checkpoints_committed
        || totals.degraded_sphere_seconds.to_bits() != report.degraded_sphere_seconds.to_bits()
    {
        return Err(format!("trace totals diverge from the report: {totals:?} vs {report}").into());
    }

    println!("{report}");
    println!();
    println!("wrote {} events to {}", parsed.len(), path.display());
    println!("analyzer agrees with the report exactly: {totals:?}");
    println!();
    for a in &analysis.attempts {
        let alpha = if a.alphas.is_empty() {
            0.0
        } else {
            a.alphas.iter().map(|&(_, x)| x).sum::<f64>() / a.alphas.len() as f64
        };
        println!(
            "attempt {:>2}  [{:>8.2}, {:>8.2}]s  {}  ckpts {:?}  masked {}  \
             degraded {:>7.2}s  lost {:>6.2}s  mean alpha {:.2e}",
            a.attempt,
            a.start,
            a.end,
            if a.completed { "completed" } else { "restarted" },
            a.committed_seqs,
            a.masked,
            a.degraded_seconds,
            a.lost_work,
            alpha,
        );
    }
    Ok(())
}
