//! Perfetto export quick-start: run a stormy resilient execution with the
//! flight recorder and metrics plane on, export the trace in Chrome
//! `trace_event` JSON, and validate the emitted document — then open it at
//! <https://ui.perfetto.dev> (or `chrome://tracing`) to see one lane per
//! physical rank, attempt and checkpoint slices, and flow arrows for every
//! matched send/receive.
//!
//! ```text
//! cargo run --release --example perfetto_export
//! ```
//!
//! Writes `target/perfetto_trace.json`; exits non-zero if the export fails
//! structural validation (wrong track count, unbalanced flows, bad JSON).

#![expect(
    clippy::disallowed_methods,
    reason = "writes the exported file from main, on no coroutine"
)]

use redcr::apps::cg::CgConfig;
use redcr::core::apps::CgApp;
use redcr::core::{ExecutorConfig, ResilientExecutor};
use redcr::mpi::CostModel;
use redcr::trace::perfetto;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The cg_resilient storm, with both observability planes on.
    let app = CgApp::new(CgConfig::small(512), 60).with_step_pad(1.0);
    let config = ExecutorConfig::new(8, 2.0)
        .node_mtbf(90.0)
        .checkpoint_interval(10.0)
        .checkpoint_cost(0.5)
        .restart_cost(2.0)
        .seed(2012)
        .comm_cost(CostModel::infiniband_qdr())
        .tracing(true)
        .metrics(true);
    let n_physical = (config.n_virtual as f64 * config.degree).ceil() as usize;

    let report = ResilientExecutor::new(config).run(&app)?;
    println!("{}", report.summarize());
    println!();

    let trace = report.trace.as_ref().ok_or("tracing was on but no trace came back")?;
    let json = perfetto::export(trace)?;
    let path = std::path::Path::new("target").join("perfetto_trace.json");
    std::fs::create_dir_all("target")?;
    std::fs::write(&path, &json)?;

    // Re-parse what we just wrote and check the structural invariants.
    let summary = perfetto::validate(&json)?;
    if summary.rank_tracks != n_physical {
        return Err(
            format!("expected {} rank tracks, found {}", n_physical, summary.rank_tracks).into()
        );
    }
    if summary.flow_pairs == 0 {
        return Err("no send/recv flow pairs in the export".into());
    }
    println!("wrote {} ({summary})", path.display());
    println!("open it at https://ui.perfetto.dev");
    Ok(())
}
