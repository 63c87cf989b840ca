//! One traced + profiled `cg_r3` run (CG n=8 r=3, 120 iterations,
//! failure-free), written as three sidecars under `results/` (honouring
//! `REDCR_RESULTS_DIR`):
//!
//! * `profile_cg_r3.json` — the `redcr-prof/2` span/counter sidecar;
//! * `profile_cg_r3.folded` — folded stacks, one `path count_ns` line per
//!   frame (`inferno-flamegraph` input);
//! * `profile_cg_r3.perfetto.json` — the run's virtual-time trace with the
//!   profiler's wall-clock counter tracks merged in as `C` events.
//!
//! ```text
//! REDCR_WORKERS=2 cargo run --release -p redcr-bench --bin profile
//! ```
//!
//! It also cross-checks the dual-clock contract on the spot: the
//! virtual-time critical path rebuilt from the trace must hit the report's
//! `total_virtual_time` bit for bit. The run panics when it does not — CI
//! runs this, loud failure is the point. Host speed is measured by the
//! benchmark (`BENCHMARK.json`), not here.

use redcr_apps::cg::CgConfig;
use redcr_bench::output::write_result;
use redcr_core::apps::CgApp;
use redcr_core::{ExecutorConfig, ResilientExecutor};
use redcr_mpi::trace::{perfetto, Analysis, CounterTrack, CriticalPath};

const SCENARIO: &str = "cg_r3";

fn main() {
    let cfg = ExecutorConfig::new(8, 3.0)
        .node_mtbf(1e12)
        .checkpoint_interval(10.0)
        .checkpoint_cost(0.5)
        .restart_cost(2.0)
        .seed(2012)
        .tracing(true)
        .profiling(true);
    let app = CgApp::new(CgConfig::small(256), 120);
    let report = ResilientExecutor::new(cfg).run(&app).expect("profiled cg_r3 run");
    let prof = report.profile.as_ref().expect("profiling was enabled");
    let trace = report.trace.as_ref().expect("tracing was enabled");

    let analysis = Analysis::analyze(trace).expect("traced run analyzes");
    let path = CriticalPath::analyze(&analysis);
    assert_eq!(
        path.total_virtual_time.to_bits(),
        report.total_virtual_time.to_bits(),
        "critical path must replay the report's total bit-exactly"
    );

    let counters: Vec<CounterTrack> = prof
        .counter_tracks()
        .into_iter()
        .map(|c| CounterTrack { scope: c.scope, name: c.name, samples: c.samples })
        .collect();
    let perfetto =
        perfetto::export_with_counters(trace, &counters).expect("profiled trace exports");

    let base = format!("profile_{SCENARIO}");
    for (ext, content) in
        [("json", prof.to_json(SCENARIO)), ("folded", prof.folded()), ("perfetto.json", perfetto)]
    {
        println!("wrote {}", write_result(&format!("{base}.{ext}"), &content).display());
    }
    println!("profile: {} | {}", prof.park_summary(), prof.sched_summary());
}
