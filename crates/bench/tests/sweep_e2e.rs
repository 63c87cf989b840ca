//! End-to-end acceptance tests for the capacity-planner sweep: cold →
//! warm determinism (100% cache hits, byte-identical document), dedup
//! collapse, and Pareto-frontier validity on the real grid.

#![expect(
    clippy::disallowed_methods,
    reason = "the tests make and remove their own cache directories"
)]

use redcr_bench::sweepbench::{self, SweepPreset};
use redcr_sweep::pareto;

fn temp_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("redcr_sweep_e2e_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("cache.jsonl")
}

#[test]
fn smoke_grid_cold_then_warm_is_all_hits_and_byte_identical() {
    let cache = temp_cache("warm");
    let threads = redcr_bench::worker_threads();

    let (cold_report, cold_doc) =
        sweepbench::run(SweepPreset::Smoke, &cache, threads).expect("cold run");
    assert_eq!(cold_report.stats.cache_hits, 0, "fresh cache must be all misses");
    assert!(cold_report.stats.cold_misses > 0);

    let (warm_report, warm_doc) =
        sweepbench::run(SweepPreset::Smoke, &cache, threads).expect("warm run");
    assert_eq!(
        warm_report.stats.cold_misses, 0,
        "second run must be a 100% cache hit: {:?}",
        warm_report.stats
    );
    assert_eq!(warm_report.stats.cache_hits, warm_report.stats.unique);
    assert!(warm_report.entries.iter().all(|e| e.cache_hit));
    assert_eq!(cold_doc, warm_doc, "warm rerun must render byte-identical output");

    let _ = std::fs::remove_dir_all(cache.parent().unwrap());
}

#[test]
fn smoke_grid_collapses_duplicate_submissions() {
    let cache = temp_cache("dedup");
    let (report, _) = sweepbench::run(SweepPreset::Smoke, &cache, 4).expect("run");
    assert!(
        report.stats.submitted > report.stats.unique,
        "the figure sub-grids overlap, so dedup must collapse: {:?}",
        report.stats
    );
    let collapsed: usize = report.entries.iter().map(|e| e.multiplicity).sum();
    assert_eq!(collapsed, report.stats.submitted, "multiplicities account for every point");
    let _ = std::fs::remove_dir_all(cache.parent().unwrap());
}

#[test]
fn pareto_frontier_is_valid_and_nontrivial() {
    let cache = temp_cache("pareto");
    let (report, doc) = sweepbench::run(SweepPreset::Smoke, &cache, 4).expect("run");
    let front = pareto::frontier(&report.entries);
    assert!(!front.is_empty(), "a completed grid has a frontier");

    let coords = |i: usize| {
        let r = &report.entries[i].result;
        (r.total_time_hours, r.node_hours, r.completion_rate)
    };
    let dominates = |a: usize, b: usize| {
        let ((Some(ta), Some(na), ca), (Some(tb), Some(nb), cb)) = (coords(a), coords(b)) else {
            return false;
        };
        ta <= tb && na <= nb && ca >= cb && (ta < tb || na < nb || ca > cb)
    };

    // No frontier point is dominated by any entry.
    for p in &front {
        for i in 0..report.entries.len() {
            assert!(
                !dominates(i, p.entry_index),
                "frontier point {} dominated by entry {i}",
                p.entry_index
            );
        }
    }
    // Every completed off-frontier entry is dominated by someone.
    let on_front: Vec<usize> = front.iter().map(|p| p.entry_index).collect();
    for i in 0..report.entries.len() {
        if report.entries[i].result.total_time_hours.is_none() || on_front.contains(&i) {
            continue;
        }
        assert!(
            (0..report.entries.len()).any(|j| dominates(j, i)),
            "off-frontier entry {i} is undominated"
        );
    }
    // The frontier is in the document.
    assert!(doc.contains("\"pareto\": ["));

    // Per-family frontiers: every (backend, N, MTBF, workload) family that
    // completed keeps at least one non-dominated degree, so grouping never
    // collapses heterogeneous workloads into a two-point global frontier.
    let groups = pareto::grouped_frontiers(&report.entries);
    assert!(groups.len() > 1, "smoke grid spans multiple knob families");
    for g in &groups {
        let completed = report
            .entries
            .iter()
            .filter(|e| e.spec.group_hash() == g.group)
            .any(|e| e.result.total_time_hours.is_some());
        assert_eq!(!g.points.is_empty(), completed, "group {:016x}", g.group);
        for p in &g.points {
            assert_eq!(report.entries[p.entry_index].spec.group_hash(), g.group);
        }
    }
    assert!(doc.contains("\"pareto_groups\": ["));
    let _ = std::fs::remove_dir_all(cache.parent().unwrap());
}

#[test]
fn document_shape_is_stable() {
    let cache = temp_cache("shape");
    let (report, doc) = sweepbench::run(SweepPreset::Smoke, &cache, 4).expect("run");
    assert!(doc.starts_with("{\n  \"schema\": \"redcr-sweep-grid/1\",\n"));
    assert!(doc.contains("\"preset\": \"smoke\""));
    assert!(doc.contains("\"landmarks\": {"));
    assert!(doc.contains("\"cross_1x_2x\": "));
    // One scenario line per unique entry.
    let lines = doc.lines().filter(|l| l.trim_start().starts_with("{\"hash\":\"")).count();
    assert_eq!(lines, report.entries.len());
    // Simulator and model entries both present.
    assert!(doc.contains("\"backend\":\"simulator\""));
    assert!(doc.contains("\"backend\":\"model\""));
    let _ = std::fs::remove_dir_all(cache.parent().unwrap());
}
