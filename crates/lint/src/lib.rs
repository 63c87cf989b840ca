//! `redcr-lint` (`detlint`): a dependency-free determinism & concurrency
//! static-analysis pass enforcing the workspace's virtual-time contract.
//!
//! Everything this reproduction claims — bit-identical `ExecutionReport`s,
//! the trace-FNV determinism gate, measured-vs-model validation — rests on
//! one invariant: no wall-clock time, no unordered iteration, and no
//! unseeded randomness may leak into the virtual-time domain. The
//! determinism gate catches a drift *after* it ships; `detlint` catches
//! the hazard *patterns* statically, before any test runs.
//!
//! # Rules
//!
//! | id | domain        | pattern |
//! |----|---------------|---------|
//! | R1 | hot + virtual | `std::time::Instant` / `SystemTime` (wall clock) |
//! | R2 | hot + virtual | `std::collections::HashMap` / `HashSet` (RandomState iteration order) |
//! | R3 | hot + virtual | `rand::thread_rng` / `rand::random` / `RandomState` / `from_entropy` (unseeded entropy) |
//! | R4 | hot only      | `.unwrap()` / `.expect()` / `panic!`-family in rank-thread paths |
//! | R5 | hot + virtual | lock-order cycles in the inter-crate lock graph |
//! | R6 | hot + virtual | `Ordering::Relaxed` atomics (advisory) |
//! | R7 | hot + virtual | park/yield transitively reachable while a lock guard is live |
//! | R8 | hot + virtual | OS-blocking calls reachable from a coroutine root |
//! | R9 | hot + virtual | per-coroutine-root stack bound over `[stack_budget]` / recursion |
//! | R10| hot + virtual | `loop`/`while` in coroutine code with no yield/park/recv on any path |
//!
//! R1–R4 and R6 are per-file token scans. R5 and R7–R10 are
//! interprocedural: hot + virtual files are parsed into a lightweight AST
//! (`parser`), resolved into a whole-workspace call graph rooted at the
//! coroutine entry points, and analyzed in `callgraph`. The graph and
//! the per-root stack bounds are exported as a JSONL artifact.
//!
//! Domains are assigned per crate in `detlint.toml`. Suppress a finding
//! with `// detlint::allow(<rule>, reason = "…")` on the same or the
//! preceding line; the reason is mandatory — an allow without one
//! suppresses nothing and is reported as malformed. Allows naming a rule
//! id outside the registry ([`rules::RULES`]) fail the run outright.

mod callgraph;
mod config;
mod lexer;
mod lockorder;
mod parser;
mod report;
mod rules;

pub use config::{Config, Domain};
pub use report::{BadSuppression, CallEdge, CallGraph, LockEdge, Report, RootBound, Violation};
pub use rules::{RuleInfo, RULES};

use std::path::{Path, PathBuf};

/// Lints a whole workspace rooted at `root` (the directory containing
/// `detlint.toml`).
///
/// # Errors
///
/// Returns a message for config or I/O failures. Individual unreadable
/// files abort the run — a lint that silently skips files is worse than
/// one that fails loudly.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let cfg = Config::load(&root.join("detlint.toml"))?;
    lint_workspace_with(root, &cfg)
}

/// Like [`lint_workspace`], with an explicit config.
///
/// # Errors
///
/// See [`lint_workspace`].
pub fn lint_workspace_with(root: &Path, cfg: &Config) -> Result<Report, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &cfg.exclude, &mut files)?;
    files.sort();

    let mut report = Report::default();
    let mut lock_seqs = Vec::new();
    let mut ws = parser::Workspace::default();
    // (rel, suppressions, report_health): suppressions apply everywhere
    // they lex, but their *health* (stale/malformed/unknown) is only
    // reported where rules fire — in tooling/test files every
    // allow-shaped comment (including the linter's own docs describing
    // the syntax) would read as stale.
    let mut file_sups: Vec<(String, Vec<lexer::Suppression>, bool)> = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("{}: {e}", rel.display()))?;
        let rel_str = rel_display(rel);
        let domain = cfg.domain_for(rel);
        let lexed = lexer::lex(&src);
        let skip = rules::test_skip_mask(&lexed);
        report.violations.extend(rules::check_file(&rel_str, domain, &lexed, &skip));
        if matches!(domain, Domain::Hot | Domain::Virtual) {
            let crate_name = crate_of(rel);
            lock_seqs.extend(lockorder::extract(&rel_str, &crate_name, &lexed, &skip));
            parser::parse_file(&mut ws, &rel_str, &crate_name, domain, &lexed, &skip);
        }
        if !lexed.suppressions.is_empty() {
            let report_health = !matches!(domain, Domain::Tooling | Domain::Test);
            file_sups.push((rel_str, lexed.suppressions, report_health));
        }
        report.files_scanned += 1;
    }

    let (classes, edges, cycle_violations) = lockorder::analyze(&lock_seqs);
    report.lock_classes = classes;
    report.lock_edges = edges;
    report.violations.extend(cycle_violations);

    let analysis = callgraph::analyze(&ws, cfg.stack_budget_kb);
    report.violations.extend(analysis.violations);
    report.callgraph = analysis.artifact;

    // Suppressions apply once, at the end, so interprocedural findings
    // (R5, R7–R10) are covered exactly like per-file ones.
    for (rel, sups, report_health) in &file_sups {
        let out = rules::apply_suppressions(rel, sups, &mut report.violations);
        if *report_health {
            report.bad_suppressions.extend(out.bad_suppressions);
        }
        report.suppressions_used += out.suppressions_used;
    }
    report
        .violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(report)
}

/// Lints one in-memory source file under `domain` — the fixture-test and
/// seeded-violation entry point. The interprocedural passes (R5, R7–R10)
/// run over just this file with the default stack budget, so fixtures
/// exercising them must be self-contained (stub their own `park_current`
/// etc.).
pub fn lint_source(rel_name: &str, domain: Domain, src: &str) -> Report {
    let lexed = lexer::lex(src);
    let skip = rules::test_skip_mask(&lexed);
    let mut report = Report {
        violations: rules::check_file(rel_name, domain, &lexed, &skip),
        files_scanned: 1,
        ..Report::default()
    };
    if matches!(domain, Domain::Hot | Domain::Virtual) {
        let seqs = lockorder::extract(rel_name, "fixture", &lexed, &skip);
        let (classes, edges, cycles) = lockorder::analyze(&seqs);
        report.lock_classes = classes;
        report.lock_edges = edges;
        report.violations.extend(cycles);

        let mut ws = parser::Workspace::default();
        parser::parse_file(&mut ws, rel_name, "fixture", domain, &lexed, &skip);
        let analysis = callgraph::analyze(&ws, Config::default().stack_budget_kb);
        report.violations.extend(analysis.violations);
        report.callgraph = analysis.artifact;
    }
    let out = rules::apply_suppressions(rel_name, &lexed.suppressions, &mut report.violations);
    report.bad_suppressions = out.bad_suppressions;
    report.suppressions_used = out.suppressions_used;
    report
        .violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    report
}

fn rel_display(rel: &Path) -> String {
    rel.iter().filter_map(|c| c.to_str()).collect::<Vec<_>>().join("/")
}

fn crate_of(rel: &Path) -> String {
    let comps: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    match comps.as_slice() {
        ["crates", name, ..] => (*name).to_string(),
        _ => "root".to_string(),
    }
}

/// Recursively collects `.rs` files under `dir`, skipping excluded and
/// hidden directories. Deterministic: entries are sorted.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    exclude: &[String],
    out: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name.starts_with('.') || exclude.iter().any(|x| x == name) {
                continue;
            }
            collect_rs_files(root, &path, exclude, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}
