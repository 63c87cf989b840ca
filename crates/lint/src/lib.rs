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
//! One pipeline lowers each file once — lexer → test mask → imports — and
//! feeds every rule from that lowering: R1–R4 and R6 scan its tokens;
//! hot + virtual files are then parsed into a lightweight AST
//! (`parser`) whose lock acquisitions fold into the R5 lock graph
//! (`lockorder`) and whose call sites resolve into a whole-workspace call
//! graph rooted at the coroutine entry points, where R7–R10 run
//! (`callgraph`). Suppressions apply last, to every finding alike. The
//! call graph and the per-root stack bounds are exported as a JSONL
//! artifact.
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
    let mut paths = Vec::new();
    collect_rs_files(root, root, &cfg.exclude, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in &paths {
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("{}: {e}", rel.display()))?;
        files.push((rel_display(rel), cfg.domain_for(rel), src));
    }
    Ok(lint_files(&cfg, files))
}

/// Lints one in-memory source file under `domain` — the fixture-test and
/// seeded-violation entry point — through the same pipeline as
/// [`lint_workspace`], with the default config. The interprocedural
/// passes (R5, R7–R10) see just this file, so fixtures exercising them
/// must be self-contained (stub their own `park_current` etc.).
pub fn lint_source(rel_name: &str, domain: Domain, src: &str) -> Report {
    lint_files(&Config::default(), vec![(rel_name.to_string(), domain, src.to_string())])
}

/// The pipeline: `files` are (workspace-relative path, domain, source).
fn lint_files(cfg: &Config, files: Vec<(String, Domain, String)>) -> Report {
    let mut report = Report::default();
    let mut ws = parser::Workspace::default();
    // (rel, suppressions, report_health): suppressions apply everywhere
    // they lex, but their *health* (stale/malformed/unknown) is only
    // reported where rules fire — in tooling/test files every
    // allow-shaped comment (including the linter's own docs describing
    // the syntax) would read as stale.
    let mut file_sups = Vec::new();
    for (rel, domain, src) in files {
        let low = rules::lower(&src);
        report.violations.extend(rules::check_file(&rel, domain, &low));
        if matches!(domain, Domain::Hot | Domain::Virtual) {
            parser::parse_file(&mut ws, &rel, crate_of(&rel), &low);
        }
        if !low.lexed.suppressions.is_empty() {
            let report_health = !matches!(domain, Domain::Tooling | Domain::Test);
            file_sups.push((rel, low.lexed.suppressions, report_health));
        }
        report.files_scanned += 1;
    }

    let (classes, edges, cycle_violations) = lockorder::analyze(&ws);
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
    report
}

fn rel_display(rel: &Path) -> String {
    rel.iter().filter_map(|c| c.to_str()).collect::<Vec<_>>().join("/")
}

/// The crate directory a workspace-relative path lives in, or `root`.
fn crate_of(rel: &str) -> &str {
    let mut comps = rel.split('/');
    match (comps.next(), comps.next()) {
        (Some("crates"), Some(name)) => name,
        _ => "root",
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
