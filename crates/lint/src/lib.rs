//! `redcr-lint` (`detlint`): a dependency-free concurrency static-analysis
//! pass enforcing the parts of the workspace's virtual-time contract that
//! need a whole-workspace view.
//!
//! Everything this reproduction claims — bit-identical `ExecutionReport`s,
//! the trace-FNV determinism gate, measured-vs-model validation — rests on
//! ranks that never deadlock, never stall a worker thread and never
//! overflow a coroutine stack. The token-level half of the contract (wall
//! clock, hash iteration order, unseeded entropy, panics on rank paths) is
//! clippy's: `clippy.toml` and the hot crates' `#![deny(...)]`. `detlint`
//! checks what clippy cannot, because it needs the lock graph or the call
//! graph of the whole workspace.
//!
//! # Rules
//!
//! | id | pattern |
//! |----|---------|
//! | R5 | lock-order cycles in the inter-crate lock graph |
//! | R7 | park/yield transitively reachable while a lock guard is live |
//! | R8 | OS-blocking calls reachable from a coroutine root |
//! | R9 | per-coroutine-root stack bound over `[stack_budget]` / recursion |
//!
//! One pipeline lowers each file once — lexer → test mask → imports — and
//! parses every checked file into a lightweight AST (`parser`) whose lock
//! acquisitions fold into the R5 lock graph (`lockorder`) and whose call
//! sites resolve into a whole-workspace call graph rooted at the coroutine
//! entry points, where R7–R9 run (`callgraph`). Suppressions apply last,
//! to every finding alike. The call graph and the per-root stack bounds
//! are exported as a JSONL artifact.
//!
//! `detlint.toml` names the exempt crates (the host-measuring `bench` and
//! `prof`, and the linter); every other crate is checked. Suppress a
//! finding with `// detlint::allow(<rule>, reason = "…")` on the same or
//! the preceding line; the reason is mandatory — an allow without one
//! suppresses nothing and is reported as malformed. Allows naming a rule
//! id outside the registry ([`rules::RULES`]), retired ids included, fail
//! the run outright.

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
/// [`lint_workspace`], with the default config. The passes see just this
/// file, so fixtures must be self-contained (stub their own
/// `park_current` etc.).
pub fn lint_source(rel_name: &str, domain: Domain, src: &str) -> Report {
    lint_files(&Config::default(), vec![(rel_name.to_string(), domain, src.to_string())])
}

/// The pipeline: `files` are (workspace-relative path, domain, source).
fn lint_files(cfg: &Config, files: Vec<(String, Domain, String)>) -> Report {
    let mut report = Report::default();
    let mut ws = parser::Workspace::default();
    // (rel, suppressions, report_health): suppressions apply everywhere
    // they lex, but their *health* (stale/malformed/unknown) is only
    // reported where rules fire — in exempt/test files every allow-shaped
    // comment (including the linter's own docs describing the syntax)
    // would read as stale.
    let mut file_sups = Vec::new();
    for (rel, domain, src) in files {
        let low = rules::lower(&src);
        let checked = domain == Domain::Checked;
        if checked {
            parser::parse_file(&mut ws, &rel, crate_of(&rel), &low);
        }
        if !low.lexed.suppressions.is_empty() {
            file_sups.push((rel, low.lexed.suppressions, checked));
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

    // Suppressions apply once, at the end, over every pass's findings.
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
