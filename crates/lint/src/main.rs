//! `detlint` CLI: lints the workspace, prints the human report, optionally
//! writes the JSONL report, and exits nonzero on any unsuppressed finding.
//!
//! ```text
//! detlint [--root <dir>] [--json <path>] [--callgraph <path>] [--quiet]
//! ```
//!
//! `--callgraph` writes the interprocedural pass's call graph and
//! per-coroutine-root stack bounds as JSONL; with `--json` but no
//! `--callgraph`, it defaults to `detlint-callgraph.jsonl` next to the
//! `--json` path.
//!
//! With no `--root`, the workspace root is found by walking up from the
//! current directory to the first `detlint.toml` (falling back to the
//! crate's own ancestor when run via `cargo run -p redcr-lint`).

use std::path::PathBuf;
use std::process::ExitCode;

fn find_root(explicit: Option<PathBuf>) -> Option<PathBuf> {
    if let Some(r) = explicit {
        return Some(r);
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("detlint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            break;
        }
    }
    // `cargo run -p redcr-lint` from anywhere: crates/lint/../..
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent()?.parent()?;
    root.join("detlint.toml").is_file().then(|| root.to_path_buf())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root = None;
    let mut json_path: Option<PathBuf> = None;
    let mut callgraph_path: Option<PathBuf> = None;
    let mut quiet = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json_path = args.next().map(PathBuf::from),
            "--callgraph" => callgraph_path = args.next().map(PathBuf::from),
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: detlint [--root <dir>] [--json <path>] [--callgraph <path>] [--quiet]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("detlint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = find_root(root) else {
        eprintln!("detlint: no detlint.toml found (use --root)");
        return ExitCode::from(2);
    };
    let report = match redcr_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, report.to_jsonl()) {
            eprintln!("detlint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let callgraph_path = callgraph_path
        .or_else(|| json_path.as_ref().map(|j| j.with_file_name("detlint-callgraph.jsonl")));
    if let Some(path) = &callgraph_path {
        if let Err(e) = std::fs::write(path, report.callgraph.to_jsonl()) {
            eprintln!("detlint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !quiet {
        print!("{}", report.render_human());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
