//! Tier-1 gate: the workspace must pass its own determinism lints.
//!
//! Runs the full `redcr-lint` pass in-process (no subprocess, no
//! `cargo run`) over the repository root and fails the build if any
//! unsuppressed violation, malformed suppression (missing `reason`), or
//! stale suppression exists. Seeded programs run through
//! [`redcr_lint::lint_source`] prove the analyzer actually fires — a lint
//! pass that silently matched nothing would otherwise look identical to a
//! clean tree.
//!
//! The token-level rules (wall clock, hash iteration order, unseeded
//! entropy, panics on rank paths) are clippy's. A tier-1 run never invokes
//! clippy, so [`clippy_owns_the_token_rules`] reads the configuration that
//! carries them and fails if it is lost, and
//! [`disallowed_types_is_waived_only_by_the_wall_clock_crates`] fails if
//! the hash-order rule gains a waiver in simulation code.

use proptest::prelude::*;

use redcr_lint::{lint_source, lint_workspace, Config, Domain};

fn repo_root() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR of a workspace-root integration test is the
    // workspace root itself.
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_detlint_clean() {
    let report = lint_workspace(&repo_root()).expect("lint pass runs");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}): exclude list or walk is broken",
        report.files_scanned
    );
    let unsuppressed: Vec<_> = report.unsuppressed().collect();
    assert!(
        unsuppressed.is_empty(),
        "detlint found {} unsuppressed violation(s):\n{}",
        unsuppressed.len(),
        unsuppressed
            .iter()
            .map(|v| format!("  {}:{}: {} — {}", v.file, v.line, v.rule, v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.bad_suppressions.is_empty(),
        "malformed or stale detlint suppressions:\n{}",
        report
            .bad_suppressions
            .iter()
            .map(|b| format!("  {}:{}: {}", b.file, b.line, b.rule))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Every suppression that is in use must carry a reason; the lexer
    // treats reason-less allows as malformed, so reaching here with a
    // non-empty suppression list means they all had one. Sanity-check the
    // invariant anyway.
    for v in &report.violations {
        if let Some(reason) = &v.suppressed {
            assert!(!reason.trim().is_empty(), "{}:{}: empty suppression reason", v.file, v.line);
        }
    }
}

/// A coroutine root that reaches an OS-blocking call: an R8 finding in
/// any checked crate.
const BLOCKING_ROOT: &str =
    "fn spawn(pool: &Pool) { pool.run_batch(|| { std::fs::write(\"x\", b\"y\").ok(); }); }\n";

#[test]
fn prof_is_wallclock_but_everything_else_stays_strict() {
    // The wall-clock crates (the profiler and the bench harness) and the
    // linter are the only ones detlint skips; the shipped detlint.toml
    // must say so — and that exemption must not widen. A seeded R8 in
    // any other crate still fires under the *loaded* config, not a
    // hardcoded domain, so a botched detlint.toml edit fails this test.
    let cfg = Config::load(&repo_root().join("detlint.toml")).expect("detlint.toml parses");
    for exempt in ["prof", "bench", "lint"] {
        let rel = format!("crates/{exempt}/src/lib.rs");
        assert_eq!(cfg.domain_for(std::path::Path::new(&rel)), Domain::Exempt, "{rel}");
    }
    for strict in [
        "simmpi",
        "sched",
        "redundancy",
        "checkpoint",
        "core",
        "trace",
        "metrics",
        "sweep",
        "json",
        "failure",
        "cluster",
        "apps",
        "model",
    ] {
        let rel = format!("crates/{strict}/src/lib.rs");
        let domain = cfg.domain_for(std::path::Path::new(&rel));
        assert_eq!(domain, Domain::Checked, "{strict} must be checked");
        let report = lint_source(&rel, domain, BLOCKING_ROOT);
        assert!(
            report.unsuppressed().any(|v| v.rule == "R8"),
            "blocking call in {rel} ({}) did not fire R8",
            domain.name()
        );
    }
    assert_eq!(cfg.domain_for(std::path::Path::new("src/lib.rs")), Domain::Checked);
}

#[test]
fn sched_is_hot_and_every_rule_fires_inside_it() {
    // The M:N scheduler runs on the rank hot path (every mailbox park
    // crosses it), so every detlint rule — R8, an OS-blocking call on a
    // coroutine path — must demonstrably fire on its paths under the
    // loaded config.
    let cfg = Config::load(&repo_root().join("detlint.toml")).expect("detlint.toml parses");
    let path = "crates/sched/src/seeded.rs";
    let domain = cfg.domain_for(std::path::Path::new(path));
    assert_eq!(domain, Domain::Checked, "crates/sched must be checked");
    let r = lint_source(path, domain, BLOCKING_ROOT);
    assert!(r.unsuppressed().any(|v| v.rule == "R8"), "R8 silent in sched: {r:?}");
}

#[test]
fn seeded_violation_in_wallclock_domain_is_fine() {
    // The same source is legal in the exempt bench (wall-clock) crate.
    let report = lint_source("crates/bench/src/seeded.rs", Domain::Exempt, BLOCKING_ROOT);
    assert!(report.violations.is_empty(), "exempt crates are not parsed: {report:?}");
    assert!(report.callgraph.roots.is_empty(), "{report:?}");
}

#[test]
fn interprocedural_rules_fire_through_lint_source() {
    // A minimal seeded program proving the interprocedural rule actually
    // analyzes: a lint pass whose parser or resolver regressed to seeing
    // nothing would pass the clean-workspace gate by accident. Blocking
    // I/O two calls below a coroutine root fires R8 at the write.
    let r = lint_source(
        "crates/sched/src/seeded.rs",
        Domain::Checked,
        "fn persist() { std::fs::write(\"x\", b\"y\").ok(); }\n\
         fn snapshot() { persist(); }\n\
         fn spawn(pool: &Pool) { pool.run_batch(|| { snapshot(); }); }\n",
    );
    let found: Vec<_> = r.unsuppressed().map(|v| (v.rule, v.line)).collect();
    assert_eq!(found, [("R8", 1)], "{r:?}");
}

#[test]
fn workspace_callgraph_artifact_is_sound() {
    // The interprocedural pass must produce a non-trivial artifact for
    // the real workspace: the coroutine roots are the world/executor rank
    // closures. (How deep their stacks go is measured, not estimated:
    // `tests/profiler_gate.rs` reads the scheduler's stack high-water.)
    let report = lint_workspace(&repo_root()).expect("lint pass runs");
    let cg = &report.callgraph;
    assert!(cg.functions > 500, "suspiciously small parse: {} functions", cg.functions);
    assert!(cg.edges.len() > 500, "suspiciously sparse resolution: {} edges", cg.edges.len());
    assert!(
        cg.roots.len() >= 3,
        "the world rank closures and the executor segment closure must be roots: {:#?}",
        cg.roots
    );
    // The JSONL artifact serializes with one summary line.
    let jsonl = cg.to_jsonl();
    assert!(jsonl.lines().any(|l| l.contains("\"kind\":\"summary\"")), "no summary line");
    assert_eq!(
        jsonl.lines().filter(|l| l.contains("\"kind\":\"root\"")).count(),
        cg.roots.len(),
        "artifact root lines must match the report"
    );
}

#[test]
fn unknown_rule_in_allow_fails_the_run() {
    // Guard for the rule registry: an allow naming a rule id that does
    // not exist (a typo, or a rule retired to clippy, to the runtime's own
    // checks, or dropped) must fail the run rather than rot silently.
    for id in ["R99", "R2", "R4", "R5", "R6", "R7", "R9", "R10"] {
        let src =
            format!("// detlint::allow({id}, reason = \"not a detlint rule\")\nfn fine() {{}}\n");
        let report = lint_source("crates/sched/src/seeded.rs", Domain::Checked, &src);
        assert!(!report.is_clean(), "unknown rule id {id} must fail: {report:?}");
        assert!(
            report.bad_suppressions.iter().any(|b| b.unknown_rule && b.rule == id),
            "unknown-rule flag not set for {id}: {:#?}",
            report.bad_suppressions
        );
    }
}

/// The non-comment lines of `text` (comments start with `marker`).
fn code_lines(text: &str, marker: &str) -> String {
    text.lines().filter(|l| !l.trim_start().starts_with(marker)).collect::<Vec<_>>().join("\n")
}

/// The text of the `key = [ … ]` array in `clippy.toml`.
fn toml_array<'a>(toml: &'a str, key: &str) -> &'a str {
    let start =
        toml.find(&format!("{key} = [")).unwrap_or_else(|| panic!("no {key} in clippy.toml"));
    let body = &toml[start..];
    &body[..body.find("\n]").unwrap_or_else(|| panic!("{key} array is not closed"))]
}

#[test]
fn clippy_owns_the_token_rules() {
    // clippy.toml carries R1–R3: the wall clock, hash iteration order
    // and unseeded entropy.
    let toml = std::fs::read_to_string(repo_root().join("clippy.toml")).expect("clippy.toml");
    let toml = code_lines(&toml, "#");
    let types = toml_array(&toml, "disallowed-types");
    for ty in [
        "std::time::Instant",
        "std::time::SystemTime",
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::collections::hash_map::RandomState",
    ] {
        assert!(types.contains(&format!("path = \"{ty}\"")), "{ty} not in disallowed-types");
    }
    let methods = toml_array(&toml, "disallowed-methods");
    for method in ["std::time::Instant::now", "std::time::SystemTime::now"] {
        assert!(
            methods.contains(&format!("path = \"{method}\"")),
            "{method} not in disallowed-methods"
        );
    }
    for key in ["allow-unwrap-in-tests", "allow-expect-in-tests", "allow-panic-in-tests"] {
        assert!(
            toml.lines().any(|l| l.split_whitespace().collect::<String>() == format!("{key}=true")),
            "{key} = true missing from clippy.toml"
        );
    }
    // R4: the hot crates deny panics outside tests.
    for krate in ["simmpi", "sched", "redundancy"] {
        let lib = std::fs::read_to_string(repo_root().join(format!("crates/{krate}/src/lib.rs")))
            .expect("hot crate root");
        let lib = code_lines(&lib, "//");
        let start = lib.find("#![deny(").unwrap_or_else(|| panic!("no #![deny] in {krate}"));
        let end = start + lib[start..].find(")]").expect("closed #![deny]");
        let denied: Vec<&str> = lib[start + "#![deny(".len()..end]
            .split(',')
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        for lint in ["unwrap_used", "expect_used", "panic", "unreachable", "todo", "unimplemented"]
        {
            let lint = format!("clippy::{lint}");
            assert!(denied.contains(&lint.as_str()), "{krate} does not deny {lint}: {denied:?}");
        }
    }
}

/// Every `.rs` file under `dir`, skipping build output and hidden
/// directories.
fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn disallowed_types_is_waived_only_by_the_wall_clock_crates() {
    // R2 has no exception in simulation code: only the two crates whose
    // job is to read the host clock (R1) may allow the lint, and they do
    // it at their crate root. The lint's name is assembled so that this
    // file does not name it.
    let lint = ["clippy", "disallowed_types"].join("::");
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut waiving: Vec<String> = files
        .iter()
        .filter(|path| {
            let text = std::fs::read_to_string(path).expect("readable source file");
            code_lines(&text, "//").contains(&lint)
        })
        .map(|path| path.strip_prefix(&root).expect("under the root").display().to_string())
        .collect();
    waiving.sort();
    assert_eq!(waiving, ["crates/bench/src/bin/perf/main.rs", "crates/prof/src/lib.rs"]);
}

/// Fragments that steer random text into the `detlint.toml` subset.
#[rustfmt::skip]
const TOML_SOUP: [&str; 24] = [
    "[", "]", "[domains]", "[scan]", "[stack_budget]", "=", "\"", ",", "#", "\n", " ", "\t",
    "exclude", "budget_kb", "sched", "\"checked\"", "\"exempt\"", "[\"a\", \"b\"]", "128",
    "99999999999999999999999", "-1", "é", "\r\n", "\u{0}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `detlint.toml` is read from disk: whatever is in it, the parser
    /// returns a config or a message — it does not panic, and (running to
    /// the end of this test) it does not hang.
    #[test]
    fn config_parse_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        picks in prop::collection::vec(0usize..TOML_SOUP.len(), 0..48),
    ) {
        let _ = Config::parse(&String::from_utf8_lossy(&bytes));
        let soup: String = picks.iter().map(|&i| TOML_SOUP[i]).collect();
        if let Ok(cfg) = Config::parse(&soup) {
            // Whatever parsed is usable.
            let _ = cfg.domain_for(std::path::Path::new("crates/sched/src/pool.rs"));
        }
    }
}
