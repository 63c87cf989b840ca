//! Tier-1 gate: the workspace must pass its own determinism lints.
//!
//! Runs the full `redcr-lint` pass in-process (no subprocess, no
//! `cargo run`) over the repository root and fails the build if any
//! unsuppressed violation, malformed suppression (missing `reason`), or
//! stale suppression exists. A second test seeds a synthetic violation
//! through [`redcr_lint::lint_source`] to prove the analyzer actually
//! fires — a lint pass that silently matched nothing would otherwise
//! look identical to a clean tree.

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

#[test]
fn seeded_wallclock_violation_is_caught() {
    // A virtual-time crate sneaking in a wall-clock read must trip R1
    // with the right rule id and line number.
    let src = "use std::time::Instant;\n\
               \n\
               pub fn now_ms() -> u128 {\n\
                   let t = Instant::now();\n\
                   t.elapsed().as_millis()\n\
               }\n";
    let report = lint_source("crates/simmpi/src/seeded.rs", Domain::Hot, src);
    let r1: Vec<_> = report.unsuppressed().filter(|v| v.rule == "R1").collect();
    assert!(!r1.is_empty(), "seeded Instant usage not caught: {report:?}");
    assert!(
        r1.iter().any(|v| v.line == 1),
        "the `use std::time::Instant` import on line 1 should be flagged: {r1:?}"
    );
    assert!(
        r1.iter().any(|v| v.line == 4),
        "the `Instant::now()` call on line 4 should be flagged: {r1:?}"
    );
    assert!(!report.is_clean(), "report with unsuppressed violations must not be clean");
}

#[test]
fn prof_is_wallclock_but_everything_else_stays_strict() {
    // The profiler crate is the sanctioned home of `Instant` reads; the
    // shipped detlint.toml must map it to the wallclock domain — and that
    // exemption must not widen. A wall-clock read in any virtual-time
    // crate still fires R1 under the *loaded* config, not a hardcoded
    // domain, so a botched detlint.toml edit fails this test.
    let cfg = Config::load(&repo_root().join("detlint.toml")).expect("detlint.toml parses");
    assert_eq!(cfg.domain_for(std::path::Path::new("crates/prof/src/shard.rs")), Domain::Wallclock);
    assert_eq!(
        cfg.domain_for(std::path::Path::new("crates/bench/src/runtime.rs")),
        Domain::Wallclock
    );
    for strict in
        ["simmpi", "sched", "redundancy", "checkpoint", "core", "trace", "metrics", "sweep"]
    {
        let rel = format!("crates/{strict}/src/lib.rs");
        let domain = cfg.domain_for(std::path::Path::new(&rel));
        assert_ne!(domain, Domain::Wallclock, "{strict} must not be wallclock");
        let report = lint_source(&rel, domain, "fn t() { let _ = std::time::Instant::now(); }\n");
        assert!(
            report.unsuppressed().any(|v| v.rule == "R1"),
            "Instant read in {rel} ({}) did not fire R1",
            domain.name()
        );
    }
}

#[test]
fn sched_is_hot_and_every_rule_fires_inside_it() {
    // The M:N scheduler crate joins simmpi/redundancy in the `hot`
    // domain: it runs on the rank hot path (every mailbox park crosses
    // it), so the full rule set must demonstrably fire on its paths —
    // a domain mapping that silently fell back to `virtual` would let
    // hot-only rules (R4) rot.
    let cfg = Config::load(&repo_root().join("detlint.toml")).expect("detlint.toml parses");
    let path = "crates/sched/src/seeded.rs";
    let domain = cfg.domain_for(std::path::Path::new(path));
    assert_eq!(domain, Domain::Hot, "crates/sched must map to the hot domain");

    // R1: wall-clock reads.
    let r = lint_source(
        path,
        domain,
        "fn t() -> u128 { std::time::Instant::now().elapsed().as_millis() }\n",
    );
    assert!(r.unsuppressed().any(|v| v.rule == "R1"), "R1 silent in sched: {r:?}");

    // R2: randomized-iteration-order containers.
    let r = lint_source(
        path,
        domain,
        "use std::collections::HashMap;\nfn t(m: &HashMap<u32, u32>) -> u32 { m.values().sum() }\n",
    );
    assert!(r.unsuppressed().any(|v| v.rule == "R2"), "R2 silent in sched: {r:?}");

    // R3: unseeded entropy (a randomized steal order would desync runs).
    let r =
        lint_source(path, domain, "fn victim(w: usize) -> usize { rand::random::<usize>() % w }\n");
    assert!(r.unsuppressed().any(|v| v.rule == "R3"), "R3 silent in sched: {r:?}");

    // R4 (hot-only): panics and unwraps on the rank path.
    let r = lint_source(path, domain, "fn pop(q: &mut Vec<usize>) -> usize { q.pop().unwrap() }\n");
    assert!(r.unsuppressed().any(|v| v.rule == "R4"), "R4 silent in sched: {r:?}");

    // R5: a lock-order cycle between two scheduler-shaped lock classes.
    let r = lint_source(
        path,
        domain,
        "fn push(&self) { let q = self.queue.lock(); let i = self.injector.lock(); }\n\
         fn drain(&self) { let i = self.injector.lock(); let q = self.queue.lock(); }\n",
    );
    assert!(r.unsuppressed().any(|v| v.rule == "R5"), "R5 silent in sched: {r:?}");
    assert!(
        r.lock_classes.iter().any(|c| c.contains("queue")),
        "lock classes should name the fixture's queue: {:?}",
        r.lock_classes
    );

    // R6: Relaxed atomics (the wake protocol's ordering is load-bearing).
    let r = lint_source(
        path,
        domain,
        "use std::sync::atomic::{AtomicU8, Ordering};\n\
         fn peek(s: &AtomicU8) -> u8 { s.load(Ordering::Relaxed) }\n",
    );
    assert!(r.unsuppressed().any(|v| v.rule == "R6"), "R6 silent in sched: {r:?}");
}

#[test]
fn seeded_violation_in_wallclock_domain_is_fine() {
    // The same source is legal in the bench (wallclock) domain.
    let src = "use std::time::Instant;\npub fn t() -> Instant { Instant::now() }\n";
    let report = lint_source("crates/bench/src/seeded.rs", Domain::Wallclock, src);
    assert!(report.is_clean(), "wallclock domain must allow Instant: {report:?}");
}

#[test]
fn interprocedural_rules_fire_through_lint_source() {
    // Minimal seeded programs proving each interprocedural rule actually
    // analyzes: a lint pass whose parser or resolver regressed to seeing
    // nothing would pass the clean-workspace gate by accident.
    let path = "crates/sched/src/seeded.rs";

    // R7: a resolved park behind one call, under a live guard.
    let r = lint_source(
        path,
        Domain::Hot,
        "fn park_current() {}\n\
         fn wait() { park_current(); }\n\
         struct S { q: Mutex<u32> }\n\
         impl S { fn bad(&self) { let g = self.q.lock(); wait(); drop(g); } }\n",
    );
    assert!(r.unsuppressed().any(|v| v.rule == "R7"), "R7 silent: {r:?}");

    // R8: blocking I/O two calls below a coroutine root.
    let r = lint_source(
        path,
        Domain::Hot,
        "fn persist() { std::fs::write(\"x\", b\"y\").ok(); }\n\
         fn snapshot() { persist(); }\n\
         fn spawn(pool: &Pool) { pool.run_batch(|| { snapshot(); }); }\n",
    );
    assert!(r.unsuppressed().any(|v| v.rule == "R8"), "R8 silent: {r:?}");

    // R9: a root whose chain exceeds the default 128 KiB budget.
    let r = lint_source(
        path,
        Domain::Hot,
        "fn deep() { let b: [u8; 300_000] = [0u8; 300_000]; let _ = b[0]; }\n\
         fn spawn(pool: &Pool) { pool.run_batch(|| { deep(); }); }\n",
    );
    assert!(r.unsuppressed().any(|v| v.rule == "R9" && !v.advisory), "R9 silent: {r:?}");

    // R10: a spin loop on the coroutine path.
    let r = lint_source(
        path,
        Domain::Hot,
        "fn spawn(pool: &Pool) { pool.run_batch(|| { let mut n = 0u64; loop { n += 1; } }); }\n",
    );
    assert!(r.unsuppressed().any(|v| v.rule == "R10"), "R10 silent: {r:?}");
}

#[test]
fn workspace_callgraph_artifact_is_sound() {
    // The interprocedural pass must produce a non-trivial artifact for
    // the real workspace: the coroutine roots are the world/executor rank
    // closures, every root gets a finite stack bound, and that bound
    // stays under the configured budget (this is the static justification
    // for the 128 KiB REDCR_STACK_KB default).
    let root = repo_root();
    let cfg = Config::load(&root.join("detlint.toml")).expect("detlint.toml parses");
    let report = lint_workspace(&root).expect("lint pass runs");
    let cg = &report.callgraph;
    assert!(cg.functions > 500, "suspiciously small parse: {} functions", cg.functions);
    assert!(cg.edges.len() > 500, "suspiciously sparse resolution: {} edges", cg.edges.len());
    assert!(
        cg.roots.len() >= 3,
        "the world rank closures and the executor segment closure must be roots: {:#?}",
        cg.roots
    );
    for r in &cg.roots {
        assert!(!r.recursive, "coroutine root {} is recursion-poisoned", r.root);
        assert!(r.bound_bytes > 0 && r.frames > 0, "degenerate bound for {}: {r:#?}", r.root);
        assert!(
            r.bound_bytes <= cfg.stack_budget_kb * 1024,
            "root {} bound {} exceeds the {} KiB budget the runtime default is built on",
            r.root,
            r.bound_bytes,
            cfg.stack_budget_kb
        );
    }
    assert!(cg.max_bound_bytes() > 0);
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
    // Satellite guard for the rule registry: an allow naming a rule id
    // that does not exist (typo, or a retired rule) must fail the run
    // rather than rot silently.
    let src = "// detlint::allow(R99, reason = \"typo'd rule id\")\n\
               fn fine() {}\n";
    let report = lint_source("crates/sched/src/seeded.rs", Domain::Hot, src);
    assert!(!report.is_clean(), "unknown rule id must fail: {report:?}");
    assert!(
        report.bad_suppressions.iter().any(|b| b.unknown_rule),
        "unknown-rule flag not set: {:#?}",
        report.bad_suppressions
    );
}

/// Fragments that steer random text into the `detlint.toml` subset.
#[rustfmt::skip]
const TOML_SOUP: [&str; 24] = [
    "[", "]", "[domains]", "[scan]", "[stack_budget]", "=", "\"", ",", "#", "\n", " ", "\t",
    "exclude", "budget_kb", "sched", "\"hot\"", "\"virtual\"", "[\"a\", \"b\"]", "128",
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
