//! Fixture-driven rule tests: a positive and a negative fixture for R8, a
//! resolver fixture, a tricky-lexing torture file and suppression
//! semantics.
//!
//! Fixtures live in `tests/fixtures/` and are linted from their raw text
//! (they are never compiled), under an explicitly chosen domain.

use redcr_lint::{lint_source, Domain, Report, Violation};

fn lint(name: &str, domain: Domain, src: &str) -> Report {
    lint_source(&format!("fixtures/{name}"), domain, src)
}

fn rules_of(report: &Report) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = report.unsuppressed().map(|v| v.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

fn only_rule<'a>(report: &'a Report, rule: &str) -> Vec<&'a Violation> {
    assert_eq!(rules_of(report), vec![rule], "expected only {rule} findings: {report:#?}");
    report.unsuppressed().collect()
}

#[test]
fn tricky_lexing_only_the_real_violation_fires() {
    let report =
        lint("tricky_lexing.rs", Domain::Checked, include_str!("fixtures/tricky_lexing.rs"));
    let v: Vec<_> = report.unsuppressed().collect();
    assert_eq!(v.len(), 1, "decoys in strings/comments fired: {v:#?}");
    assert_eq!(v[0].rule, "R8");
    assert_eq!(v[0].line, 35, "the real write is on line 35: {v:#?}");
    // Only the real `run_batch` closure became a coroutine root.
    assert_eq!(report.callgraph.roots.len(), 1, "{:#?}", report.callgraph.roots);
}

#[test]
fn suppression_semantics() {
    let report = lint("suppressions.rs", Domain::Checked, include_str!("fixtures/suppressions.rs"));
    // Trailing and preceding-line allows suppress their violations, with
    // the reason preserved on the finding.
    let suppressed: Vec<_> = report.violations.iter().filter(|v| v.suppressed.is_some()).collect();
    assert_eq!(suppressed.len(), 2, "{report:#?}");
    assert!(suppressed.iter().all(|v| v.rule == "R8"));
    assert!(suppressed.iter().all(|v| v.suppressed.as_deref().unwrap().starts_with("fixture:")));
    // The reason-less allow suppresses nothing: its write stays live.
    let live: Vec<_> = report.unsuppressed().collect();
    assert_eq!(live.len(), 1, "{live:#?}");
    assert_eq!(live[0].line, 15);
    // And both bad allows are reported: one malformed, one stale.
    assert_eq!(report.bad_suppressions.len(), 2, "{:#?}", report.bad_suppressions);
    assert!(report.bad_suppressions.iter().any(|b| b.missing_reason && b.line == 15));
    assert!(report.bad_suppressions.iter().any(|b| !b.missing_reason && b.line == 19));
}

#[test]
fn r8_blocking_in_coroutine_fires() {
    let report = lint("r8_positive.rs", Domain::Checked, include_str!("fixtures/r8_positive.rs"));
    let v = only_rule(&report, "R8");
    assert_eq!(v.len(), 2, "{v:#?}");
    assert!(v.iter().any(|x| x.message.contains("std::fs::write")), "{v:#?}");
    assert!(v.iter().any(|x| x.message.contains("std::thread::yield_now")), "{v:#?}");
    // The closure handed to run_batch was recognized as a coroutine root.
    assert_eq!(report.callgraph.roots.len(), 1, "{:#?}", report.callgraph.roots);
}

#[test]
fn r8_blocking_outside_coroutine_does_not_fire() {
    let report = lint("r8_negative.rs", Domain::Checked, include_str!("fixtures/r8_negative.rs"));
    assert!(report.is_clean(), "{report:#?}");
    assert_eq!(report.callgraph.roots.len(), 1, "{:#?}", report.callgraph.roots);
}

#[test]
fn a_foreign_receiver_is_not_recursion() {
    let src = include_str!("fixtures/foreign_receiver.rs");
    let report = lint("foreign_receiver.rs", Domain::Checked, src);
    assert!(report.violations.is_empty(), "{report:#?}");
    let edges: Vec<(&str, &str)> =
        report.callgraph.edges.iter().map(|e| (e.caller.as_str(), e.callee.as_str())).collect();
    // `other.events().eq(..)` in `Trace::eq` and `prof.span(..)` in a
    // closure of `Obs::span` are other values' methods; `self.down(..)`
    // is the one self-call.
    assert!(!edges.contains(&("Trace::eq", "Trace::eq")), "{edges:?}");
    assert!(!edges.iter().any(|&(from, to)| from.starts_with("Obs::span::") && to == "Obs::span"));
    assert!(edges.contains(&("Walk::down", "Walk::down")), "{edges:?}");
}

/// `lint_source` is `lint_workspace` over one file: on a one-crate tree
/// both report the same findings and call graph.
#[test]
fn lint_source_and_lint_workspace_agree() {
    let src = "pub struct Pair { alpha: Mutex<u64> }\n\
               impl Pair {\n\
               fn persist(&self) { let a = self.alpha.lock(); std::fs::write(\"x\", b\"y\").ok(); }\n\
               }\n\
               fn spawn(pool: &Pool, pair: &Pair) { pool.run_batch(|| { pair.persist(); }); }\n\
               fn idle() { std::thread::sleep(d); }\n";
    let root = std::env::temp_dir().join(format!("detlint-agree-{}", std::process::id()));
    std::fs::create_dir_all(root.join("crates/x/src")).unwrap();
    std::fs::write(root.join("detlint.toml"), "[domains]\nx = \"checked\"\n").unwrap();
    std::fs::write(root.join("crates/x/src/lib.rs"), src).unwrap();
    let tree = redcr_lint::lint_workspace(&root);
    std::fs::remove_dir_all(&root).unwrap();
    let tree = tree.unwrap();
    let one = lint_source("crates/x/src/lib.rs", Domain::Checked, src);

    let shown = |r: &Report| -> Vec<String> {
        r.violations
            .iter()
            .map(|v| format!("{}:{}: {} {}", v.file, v.line, v.rule, v.message))
            .collect()
    };
    assert_eq!(rules_of(&one), ["R8"], "{one:#?}");
    assert_eq!(one.violations.len(), 1, "only the coroutine-reachable write: {one:#?}");
    assert_eq!(shown(&tree), shown(&one));
    assert_eq!(tree.callgraph.to_jsonl(), one.callgraph.to_jsonl());
    assert_eq!(tree.to_jsonl(), one.to_jsonl());
}
