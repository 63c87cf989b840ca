//! Fixture-driven rule tests: one positive and one negative fixture per
//! rule, plus a tricky-lexing torture file and suppression semantics.
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
fn r1_wall_clock_fires() {
    let report = lint("r1_positive.rs", Domain::Virtual, include_str!("fixtures/r1_positive.rs"));
    let v = only_rule(&report, "R1");
    // Import line, Instant::now via the import alias, and the fully
    // qualified SystemTime chain.
    assert!(v.len() >= 3, "{v:#?}");
    assert!(v.iter().any(|x| x.line == 2), "use-site line: {v:#?}");
    assert!(v.iter().any(|x| x.line == 5), "Instant::now line: {v:#?}");
    assert!(v.iter().any(|x| x.line == 6), "SystemTime::now line: {v:#?}");
}

#[test]
fn r1_textual_mentions_do_not_fire() {
    let report = lint("r1_negative.rs", Domain::Virtual, include_str!("fixtures/r1_negative.rs"));
    assert!(report.is_clean(), "{report:#?}");
}

#[test]
fn r2_hash_containers_fire() {
    let report = lint("r2_positive.rs", Domain::Virtual, include_str!("fixtures/r2_positive.rs"));
    let v = only_rule(&report, "R2");
    // Two imports plus the HashMap::new and (renamed) Seen::new call sites.
    assert!(v.len() >= 4, "{v:#?}");
    assert!(
        v.iter().any(|x| x.line == 7),
        "the `HashSet as Seen` rename must resolve at its use site: {v:#?}"
    );
}

#[test]
fn r2_ordered_containers_do_not_fire() {
    let report = lint("r2_negative.rs", Domain::Virtual, include_str!("fixtures/r2_negative.rs"));
    assert!(report.is_clean(), "{report:#?}");
}

#[test]
fn r3_unseeded_entropy_fires() {
    let report = lint("r3_positive.rs", Domain::Virtual, include_str!("fixtures/r3_positive.rs"));
    let v = only_rule(&report, "R3");
    assert!(v.iter().any(|x| x.line == 5), "thread_rng: {v:#?}");
    assert!(v.iter().any(|x| x.line == 6), "rand::random: {v:#?}");
    assert!(v.iter().any(|x| x.line == 7), "RandomState::new: {v:#?}");
}

#[test]
fn r3_seeded_rng_does_not_fire() {
    let report = lint("r3_negative.rs", Domain::Virtual, include_str!("fixtures/r3_negative.rs"));
    assert!(report.is_clean(), "{report:#?}");
}

#[test]
fn r4_panics_fire_in_hot_domain() {
    let src = include_str!("fixtures/r4_positive.rs");
    let report = lint("r4_positive.rs", Domain::Hot, src);
    let v = only_rule(&report, "R4");
    assert!(v.iter().any(|x| x.line == 4), "panic!: {v:#?}");
    assert!(v.iter().any(|x| x.line == 6), "unwrap: {v:#?}");
    assert!(v.iter().any(|x| x.line == 7), "expect: {v:#?}");

    // R4 is hot-only: the same source is legal in a virtual crate.
    let virt = lint("r4_positive.rs", Domain::Virtual, src);
    assert!(virt.is_clean(), "R4 must not fire outside hot domains: {virt:#?}");
}

#[test]
fn r4_fallible_handling_and_test_code_do_not_fire() {
    let report = lint("r4_negative.rs", Domain::Hot, include_str!("fixtures/r4_negative.rs"));
    assert!(report.is_clean(), "unwrap_or / #[cfg(test)] must not fire: {report:#?}");
}

#[test]
fn r5_opposite_lock_orders_fire() {
    let report = lint("r5_positive.rs", Domain::Virtual, include_str!("fixtures/r5_positive.rs"));
    let v = only_rule(&report, "R5");
    assert_eq!(v.len(), 1, "{v:#?}");
    assert!(v[0].message.contains("alpha"), "{}", v[0].message);
    assert!(v[0].message.contains("beta"), "{}", v[0].message);
    assert_eq!(report.lock_classes.len(), 2, "{:?}", report.lock_classes);
    assert_eq!(report.lock_edges.len(), 2, "{:?}", report.lock_edges);
}

#[test]
fn r5_consistent_lock_order_does_not_fire() {
    let report = lint("r5_negative.rs", Domain::Virtual, include_str!("fixtures/r5_negative.rs"));
    assert!(report.is_clean(), "{report:#?}");
    // The pass still saw the nesting — it is the *cycle* that is absent.
    assert_eq!(report.lock_edges.len(), 1, "{:?}", report.lock_edges);
}

#[test]
fn r6_relaxed_is_advisory() {
    let report = lint("r6_positive.rs", Domain::Virtual, include_str!("fixtures/r6_positive.rs"));
    let v = only_rule(&report, "R6");
    assert!(v.iter().any(|x| x.line == 5), "{v:#?}");
    assert!(v.iter().all(|x| x.advisory), "R6 must be advisory: {v:#?}");
}

#[test]
fn r6_seqcst_does_not_fire() {
    let report = lint("r6_negative.rs", Domain::Virtual, include_str!("fixtures/r6_negative.rs"));
    assert!(report.is_clean(), "{report:#?}");
}

#[test]
fn tricky_lexing_only_the_real_violation_fires() {
    let report = lint("tricky_lexing.rs", Domain::Hot, include_str!("fixtures/tricky_lexing.rs"));
    let v: Vec<_> = report.unsuppressed().collect();
    assert_eq!(v.len(), 1, "decoys in strings/comments fired: {v:#?}");
    assert_eq!(v[0].rule, "R4");
    assert_eq!(v[0].line, 33, "the real unwrap is on line 33: {v:#?}");
}

#[test]
fn suppression_semantics() {
    let report = lint("suppressions.rs", Domain::Hot, include_str!("fixtures/suppressions.rs"));
    // Trailing and preceding-line allows suppress their violations, with
    // the reason preserved on the finding.
    let suppressed: Vec<_> = report.violations.iter().filter(|v| v.suppressed.is_some()).collect();
    assert_eq!(suppressed.len(), 2, "{report:#?}");
    assert!(suppressed.iter().all(|v| v.rule == "R4"));
    assert!(suppressed.iter().all(|v| v.suppressed.as_deref().unwrap().starts_with("fixture:")));
    // The reason-less allow suppresses nothing: its unwrap stays live.
    let live: Vec<_> = report.unsuppressed().collect();
    assert_eq!(live.len(), 1, "{live:#?}");
    assert_eq!(live[0].line, 15);
    // And both bad allows are reported: one malformed, one stale.
    assert_eq!(report.bad_suppressions.len(), 2, "{:#?}", report.bad_suppressions);
    assert!(report.bad_suppressions.iter().any(|b| b.missing_reason && b.line == 15));
    assert!(report.bad_suppressions.iter().any(|b| !b.missing_reason && b.line == 19));
}

#[test]
fn r7_park_under_lock_fires() {
    let report = lint("r7_positive.rs", Domain::Hot, include_str!("fixtures/r7_positive.rs"));
    let v = only_rule(&report, "R7");
    assert_eq!(v.len(), 2, "{v:#?}");
    // The resolved park-capable call is a deny; the unknown callee
    // (`probe`, an `impl Fn` parameter) is an advisory.
    let deny: Vec<_> = v.iter().filter(|x| !x.advisory).collect();
    let advisory: Vec<_> = v.iter().filter(|x| x.advisory).collect();
    assert_eq!(deny.len(), 1, "{v:#?}");
    assert!(deny[0].message.contains("Mail::recv"), "{}", deny[0].message);
    assert!(deny[0].message.contains("root::state"), "{}", deny[0].message);
    assert_eq!(advisory.len(), 1, "{v:#?}");
    assert!(advisory[0].message.contains("probe"), "{}", advisory[0].message);
}

#[test]
fn r7_guard_released_before_park_does_not_fire() {
    let report = lint("r7_negative.rs", Domain::Hot, include_str!("fixtures/r7_negative.rs"));
    assert!(report.is_clean(), "{report:#?}");
}

#[test]
fn r8_blocking_in_coroutine_fires() {
    let report = lint("r8_positive.rs", Domain::Hot, include_str!("fixtures/r8_positive.rs"));
    let v = only_rule(&report, "R8");
    assert_eq!(v.len(), 2, "{v:#?}");
    assert!(v.iter().any(|x| x.message.contains("std::fs::write")), "{v:#?}");
    assert!(v.iter().any(|x| x.message.contains("std::thread::yield_now")), "{v:#?}");
    assert!(v.iter().all(|x| !x.advisory), "R8 is a deny: {v:#?}");
    // The closure handed to run_batch was recognized as a coroutine root.
    assert_eq!(report.callgraph.roots.len(), 1, "{:#?}", report.callgraph.roots);
}

#[test]
fn r8_blocking_outside_coroutine_does_not_fire() {
    let report = lint("r8_negative.rs", Domain::Hot, include_str!("fixtures/r8_negative.rs"));
    assert!(report.is_clean(), "{report:#?}");
    assert_eq!(report.callgraph.roots.len(), 1, "{:#?}", report.callgraph.roots);
}

#[test]
fn r9_over_budget_root_and_recursion_fire() {
    let report = lint("r9_positive.rs", Domain::Hot, include_str!("fixtures/r9_positive.rs"));
    let v = only_rule(&report, "R9");
    // One over-budget deny on the root, one recursion advisory — the
    // cycle is reported once, not once per unrolling.
    let deny: Vec<_> = v.iter().filter(|x| !x.advisory).collect();
    let advisory: Vec<_> = v.iter().filter(|x| x.advisory).collect();
    assert_eq!(deny.len(), 1, "{v:#?}");
    assert!(deny[0].message.contains("128 KiB"), "{}", deny[0].message);
    assert_eq!(advisory.len(), 1, "{v:#?}");
    assert!(advisory[0].message.contains("recursion cycle"), "{}", advisory[0].message);
    assert!(advisory[0].message.contains("descend"), "{}", advisory[0].message);
    // The artifact carries the root's bound, over budget.
    assert_eq!(report.callgraph.roots.len(), 1, "{:#?}", report.callgraph.roots);
    let root = &report.callgraph.roots[0];
    assert!(root.bound_bytes > 128 * 1024, "{root:#?}");
    assert!(!root.recursive, "{root:#?}");
    assert!(root.path.iter().any(|f| f == "huge_frame"), "{root:#?}");
}

#[test]
fn r9_shallow_root_does_not_fire() {
    let report = lint("r9_negative.rs", Domain::Hot, include_str!("fixtures/r9_negative.rs"));
    assert!(report.is_clean(), "{report:#?}");
    let root = &report.callgraph.roots[0];
    assert!(root.bound_bytes > 1024, "the 1 KiB scratch buffer must be counted: {root:#?}");
    assert!(root.bound_bytes < 16 * 1024, "{root:#?}");
    assert_eq!(report.callgraph.max_bound_bytes(), root.bound_bytes);
}

#[test]
fn r9_a_foreign_receiver_is_not_recursion() {
    let src = include_str!("fixtures/r9_foreign_receiver.rs");
    let report = lint("r9_foreign_receiver.rs", Domain::Virtual, src);
    let v = only_rule(&report, "R9");
    // `other.events().eq(..)` in `Trace::eq` and `prof.span(..)` in a
    // closure of `Obs::span` are not cycles; `self.down(..)` still is.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert!(v[0].message.contains("`Walk::down -> Walk::down`"), "{}", v[0].message);
}

/// `lint_source` is `lint_workspace` over one file: on a one-crate tree
/// both report the same findings, lock graph and call graph.
#[test]
fn lint_source_and_lint_workspace_agree() {
    let src = "use std::time::Instant;\n\
               fn park_current() {}\n\
               pub struct Pair { alpha: Mutex<u64>, beta: Mutex<u64> }\n\
               impl Pair {\n\
               fn forward(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
               fn backward(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }\n\
               fn stall(&self) { let a = self.alpha.lock(); park_current(); }\n\
               }\n";
    let root = std::env::temp_dir().join(format!("detlint-agree-{}", std::process::id()));
    std::fs::create_dir_all(root.join("crates/x/src")).unwrap();
    std::fs::write(root.join("detlint.toml"), "[domains]\nx = \"virtual\"\n").unwrap();
    std::fs::write(root.join("crates/x/src/lib.rs"), src).unwrap();
    let tree = redcr_lint::lint_workspace(&root);
    std::fs::remove_dir_all(&root).unwrap();
    let tree = tree.unwrap();
    let one = lint_source("crates/x/src/lib.rs", Domain::Virtual, src);

    let shown = |r: &Report| -> Vec<String> {
        r.violations
            .iter()
            .map(|v| format!("{}:{}: {} {}", v.file, v.line, v.rule, v.message))
            .collect()
    };
    assert_eq!(rules_of(&one), ["R1", "R5", "R7"], "{one:#?}");
    assert_eq!(shown(&tree), shown(&one));
    assert_eq!(tree.lock_classes, one.lock_classes);
    assert_eq!(tree.lock_edges, one.lock_edges);
    assert_eq!(tree.callgraph.to_jsonl(), one.callgraph.to_jsonl());
    assert_eq!(tree.to_jsonl(), one.to_jsonl());
}

#[test]
fn r10_noncooperative_spin_fires() {
    let report = lint("r10_positive.rs", Domain::Hot, include_str!("fixtures/r10_positive.rs"));
    let v = only_rule(&report, "R10");
    assert_eq!(v.len(), 2, "one per loop flavor: {v:#?}");
    assert!(v.iter().any(|x| x.message.contains("`loop`")), "{v:#?}");
    assert!(v.iter().any(|x| x.message.contains("`while`")), "{v:#?}");
}

#[test]
fn r10_cooperative_and_for_loops_do_not_fire() {
    let report = lint("r10_negative.rs", Domain::Hot, include_str!("fixtures/r10_negative.rs"));
    assert!(report.is_clean(), "{report:#?}");
}
