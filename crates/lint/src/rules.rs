//! Lowering, the rule registry and suppressions. [`lower`] lexes,
//! test-masks and use-resolves a file exactly once, and the parser reads
//! that lowering for R5 and R7–R9. Also here: the two delimiter helpers
//! every pass shares, and suppression application.

use std::collections::BTreeMap;

use crate::lexer::{self, Lexed, Suppression, Tok, Token};
use crate::report::{BadSuppression, Violation};

/// One entry in the rule registry. `detlint::allow` comments naming an id
/// outside this table are reported as unknown (typo'd or retired) and fail
/// the run.
#[derive(Debug)]
pub struct RuleInfo {
    /// Rule id as written in allows and findings.
    pub id: &'static str,
    /// Why the rule exists, printed with every finding.
    pub rationale: &'static str,
}

/// The registry. R1–R4 are clippy's (clippy.toml and the hot crates'
/// `#![deny]`), and R6 and R10 are not rules: an allow naming any of them
/// fails as unknown.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "R5",
        rationale: "inconsistent lock acquisition order across threads can deadlock the rank fleet",
    },
    RuleInfo {
        id: "R7",
        rationale: "parking a coroutine while holding a lock keeps the lock held across the suspension; every other rank touching it then blocks an OS worker thread and the M:N pool can deadlock",
    },
    RuleInfo {
        id: "R8",
        rationale: "an OS-blocking call on a coroutine stack stalls the whole worker thread, serializing every rank multiplexed onto it and leaking wall-clock timing into the virtual-time domain",
    },
    RuleInfo {
        id: "R9",
        rationale: "coroutine stacks are fixed-size heap slabs guarded by a canary, not OS guard pages; an overflow corrupts adjacent memory before the canary check can catch it, so stack depth must be bounded statically",
    },
];

/// Whether `id` names a registered rule.
pub fn rule_known(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// A raw (unsuppressed) finding of `rule`, carrying the registry's
/// rationale.
pub fn finding(
    rule: &'static str,
    file: &str,
    line: u32,
    advisory: bool,
    message: String,
) -> Violation {
    let rationale = RULES.iter().find(|r| r.id == rule).map_or("", |r| r.rationale);
    Violation { rule, file: file.to_string(), line, advisory, message, rationale, suppressed: None }
}

/// One file, lowered once for every pass.
pub struct Lowered {
    /// Tokens and suppression comments.
    pub lexed: Lexed,
    /// Test-only tokens (see [`test_skip_mask`]); no rule looks at them.
    pub skip: Vec<bool>,
    /// Local alias → full `use` path, for the call resolver.
    pub aliases: BTreeMap<String, String>,
}

/// Lexes, test-masks and use-resolves `src`.
pub fn lower(src: &str) -> Lowered {
    let lexed = lexer::lex(src);
    let skip = test_skip_mask(&lexed);
    let aliases = parse_uses(&lexed.tokens);
    Lowered { lexed, skip, aliases }
}

/// The identifier at `i`, if any.
pub fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Whether the token at `i` is the punctuation `c`.
pub fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// The (opener, closer) pair of the delimiter at `at`: parentheses,
/// brackets, or braces for anything else.
fn delims(toks: &[Token], at: usize) -> (char, char) {
    match toks[at].tok {
        Tok::Punct('(' | ')') => ('(', ')'),
        Tok::Punct('[' | ']') => ('[', ']'),
        _ => ('{', '}'),
    }
}

/// The one forward matcher: index of the delimiter closing the `(`, `[`
/// or `{` at `open` (the last token when unbalanced).
pub fn match_delim(toks: &[Token], open: usize) -> usize {
    let (o, c) = delims(toks, open);
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct(p) if p == o => depth += 1,
            Tok::Punct(p) if p == c => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len() - 1
}

/// The one backward skipper: index of the `(` or `[` opening the group
/// that `close` ends (0 when unbalanced).
pub fn group_start(toks: &[Token], close: usize) -> usize {
    let (o, c) = delims(toks, close);
    let mut depth = 0usize;
    for j in (0..=close).rev() {
        match toks[j].tok {
            Tok::Punct(p) if p == c => depth += 1,
            Tok::Punct(p) if p == o => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    0
}

/// Computes the mask of tokens inside test-only code: items annotated
/// `#[test]`, `#[cfg(test)]` (including `#[cfg(all(test, …))]`), or any
/// `…::test` attribute path. `#[cfg(not(test))]` is production code and is
/// NOT masked.
fn test_skip_mask(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !is_attr_start(toks, i) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let (ids, mut j) = parse_attr(toks, i);
        if !is_test_attr(&ids) {
            i = j;
            continue;
        }
        // Consume any further attributes on the same item.
        while is_attr_start(toks, j) {
            let (_, nj) = parse_attr(toks, j);
            j = nj;
        }
        // Find the end of the annotated item: first `;` (e.g. `mod t;`,
        // `use …;`) or the close of the first `{…}` block (fn/mod body).
        let mut k = j;
        let mut end = toks.len();
        while k < toks.len() {
            match toks[k].tok {
                Tok::Punct(';') => {
                    end = k + 1;
                    break;
                }
                Tok::Punct('{') => {
                    end = match_delim(toks, k) + 1;
                    break;
                }
                _ => k += 1,
            }
        }
        for m in &mut mask[attr_start..end.min(toks.len())] {
            *m = true;
        }
        i = end;
    }
    mask
}

fn is_attr_start(toks: &[Token], i: usize) -> bool {
    punct_at(toks, i, '#') && punct_at(toks, i + 1, '[')
}

/// Parses `#[…]` starting at the `#`; returns the idents inside and the
/// index just past the closing `]`.
fn parse_attr(toks: &[Token], i: usize) -> (Vec<String>, usize) {
    let close = match_delim(toks, i + 1);
    let ids = (i + 1..close).filter_map(|j| ident_at(toks, j).map(str::to_string)).collect();
    (ids, close + 1)
}

fn is_test_attr(ids: &[String]) -> bool {
    if ids.iter().any(|s| s == "not") {
        return false;
    }
    match ids.first().map(String::as_str) {
        Some("test") => true,
        Some("cfg") => ids.iter().any(|s| s == "test"),
        // `#[tokio::test]`-style paths.
        _ => ids.last().is_some_and(|s| s == "test"),
    }
}

/// Resolves every `use` declaration into the alias map: local name →
/// full path.
fn parse_uses(toks: &[Token]) -> BTreeMap<String, String> {
    let mut aliases = BTreeMap::new();
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) != Some("use") {
            i += 1;
            continue;
        }
        // Find terminating `;` (use decls contain no semicolons inside).
        let mut end = i + 1;
        while end < toks.len() && !punct_at(toks, end, ';') {
            end += 1;
        }
        parse_use_tree(toks, i + 1, end, &mut Vec::new(), &mut aliases);
        i = end + 1;
    }
    aliases
}

/// Recursive-descent over one use tree between `i` and `end` (exclusive).
/// Returns the index after the parsed tree.
fn parse_use_tree(
    toks: &[Token],
    mut i: usize,
    end: usize,
    prefix: &mut Vec<String>,
    out: &mut BTreeMap<String, String>,
) -> usize {
    let depth_at_entry = prefix.len();
    while i < end {
        match &toks[i].tok {
            Tok::Ident(s) => {
                prefix.push(s.clone());
                i += 1;
                if punct_at(toks, i, ':') && punct_at(toks, i + 1, ':') {
                    i += 2;
                    continue;
                }
                // `as` rename, else the leaf names itself.
                let renamed = (ident_at(toks, i) == Some("as")).then(|| ident_at(toks, i + 1));
                let alias = match renamed {
                    Some(Some(alias)) => {
                        i += 2;
                        alias.to_string()
                    }
                    _ => s.clone(),
                };
                out.insert(alias, prefix.join("::"));
                prefix.truncate(depth_at_entry);
                return i;
            }
            Tok::Punct('{') => {
                i += 1;
                while i < end {
                    if punct_at(toks, i, '}') {
                        i += 1;
                        break;
                    }
                    i = parse_use_tree(toks, i, end, prefix, out);
                    if punct_at(toks, i, ',') {
                        i += 1;
                    }
                }
                prefix.truncate(depth_at_entry);
                return i;
            }
            // A glob (`*`, unresolvable) or anything else ends the tree.
            _ => {
                prefix.truncate(depth_at_entry);
                return i + 1;
            }
        }
    }
    prefix.truncate(depth_at_entry);
    i
}

/// Result of applying one file's suppressions.
#[derive(Debug, Default)]
pub struct SuppressionOutcome {
    /// Malformed, stale, or unknown-rule suppressions.
    pub bad_suppressions: Vec<BadSuppression>,
    /// Suppressions that covered at least one finding.
    pub suppressions_used: usize,
}

/// Applies `detlint::allow` comments for file `rel` over the (global)
/// finding list: a suppression on line N covers findings for its rule on
/// line N (trailing) and line N+1 (preceding). This runs at the end of
/// the whole pipeline, once every pass has contributed findings. Suppressions naming an unregistered rule id or
/// missing their reason cover nothing and are reported; unused ones are
/// reported as stale.
pub fn apply_suppressions(
    rel: &str,
    suppressions: &[Suppression],
    violations: &mut [Violation],
) -> SuppressionOutcome {
    let mut out = SuppressionOutcome::default();
    let mut used = vec![false; suppressions.len()];
    for v in violations.iter_mut().filter(|v| v.file == rel) {
        for (si, s) in suppressions.iter().enumerate() {
            if rule_known(&s.rule) && s.rule == v.rule && (v.line == s.line || v.line == s.line + 1)
            {
                if let Some(reason) = &s.reason {
                    v.suppressed = Some(reason.clone());
                    used[si] = true;
                    break;
                }
            }
        }
    }
    for (si, s) in suppressions.iter().enumerate() {
        if !rule_known(&s.rule) {
            out.bad_suppressions.push(BadSuppression {
                file: rel.to_string(),
                line: s.line,
                rule: s.rule.clone(),
                missing_reason: false,
                unknown_rule: true,
            });
        } else if s.reason.is_none() {
            out.bad_suppressions.push(BadSuppression {
                file: rel.to_string(),
                line: s.line,
                rule: s.rule.clone(),
                missing_reason: true,
                unknown_rule: false,
            });
        } else if used[si] {
            out.suppressions_used += 1;
        } else {
            out.bad_suppressions.push(BadSuppression {
                file: rel.to_string(),
                line: s.line,
                rule: s.rule.clone(),
                missing_reason: false,
                unknown_rule: false,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, Domain, Report};

    /// A coroutine root that reaches an OS-blocking call: one R8 finding,
    /// on the line of `std::fs::write`.
    const BLOCKING_ROOT: &str =
        "fn spawn(pool: &Pool) { pool.run_batch(|| { std::fs::write(\"x\", b\"y\").ok(); }); }\n";

    fn run(src: &str) -> Report {
        lint_source("t.rs", Domain::Checked, src)
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = format!("#[cfg(test)]\nmod tests {{\n  {BLOCKING_ROOT}  #[test]\n  fn t() {{ x.unwrap(); }}\n}}\n");
        let report = run(&src);
        assert!(report.violations.is_empty(), "{report:#?}");
        assert!(report.callgraph.roots.is_empty(), "masked code yields no root: {report:#?}");
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let report = run(&format!("#[cfg(not(test))]\n{BLOCKING_ROOT}"));
        assert_eq!(report.violations.len(), 1, "{report:#?}");
        assert_eq!(report.violations[0].rule, "R8");
        assert_eq!(report.violations[0].line, 2);
    }

    #[test]
    fn suppression_with_reason_clears_finding() {
        let src =
            format!("// detlint::allow(R8, reason = \"the write is the point\")\n{BLOCKING_ROOT}");
        let report = run(&src);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].suppressed.is_some());
        assert_eq!(report.suppressions_used, 1);
        assert!(report.bad_suppressions.is_empty());
    }

    #[test]
    fn suppression_without_reason_does_not_clear() {
        let report = run(&format!("// detlint::allow(R8)\n{BLOCKING_ROOT}"));
        assert!(report.violations[0].suppressed.is_none());
        assert!(report.bad_suppressions.iter().any(|b| b.missing_reason));
    }

    #[test]
    fn stale_suppression_reported() {
        let report = run("// detlint::allow(R8, reason = \"nothing here\")\nfn f() {}\n");
        assert!(report.violations.is_empty());
        assert_eq!(report.bad_suppressions.len(), 1);
        assert!(!report.bad_suppressions[0].missing_reason);
        assert!(!report.bad_suppressions[0].unknown_rule);
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged_and_suppresses_nothing() {
        // `R99` was never a rule and `R4` is retired to clippy; R8 fires
        // but both allows name the wrong id, so the finding stays live AND
        // both ids are reported.
        for id in ["R99", "R4"] {
            let report =
                run(&format!("// detlint::allow({id}, reason = \"wrong id\")\n{BLOCKING_ROOT}"));
            assert_eq!(report.violations.len(), 1);
            assert!(report.violations[0].suppressed.is_none(), "unknown rule must not suppress");
            let bad: Vec<_> = report.bad_suppressions.iter().filter(|b| b.unknown_rule).collect();
            assert_eq!(bad.len(), 1);
            assert_eq!(bad[0].rule, id);
        }
    }

    #[test]
    fn registry_covers_all_shipped_rules() {
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        assert_eq!(ids, ["R5", "R7", "R8", "R9"]);
        for retired in ["R1", "R2", "R3", "R4", "R6", "R10"] {
            assert!(!rule_known(retired), "{retired} is retired");
        }
        // Every finding has a rationale.
        assert!(RULES.iter().all(|r| !r.rationale.is_empty()));
    }

    #[test]
    fn hashmap_alias_resolved() {
        let low = lower("use std::collections::HashMap as Map;\nfn f() { let m = Map::new(); }\n");
        assert_eq!(low.aliases.len(), 1, "{:?}", low.aliases);
        assert_eq!(low.aliases["Map"], "std::collections::HashMap");
    }

    #[test]
    fn group_use_resolves_each_leaf() {
        let low = lower("use std::collections::{BTreeMap, HashMap, hash_map::RandomState};\n");
        let got: Vec<(&str, &str)> =
            low.aliases.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        assert_eq!(
            got,
            [
                ("BTreeMap", "std::collections::BTreeMap"),
                ("HashMap", "std::collections::HashMap"),
                ("RandomState", "std::collections::hash_map::RandomState"),
            ]
        );
    }
}
