//! Per-file rule pass: the banned-path rules R1–R3 and R6, the no-panic
//! rule R4, test-code masking, `use`-resolution, and suppression
//! application. The lock-order pass R5 lives in [`crate::lockorder`] and
//! shares the test mask computed here.

use std::collections::BTreeMap;

use crate::config::Domain;
use crate::lexer::{Lexed, Tok, Token};
use crate::report::{BadSuppression, Violation};

/// Why each rule exists, printed with every finding.
pub const RATIONALE_R1: &str =
    "wall-clock reads leak host timing into the virtual-time domain and break bit-identical replay";
pub const RATIONALE_R2: &str = "HashMap/HashSet iteration order is seeded per process (RandomState); any ordered drain diverges between runs — use BTreeMap or a sorted drain";
pub const RATIONALE_R3: &str =
    "unseeded randomness breaks deterministic replay; all entropy must flow from an explicit seed";
pub const RATIONALE_R4: &str = "a panicking rank never reaches the teardown protocol, deadlocking its peers — propagate a typed error instead";
pub const RATIONALE_R5: &str =
    "inconsistent lock acquisition order across threads can deadlock the rank fleet";
pub const RATIONALE_R6: &str = "Relaxed ordering provides no happens-before; cross-thread control-flow flags may observe stale values (advisory)";
pub const RATIONALE_R7: &str = "parking a coroutine while holding a lock keeps the lock held across the suspension; every other rank touching it then blocks an OS worker thread and the M:N pool can deadlock";
pub const RATIONALE_R8: &str = "an OS-blocking call on a coroutine stack stalls the whole worker thread, serializing every rank multiplexed onto it and leaking wall-clock timing into the virtual-time domain";
pub const RATIONALE_R9: &str = "coroutine stacks are fixed-size heap slabs guarded by a canary, not OS guard pages; an overflow corrupts adjacent memory before the canary check can catch it, so stack depth must be bounded statically";
pub const RATIONALE_R10: &str = "a loop that never reaches a yield, park, or recv monopolizes its worker thread; under cooperative scheduling the other ranks on that worker starve forever";

/// One entry in the rule registry: every rule id `detlint` has ever
/// shipped. `detlint::allow` comments naming an id outside this table are
/// reported as unknown (typo'd or retired) and fail the run.
#[derive(Debug)]
pub struct RuleInfo {
    /// Rule id as written in allows and findings.
    pub id: &'static str,
    /// One-line summary for reports.
    pub summary: &'static str,
    /// True for the call-graph rules (R7–R10); false for per-file rules.
    pub interprocedural: bool,
}

/// The registry. Retired rules would stay here with a tombstone summary so
/// old allows keep parsing (none retired yet).
pub const RULES: &[RuleInfo] = &[
    RuleInfo { id: "R1", summary: "wall-clock reads in virtual-time code", interprocedural: false },
    RuleInfo {
        id: "R2",
        summary: "randomized-iteration-order collections",
        interprocedural: false,
    },
    RuleInfo { id: "R3", summary: "unseeded randomness", interprocedural: false },
    RuleInfo { id: "R4", summary: "panics in rank-thread hot paths", interprocedural: false },
    RuleInfo { id: "R5", summary: "lock-order cycles", interprocedural: false },
    RuleInfo { id: "R6", summary: "Relaxed atomic orderings (advisory)", interprocedural: false },
    RuleInfo {
        id: "R7",
        summary: "park/yield reachable under a live lock guard",
        interprocedural: true,
    },
    RuleInfo {
        id: "R8",
        summary: "OS-blocking calls reachable from a coroutine",
        interprocedural: true,
    },
    RuleInfo {
        id: "R9",
        summary: "coroutine stack bound over budget / recursion",
        interprocedural: true,
    },
    RuleInfo {
        id: "R10",
        summary: "non-cooperative spin loop in coroutine code",
        interprocedural: true,
    },
];

/// Whether `id` names a registered rule.
pub fn rule_known(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// A banned fully-qualified path prefix.
struct BannedPath {
    rule: &'static str,
    /// Matches the resolved path exactly or on a `::` segment boundary.
    prefix: &'static str,
    advisory: bool,
    rationale: &'static str,
}

const BANNED_PATHS: &[BannedPath] = &[
    BannedPath {
        rule: "R1",
        prefix: "std::time::Instant",
        advisory: false,
        rationale: RATIONALE_R1,
    },
    BannedPath {
        rule: "R1",
        prefix: "std::time::SystemTime",
        advisory: false,
        rationale: RATIONALE_R1,
    },
    BannedPath {
        rule: "R2",
        prefix: "std::collections::HashMap",
        advisory: false,
        rationale: RATIONALE_R2,
    },
    BannedPath {
        rule: "R2",
        prefix: "std::collections::HashSet",
        advisory: false,
        rationale: RATIONALE_R2,
    },
    BannedPath { rule: "R3", prefix: "rand::thread_rng", advisory: false, rationale: RATIONALE_R3 },
    BannedPath { rule: "R3", prefix: "rand::random", advisory: false, rationale: RATIONALE_R3 },
    BannedPath {
        rule: "R3",
        prefix: "std::collections::hash_map::RandomState",
        advisory: false,
        rationale: RATIONALE_R3,
    },
    BannedPath {
        rule: "R6",
        prefix: "std::sync::atomic::Ordering::Relaxed",
        advisory: true,
        rationale: RATIONALE_R6,
    },
];

/// Bare method/function segments banned by R3 wherever they appear (they
/// draw from OS entropy regardless of the receiver type).
const BANNED_SEGMENTS_R3: &[&str] = &["thread_rng", "from_entropy"];

/// Whether `rule` applies to files in `domain`. The interprocedural rules
/// R7–R10 fire wherever the parser runs (hot + virtual); this predicate
/// gates the per-file rules and documents the contract for both.
pub fn rule_active(rule: &str, domain: Domain) -> bool {
    match domain {
        Domain::Hot => {
            matches!(rule, "R1" | "R2" | "R3" | "R4" | "R5" | "R6" | "R7" | "R8" | "R9" | "R10")
        }
        Domain::Virtual => {
            matches!(rule, "R1" | "R2" | "R3" | "R5" | "R6" | "R7" | "R8" | "R9" | "R10")
        }
        Domain::Wallclock | Domain::Tooling | Domain::Test => false,
    }
}

/// Computes the mask of tokens inside test-only code: items annotated
/// `#[test]`, `#[cfg(test)]` (including `#[cfg(all(test, …))]`), or any
/// `…::test` attribute path. `#[cfg(not(test))]` is production code and is
/// NOT masked.
pub fn test_skip_mask(lexed: &Lexed) -> Vec<bool> {
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
                    end = match_brace(toks, k) + 1;
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
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct('#')))
        && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
}

/// Parses `#[…]` starting at the `#`; returns the idents inside and the
/// index just past the closing `]`.
fn parse_attr(toks: &[Token], i: usize) -> (Vec<String>, usize) {
    let mut ids = Vec::new();
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (ids, j + 1);
                }
            }
            Tok::Ident(s) => ids.push(s.clone()),
            _ => {}
        }
        j += 1;
    }
    (ids, j)
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

/// Finds the index of the `}` matching the `{` at `open`.
pub fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len() - 1
}

/// One resolved import: local alias → full path segments.
#[derive(Debug)]
pub(crate) struct Import {
    pub(crate) alias: String,
    pub(crate) path: Vec<String>,
    pub(crate) line: u32,
    pub(crate) token_index: usize,
}

/// Parses every `use` declaration; returns imports and the mask of tokens
/// belonging to use declarations (so the expression scan skips them).
pub(crate) fn parse_uses(toks: &[Token]) -> (Vec<Import>, Vec<bool>) {
    let mut imports = Vec::new();
    let mut in_use = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        let is_use = matches!(&toks[i].tok, Tok::Ident(s) if s == "use");
        if !is_use {
            i += 1;
            continue;
        }
        let start = i;
        // Find terminating `;` (use decls contain no semicolons inside).
        let mut end = i + 1;
        while end < toks.len() && !matches!(toks[end].tok, Tok::Punct(';')) {
            end += 1;
        }
        for m in &mut in_use[start..=end.min(toks.len() - 1)] {
            *m = true;
        }
        parse_use_tree(toks, i + 1, end, &mut Vec::new(), &mut imports);
        i = end + 1;
    }
    (imports, in_use)
}

/// Recursive-descent over one use tree between `i` and `end` (exclusive).
/// Returns the index after the parsed tree.
fn parse_use_tree(
    toks: &[Token],
    mut i: usize,
    end: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<Import>,
) -> usize {
    let depth_at_entry = prefix.len();
    while i < end {
        match &toks[i].tok {
            Tok::Ident(s) => {
                prefix.push(s.clone());
                i += 1;
                if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(':')))
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                {
                    i += 2;
                    continue;
                }
                // `as` rename?
                if let Some(Tok::Ident(kw)) = toks.get(i).map(|t| &t.tok) {
                    if kw == "as" {
                        if let Some(Tok::Ident(alias)) = toks.get(i + 1).map(|t| &t.tok) {
                            out.push(Import {
                                alias: alias.clone(),
                                path: prefix.clone(),
                                line: toks[i + 1].line,
                                token_index: i + 1,
                            });
                            prefix.truncate(depth_at_entry);
                            return i + 2;
                        }
                    }
                }
                // Leaf without rename.
                out.push(Import {
                    alias: prefix.last().cloned().unwrap_or_default(),
                    path: prefix.clone(),
                    line: toks[i - 1].line,
                    token_index: i - 1,
                });
                prefix.truncate(depth_at_entry);
                return i;
            }
            Tok::Punct('{') => {
                i += 1;
                loop {
                    if i >= end {
                        break;
                    }
                    if matches!(toks[i].tok, Tok::Punct('}')) {
                        i += 1;
                        break;
                    }
                    i = parse_use_tree(toks, i, end, prefix, out);
                    if matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(','))) {
                        i += 1;
                    }
                }
                prefix.truncate(depth_at_entry);
                return i;
            }
            Tok::Punct('*') => {
                // Glob: unresolvable, ignore.
                prefix.truncate(depth_at_entry);
                return i + 1;
            }
            _ => {
                prefix.truncate(depth_at_entry);
                return i + 1;
            }
        }
    }
    prefix.truncate(depth_at_entry);
    i
}

/// Checks a resolved path against the banned table; returns the match.
fn banned_match(full: &str, domain: Domain) -> Option<&'static BannedPath> {
    BANNED_PATHS.iter().find(|b| {
        rule_active(b.rule, domain)
            && (full == b.prefix
                || (full.starts_with(b.prefix) && full[b.prefix.len()..].starts_with("::")))
    })
}

/// Runs R1–R4 and R6 over one lexed file, returning raw findings.
/// Suppressions are applied later by [`apply_suppressions`], once every
/// pass (including the interprocedural ones) has contributed findings.
pub fn check_file(rel: &str, domain: Domain, lexed: &Lexed, skip: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    let toks = &lexed.tokens;
    let (imports, in_use) = parse_uses(toks);

    // Alias map: local name → full path. `self`/`crate`/`super`-rooted
    // paths can never resolve to std/rand, but keeping them is harmless.
    let mut use_map: BTreeMap<&str, String> = BTreeMap::new();
    for imp in &imports {
        use_map.insert(imp.alias.as_str(), imp.path.join("::"));
    }

    // Banned imports at the `use` site itself.
    for imp in &imports {
        if skip.get(imp.token_index).copied().unwrap_or(false) {
            continue;
        }
        let full = imp.path.join("::");
        if let Some(b) = banned_match(&full, domain) {
            out.push(Violation {
                rule: b.rule,
                file: rel.to_string(),
                line: imp.line,
                advisory: b.advisory,
                message: format!("import of `{full}`"),
                rationale: b.rationale,
                suppressed: None,
            });
        } else if rule_active("R3", domain)
            && imp.path.iter().any(|s| BANNED_SEGMENTS_R3.contains(&s.as_str()))
        {
            out.push(Violation {
                rule: "R3",
                file: rel.to_string(),
                line: imp.line,
                advisory: false,
                message: format!("import of `{full}`"),
                rationale: RATIONALE_R3,
                suppressed: None,
            });
        }
    }

    // Expression scan: resolved path chains + R4 panic patterns.
    let mut i = 0usize;
    while i < toks.len() {
        if skip[i] || in_use[i] {
            i += 1;
            continue;
        }
        match &toks[i].tok {
            Tok::Ident(first) => {
                // R4: bare panic-family macros.
                if rule_active("R4", domain)
                    && matches!(first.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
                    && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!')))
                {
                    out.push(Violation {
                        rule: "R4",
                        file: rel.to_string(),
                        line: toks[i].line,
                        advisory: false,
                        message: format!("`{first}!` in rank-thread hot path"),
                        rationale: RATIONALE_R4,
                        suppressed: None,
                    });
                    i += 2;
                    continue;
                }
                // Collect the `a::b::c` chain.
                let line = toks[i].line;
                let mut chain = vec![first.clone()];
                let mut j = i + 1;
                while matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct(':')))
                    && matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
                {
                    match toks.get(j + 2).map(|t| &t.tok) {
                        Some(Tok::Ident(s)) => {
                            chain.push(s.clone());
                            j += 3;
                        }
                        _ => break,
                    }
                }
                // Resolve through the alias map.
                let full = match use_map.get(chain[0].as_str()) {
                    Some(expansion) if chain.len() > 1 => {
                        let mut f = expansion.clone();
                        for seg in &chain[1..] {
                            f.push_str("::");
                            f.push_str(seg);
                        }
                        f
                    }
                    Some(expansion) => expansion.clone(),
                    None => chain.join("::"),
                };
                if let Some(b) = banned_match(&full, domain) {
                    out.push(Violation {
                        rule: b.rule,
                        file: rel.to_string(),
                        line,
                        advisory: b.advisory,
                        message: format!("reference to `{full}`"),
                        rationale: b.rationale,
                        suppressed: None,
                    });
                } else if rule_active("R3", domain)
                    && chain.iter().any(|s| BANNED_SEGMENTS_R3.contains(&s.as_str()))
                {
                    out.push(Violation {
                        rule: "R3",
                        file: rel.to_string(),
                        line,
                        advisory: false,
                        message: format!("call of `{full}`"),
                        rationale: RATIONALE_R3,
                        suppressed: None,
                    });
                }
                i = j;
            }
            Tok::Punct('.') => {
                // R4: `.unwrap()` / `.expect(`.
                if rule_active("R4", domain) {
                    if let Some(Tok::Ident(m)) = toks.get(i + 1).map(|t| &t.tok) {
                        if (m == "unwrap" || m == "expect")
                            && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct('(')))
                        {
                            out.push(Violation {
                                rule: "R4",
                                file: rel.to_string(),
                                line: toks[i + 1].line,
                                advisory: false,
                                message: format!("`.{m}()` in rank-thread hot path"),
                                rationale: RATIONALE_R4,
                                suppressed: None,
                            });
                            i += 3;
                            continue;
                        }
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }

    out
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
/// the whole pipeline so interprocedural findings (R5, R7–R10) suppress
/// like per-file ones. Suppressions naming an unregistered rule id or
/// missing their reason cover nothing and are reported; unused ones are
/// reported as stale.
pub fn apply_suppressions(
    rel: &str,
    suppressions: &[crate::lexer::Suppression],
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
    use crate::lexer::lex;

    fn run(domain: Domain, src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        let skip = test_skip_mask(&lexed);
        check_file("t.rs", domain, &lexed, &skip)
    }

    /// check_file + suppression application, mirroring the pipeline.
    fn run_suppressed(domain: Domain, src: &str) -> (Vec<Violation>, SuppressionOutcome) {
        let lexed = lex(src);
        let skip = test_skip_mask(&lexed);
        let mut vs = check_file("t.rs", domain, &lexed, &skip);
        let out = apply_suppressions("t.rs", &lexed.suppressions, &mut vs);
        (vs, out)
    }

    #[test]
    fn instant_flagged_in_virtual_not_wallclock() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let vs = run(Domain::Virtual, src);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(vs.iter().all(|v| v.rule == "R1"));
        assert_eq!(vs[0].line, 1);
        assert_eq!(vs[1].line, 2);
        assert!(run(Domain::Wallclock, src).is_empty());
    }

    #[test]
    fn hashmap_alias_resolved() {
        let src = "use std::collections::HashMap as Map;\nfn f() { let m: Map<u32, u32> = Map::new(); }\n";
        let vs = run(Domain::Virtual, src);
        assert!(vs.iter().all(|v| v.rule == "R2"));
        assert_eq!(vs.len(), 3, "{vs:?}"); // import + 2 references
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  #[test]\n  fn t() { let _ = HashMap::<u8, u8>::new(); x.unwrap(); }\n}\n";
        assert!(run(Domain::Hot, src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }\n";
        let vs = run(Domain::Hot, src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "R4");
    }

    #[test]
    fn panic_family_flagged_only_in_hot() {
        let src = "fn f() { panic!(\"boom\"); y.expect(\"msg\"); }\n";
        let vs = run(Domain::Hot, src);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(run(Domain::Virtual, src).is_empty());
    }

    #[test]
    fn relaxed_is_advisory() {
        let src = "use std::sync::atomic::Ordering;\nfn f() { x.load(Ordering::Relaxed); x.load(Ordering::SeqCst); }\n";
        let vs = run(Domain::Virtual, src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "R6");
        assert!(vs[0].advisory);
    }

    #[test]
    fn cmp_ordering_not_confused_with_atomic() {
        let src = "use std::cmp::Ordering;\nfn f() -> Ordering { Ordering::Less }\n";
        assert!(run(Domain::Virtual, src).is_empty());
    }

    #[test]
    fn suppression_with_reason_clears_finding() {
        let src = "// detlint::allow(R2, reason = \"keyed access only; never iterated\")\nuse std::collections::HashMap;\n";
        let (vs, out) = run_suppressed(Domain::Virtual, src);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].suppressed.is_some());
        assert_eq!(out.suppressions_used, 1);
        assert!(out.bad_suppressions.is_empty());
    }

    #[test]
    fn suppression_without_reason_does_not_clear() {
        let src = "// detlint::allow(R2)\nuse std::collections::HashSet;\n";
        let (vs, out) = run_suppressed(Domain::Virtual, src);
        assert!(vs[0].suppressed.is_none());
        assert!(out.bad_suppressions.iter().any(|b| b.missing_reason));
    }

    #[test]
    fn stale_suppression_reported() {
        let src = "// detlint::allow(R1, reason = \"nothing here\")\nfn f() {}\n";
        let (vs, out) = run_suppressed(Domain::Virtual, src);
        assert!(vs.is_empty());
        assert_eq!(out.bad_suppressions.len(), 1);
        assert!(!out.bad_suppressions[0].missing_reason);
        assert!(!out.bad_suppressions[0].unknown_rule);
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged_and_suppresses_nothing() {
        // `R99` was never a rule; `R2` would fire but the allow names the
        // wrong id, so the finding stays live AND the typo is reported.
        let src =
            "// detlint::allow(R99, reason = \"typo'd rule id\")\nuse std::collections::HashMap;\n";
        let (vs, out) = run_suppressed(Domain::Virtual, src);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].suppressed.is_none(), "unknown rule must not suppress");
        let bad: Vec<_> = out.bad_suppressions.iter().filter(|b| b.unknown_rule).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "R99");
    }

    #[test]
    fn registry_covers_all_shipped_rules() {
        for id in ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10"] {
            assert!(rule_known(id), "{id} missing from registry");
        }
        assert!(!rule_known("R0"));
        assert!(!rule_known("R11"));
        // Interprocedural split matches the pass structure.
        assert!(RULES.iter().filter(|r| r.interprocedural).count() == 4);
    }

    #[test]
    fn group_use_resolves_each_leaf() {
        let src = "use std::collections::{BTreeMap, HashMap, hash_map::RandomState};\n";
        let vs = run(Domain::Virtual, src);
        let rules: Vec<&str> = vs.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"R2"));
        assert!(rules.contains(&"R3"));
        assert_eq!(vs.len(), 2, "{vs:?}");
    }

    #[test]
    fn thread_rng_segment_flagged() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        let vs = run(Domain::Virtual, src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "R3");
    }

    #[test]
    fn seeded_rng_ok() {
        let src =
            "use rand::SeedableRng;\nfn f(seed: u64) { let rng = StdRng::seed_from_u64(seed); }\n";
        assert!(run(Domain::Virtual, src).is_empty());
    }
}
