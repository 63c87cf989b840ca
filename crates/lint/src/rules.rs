//! Lowering and the per-file rules. [`lower`] lexes, test-masks and
//! use-resolves a file exactly once; the banned-path rules R1–R3 and R6
//! and the no-panic rule R4 scan that lowering here, and the parser reads
//! the same one for R5 and R7–R10. Also here: the rule registry, the two
//! delimiter helpers every pass shares, and suppression application.

use std::collections::BTreeMap;

use crate::config::Domain;
use crate::lexer::{self, Lexed, Suppression, Tok, Token};
use crate::report::{BadSuppression, Violation};

/// One entry in the rule registry: every rule id `detlint` has ever
/// shipped. `detlint::allow` comments naming an id outside this table are
/// reported as unknown (typo'd or retired) and fail the run.
#[derive(Debug)]
pub struct RuleInfo {
    /// Rule id as written in allows and findings.
    pub id: &'static str,
    /// One-line summary for reports.
    pub summary: &'static str,
    /// Why the rule exists, printed with every finding.
    pub rationale: &'static str,
    /// True for a rule that binds only the hot domain; every other rule
    /// binds hot and virtual files alike.
    pub hot_only: bool,
}

/// The registry. Retired rules would stay here with a tombstone summary so
/// old allows keep parsing (none retired yet).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "R1",
        summary: "wall-clock reads in virtual-time code",
        rationale: "wall-clock reads leak host timing into the virtual-time domain and break bit-identical replay",
        hot_only: false,
    },
    RuleInfo {
        id: "R2",
        summary: "randomized-iteration-order collections",
        rationale: "HashMap/HashSet iteration order is seeded per process (RandomState); any ordered drain diverges between runs — use BTreeMap or a sorted drain",
        hot_only: false,
    },
    RuleInfo {
        id: "R3",
        summary: "unseeded randomness",
        rationale: "unseeded randomness breaks deterministic replay; all entropy must flow from an explicit seed",
        hot_only: false,
    },
    RuleInfo {
        id: "R4",
        summary: "panics in rank-thread hot paths",
        rationale: "a panicking rank never reaches the teardown protocol, deadlocking its peers — propagate a typed error instead",
        hot_only: true,
    },
    RuleInfo {
        id: "R5",
        summary: "lock-order cycles",
        rationale: "inconsistent lock acquisition order across threads can deadlock the rank fleet",
        hot_only: false,
    },
    RuleInfo {
        id: "R6",
        summary: "Relaxed atomic orderings (advisory)",
        rationale: "Relaxed ordering provides no happens-before; cross-thread control-flow flags may observe stale values (advisory)",
        hot_only: false,
    },
    RuleInfo {
        id: "R7",
        summary: "park/yield reachable under a live lock guard",
        rationale: "parking a coroutine while holding a lock keeps the lock held across the suspension; every other rank touching it then blocks an OS worker thread and the M:N pool can deadlock",
        hot_only: false,
    },
    RuleInfo {
        id: "R8",
        summary: "OS-blocking calls reachable from a coroutine",
        rationale: "an OS-blocking call on a coroutine stack stalls the whole worker thread, serializing every rank multiplexed onto it and leaking wall-clock timing into the virtual-time domain",
        hot_only: false,
    },
    RuleInfo {
        id: "R9",
        summary: "coroutine stack bound over budget / recursion",
        rationale: "coroutine stacks are fixed-size heap slabs guarded by a canary, not OS guard pages; an overflow corrupts adjacent memory before the canary check can catch it, so stack depth must be bounded statically",
        hot_only: false,
    },
    RuleInfo {
        id: "R10",
        summary: "non-cooperative spin loop in coroutine code",
        rationale: "a loop that never reaches a yield, park, or recv monopolizes its worker thread; under cooperative scheduling the other ranks on that worker starve forever",
        hot_only: false,
    },
];

/// Whether `id` names a registered rule.
pub fn rule_known(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Whether `rule` applies to files in `domain`: hot files get every rule,
/// virtual files every rule but the hot-only ones, other domains none.
pub fn rule_active(rule: &str, domain: Domain) -> bool {
    match domain {
        Domain::Hot => true,
        Domain::Virtual => !RULES.iter().any(|r| r.id == rule && r.hot_only),
        Domain::Wallclock | Domain::Tooling | Domain::Test => false,
    }
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

/// A banned fully-qualified path prefix.
struct BannedPath {
    rule: &'static str,
    /// Matches the resolved path exactly or on a `::` segment boundary.
    prefix: &'static str,
    advisory: bool,
}

const BANNED_PATHS: &[BannedPath] = &[
    BannedPath { rule: "R1", prefix: "std::time::Instant", advisory: false },
    BannedPath { rule: "R1", prefix: "std::time::SystemTime", advisory: false },
    BannedPath { rule: "R2", prefix: "std::collections::HashMap", advisory: false },
    BannedPath { rule: "R2", prefix: "std::collections::HashSet", advisory: false },
    BannedPath { rule: "R3", prefix: "rand::thread_rng", advisory: false },
    BannedPath { rule: "R3", prefix: "rand::random", advisory: false },
    BannedPath { rule: "R3", prefix: "std::collections::hash_map::RandomState", advisory: false },
    BannedPath { rule: "R6", prefix: "std::sync::atomic::Ordering::Relaxed", advisory: true },
];

/// Bare method/function segments banned by R3 wherever they appear (they
/// draw from OS entropy regardless of the receiver type).
const BANNED_SEGMENTS_R3: &[&str] = &["thread_rng", "from_entropy"];

/// One file, lowered once for every pass.
pub struct Lowered {
    /// Tokens and suppression comments.
    pub lexed: Lexed,
    /// Test-only tokens (see [`test_skip_mask`]); no rule looks at them.
    pub skip: Vec<bool>,
    /// Local alias → full `use` path, for the banned-path scan and the
    /// call resolver alike.
    pub aliases: BTreeMap<String, String>,
    imports: Vec<Import>,
    /// Tokens belonging to `use` declarations.
    in_use: Vec<bool>,
}

/// Lexes, test-masks and use-resolves `src`.
pub fn lower(src: &str) -> Lowered {
    let lexed = lexer::lex(src);
    let skip = test_skip_mask(&lexed);
    let (imports, in_use) = parse_uses(&lexed.tokens);
    let aliases = imports.iter().map(|imp| (imp.alias.clone(), imp.path.join("::"))).collect();
    Lowered { lexed, skip, aliases, imports, in_use }
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

/// One resolved import: local alias → full path segments.
#[derive(Debug)]
struct Import {
    alias: String,
    path: Vec<String>,
    line: u32,
    token_index: usize,
}

/// Parses every `use` declaration; returns imports and the mask of tokens
/// belonging to use declarations (so the expression scan skips them).
fn parse_uses(toks: &[Token]) -> (Vec<Import>, Vec<bool>) {
    let mut imports = Vec::new();
    let mut in_use = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) != Some("use") {
            i += 1;
            continue;
        }
        let start = i;
        // Find terminating `;` (use decls contain no semicolons inside).
        let mut end = i + 1;
        while end < toks.len() && !punct_at(toks, end, ';') {
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
                if punct_at(toks, i, ':') && punct_at(toks, i + 1, ':') {
                    i += 2;
                    continue;
                }
                // `as` rename?
                if ident_at(toks, i) == Some("as") {
                    if let Some(alias) = ident_at(toks, i + 1) {
                        out.push(Import {
                            alias: alias.to_string(),
                            path: prefix.clone(),
                            line: toks[i + 1].line,
                            token_index: i + 1,
                        });
                        prefix.truncate(depth_at_entry);
                        return i + 2;
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

/// What a resolved path hits, as (rule, advisory, verb): its banned-table
/// entry ("reference to"), else R3 when an entropy segment appears
/// anywhere in it ("call of").
fn banned(
    full: &str,
    segs: &[String],
    domain: Domain,
) -> Option<(&'static str, bool, &'static str)> {
    let hit = BANNED_PATHS.iter().find(|b| {
        rule_active(b.rule, domain)
            && (full == b.prefix
                || (full.starts_with(b.prefix) && full[b.prefix.len()..].starts_with("::")))
    });
    match hit {
        Some(b) => Some((b.rule, b.advisory, "reference to")),
        None => (rule_active("R3", domain)
            && segs.iter().any(|s| BANNED_SEGMENTS_R3.contains(&s.as_str())))
        .then_some(("R3", false, "call of")),
    }
}

/// Runs R1–R4 and R6 over one lowered file, returning raw findings.
/// Suppressions are applied later by [`apply_suppressions`], once every
/// pass (including the interprocedural ones) has contributed findings.
pub fn check_file(rel: &str, domain: Domain, low: &Lowered) -> Vec<Violation> {
    let mut out = Vec::new();
    let toks = &low.lexed.tokens;

    // Banned imports at the `use` site itself.
    for imp in &low.imports {
        if low.skip.get(imp.token_index).copied().unwrap_or(false) {
            continue;
        }
        let full = imp.path.join("::");
        if let Some((rule, advisory, _)) = banned(&full, &imp.path, domain) {
            out.push(finding(rule, rel, imp.line, advisory, format!("import of `{full}`")));
        }
    }

    // Expression scan: resolved path chains + R4 panic patterns.
    let r4 = rule_active("R4", domain);
    let mut i = 0usize;
    while i < toks.len() {
        if low.skip[i] || low.in_use[i] {
            i += 1;
            continue;
        }
        match &toks[i].tok {
            Tok::Ident(first) => {
                // R4: bare panic-family macros.
                if r4
                    && matches!(first.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
                    && punct_at(toks, i + 1, '!')
                {
                    let msg = format!("`{first}!` in rank-thread hot path");
                    out.push(finding("R4", rel, toks[i].line, false, msg));
                    i += 2;
                    continue;
                }
                // Collect the `a::b::c` chain.
                let line = toks[i].line;
                let mut chain = vec![first.clone()];
                let mut j = i + 1;
                while punct_at(toks, j, ':') && punct_at(toks, j + 1, ':') {
                    let Some(s) = ident_at(toks, j + 2) else { break };
                    chain.push(s.to_string());
                    j += 3;
                }
                // Resolve through the alias map.
                let full = match low.aliases.get(&chain[0]) {
                    Some(expansion) => {
                        let mut f = expansion.clone();
                        for seg in &chain[1..] {
                            f.push_str("::");
                            f.push_str(seg);
                        }
                        f
                    }
                    None => chain.join("::"),
                };
                if let Some((rule, advisory, verb)) = banned(&full, &chain, domain) {
                    out.push(finding(rule, rel, line, advisory, format!("{verb} `{full}`")));
                }
                i = j;
            }
            // R4: `.unwrap()` / `.expect(`.
            Tok::Punct('.')
                if r4
                    && matches!(ident_at(toks, i + 1), Some("unwrap" | "expect"))
                    && punct_at(toks, i + 2, '(') =>
            {
                let msg =
                    format!("`.{}()` in rank-thread hot path", ident_at(toks, i + 1).unwrap_or(""));
                out.push(finding("R4", rel, toks[i + 1].line, false, msg));
                i += 3;
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

    fn run(domain: Domain, src: &str) -> Vec<Violation> {
        check_file("t.rs", domain, &lower(src))
    }

    /// check_file + suppression application, mirroring the pipeline.
    fn run_suppressed(domain: Domain, src: &str) -> (Vec<Violation>, SuppressionOutcome) {
        let low = lower(src);
        let mut vs = check_file("t.rs", domain, &low);
        let out = apply_suppressions("t.rs", &low.lexed.suppressions, &mut vs);
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
        // R4 is the one hot-only rule, and every finding has a rationale.
        let hot_only: Vec<&str> = RULES.iter().filter(|r| r.hot_only).map(|r| r.id).collect();
        assert_eq!(hot_only, ["R4"]);
        assert!(RULES.iter().all(|r| !r.rationale.is_empty()));
        assert!(rule_active("R4", Domain::Hot) && !rule_active("R4", Domain::Virtual));
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
