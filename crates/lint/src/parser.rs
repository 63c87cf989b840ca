//! Recursive-descent item/expression parser: turns the token stream into
//! a lightweight per-function AST for the lock-order fold R5 and the
//! interprocedural rules R7–R9.
//!
//! For every `fn` item (and every closure literal, which becomes a
//! synthetic `outer::{closure@LINE}` function) the parser records:
//!
//! * every **call site** — path calls (`a::b::f(…)`), method calls
//!   (`x.f(…)`), and calls through local bindings / parameters
//!   (`f(…)` where `f` is a local — an *unknown callee*);
//! * every **lock acquisition** (`.lock(`, temporaries included) with the
//!   guards live at it — the R5 lock graph is a fold over these records —
//!   and the **lock guards live** at each call site, for R7. One guard
//!   model serves both: a guard bound by `let g = x.lock()` (or `g = …`)
//!   lives until `drop(g)` or its scope's closing brace; a temporary
//!   guard binds nothing;
//! * a **frame-size estimate** for the stack-budget rule R9: a fixed base
//!   per frame plus a slot per local/parameter plus the byte size of
//!   by-value arrays (`[T; N]` types and `[expr; N]` literals).
//!
//! Soundness caveats (documented in DESIGN §4f): macros are not expanded
//! (calls *inside* macro arguments are still seen; calls *generated* by a
//! macro body are not); trait-method calls resolve by method name across
//! every impl (over-approximation); calls through function values are
//! unknown callees (under-approximation, surfaced as advisories by R7);
//! frame sizes are estimates, not ABI truth.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, Token};
use crate::rules::{group_start, ident_at, match_delim, punct_at, Lowered};

/// Fixed per-frame overhead estimate: return address, saved registers,
/// alignment and spill slack.
pub const FRAME_BASE_BYTES: u64 = 128;
/// Estimated bytes per scalar local or by-value parameter (most are a
/// word or two; 16 covers fat pointers and small aggregates).
pub const LOCAL_SLOT_BYTES: u64 = 16;

/// All parsed functions across the workspace plus per-file import maps.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Every function and closure, in file order.
    pub functions: Vec<FnDef>,
    /// File → (local alias → full `use` path) for call resolution.
    pub file_aliases: BTreeMap<String, BTreeMap<String, String>>,
}

/// One parsed function or closure.
#[derive(Debug)]
pub struct FnDef {
    /// `f`, `Type::f`, or `outer::{closure@LINE}`.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// Crate directory name (`simmpi`, …) or `root`.
    pub crate_name: String,
    /// 1-based line of the `fn` keyword / closure's `|`.
    pub line: u32,
    /// R9 frame estimate in bytes.
    pub frame_bytes: u64,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Lock acquisitions in body order.
    pub locks: Vec<LockSite>,
    /// Global index of the enclosing function, for closures.
    pub parent: Option<usize>,
    /// Last path/method segment of the call this closure literal is an
    /// argument of (`run_batch`, `map`, …), if any.
    pub passed_to: Option<String>,
    /// True for closure literals.
    pub is_closure: bool,
    /// False for bodyless trait-method declarations (`fn m(…);`): a call
    /// resolving only to declarations is a trait-dispatch site, and the
    /// resolver widens it to every same-named impl.
    pub has_body: bool,
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// What is being called.
    pub callee: Callee,
    /// 1-based line of the callee token.
    pub line: u32,
    /// Lock classes (`crate::field`) held when the call happens.
    pub guards: Vec<String>,
}

/// One `.lock(` acquisition, temporaries included: the R5 fold's input.
#[derive(Debug)]
pub struct LockSite {
    /// Lock class: `crate::receiver`, or `crate::<expr>` without one.
    pub class: String,
    /// 1-based line of the `lock` token.
    pub line: u32,
    /// Classes of the guards live in this body when the lock is taken (a
    /// closure's definition-site guards are its `Callee::Closure` site's).
    pub held: Vec<String>,
}

/// Call-site classification.
#[derive(Debug)]
pub enum Callee {
    /// `a::b::f(…)` — path segments as written (aliases unresolved).
    Path(Vec<String>),
    /// `recv.f(…)` — method name plus the receiver's last identifier.
    Method { name: String, receiver: Option<String> },
    /// `f(…)` where `f` is a local binding or parameter: unknown callee.
    Dynamic(String),
    /// A closure literal defined here (global function index). Modeled as
    /// a call edge: most closures run within their definer's dynamic
    /// extent (iterator adapters, wakers); spawner arguments are instead
    /// promoted to coroutine roots by the call-graph pass. Not an actual
    /// invocation — R7 ignores the definition site's guards.
    Closure(usize),
    /// `f(…)` where `f` is a local bound to a closure literal: a real
    /// invocation of that closure (global function index).
    BoundClosure(usize),
}

/// Words that look like idents before `(` but never name a callee.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "move", "fn", "let",
    "ref", "mut", "break", "continue", "unsafe", "where", "impl", "dyn", "box", "use", "pub",
    "const", "static", "struct", "enum", "trait", "type", "mod", "self", "Self", "super", "crate",
    "await", "async",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Parses one lowered file into `ws`. Only checked files are fed here;
/// test-masked tokens are skipped entirely.
pub fn parse_file(ws: &mut Workspace, file: &str, crate_name: &str, low: &Lowered) {
    let (toks, skip) = (&low.lexed.tokens, &low.skip);
    ws.file_aliases.insert(file.to_string(), low.aliases.clone());

    let owner_spans = find_owner_spans(toks);

    let mut i = 0usize;
    while i < toks.len() {
        if skip.get(i).copied().unwrap_or(false) {
            i += 1;
            continue;
        }
        if ident_at(toks, i) == Some("fn") {
            if let Some(sig) = parse_fn_signature(toks, i) {
                let type_prefix = owner_spans
                    .iter()
                    .find(|(start, end, _)| *start < i && i < *end)
                    .map(|(_, _, name)| name.clone());
                let name = match &type_prefix {
                    Some(t) => format!("{t}::{}", sig.name),
                    None => sig.name.clone(),
                };
                let idx = ws.functions.len();
                ws.functions.push(FnDef {
                    name,
                    file: file.to_string(),
                    crate_name: crate_name.to_string(),
                    line: toks[i].line,
                    frame_bytes: FRAME_BASE_BYTES + sig.param_bytes,
                    calls: Vec::new(),
                    locks: Vec::new(),
                    parent: None,
                    passed_to: None,
                    is_closure: false,
                    has_body: sig.body.is_some(),
                });
                if let Some((open, close)) = sig.body {
                    let mut ctx = BodyCtx {
                        ws,
                        file,
                        crate_name,
                        fn_idx: idx,
                        locals: sig.params.iter().cloned().collect(),
                        closure_bindings: BTreeMap::new(),
                    };
                    parse_body(&mut ctx, toks, open + 1, close);
                    // Continue scanning *inside* the body too: nested
                    // `fn` items are their own definitions.
                    i = sig.sig_end;
                    continue;
                }
                i = sig.sig_end;
                continue;
            }
        }
        i += 1;
    }
}

/// `impl`/`trait` block spans with the owning type name, for qualifying
/// method names as `Type::method`.
fn find_owner_spans(toks: &[Token]) -> Vec<(usize, usize, String)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let kw = ident_at(toks, i);
        if kw != Some("impl") && kw != Some("trait") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip the generic parameter list of the item itself.
        if punct_at(toks, j, '<') {
            j = skip_angles(toks, j);
        }
        // Collect the head up to `{` / `where`, remembering the last
        // angle-depth-0 ident (and restarting after `for`, so
        // `impl Trait for Type` names `Type`).
        let mut name: Option<String> = None;
        let mut depth = 0i32;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('{') => break,
                Tok::Punct(';') => break, // `trait X: Y;`-ish degenerate
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') if !punct_at(toks, j.wrapping_sub(1), '-') => {
                    depth -= 1;
                }
                Tok::Ident(s) if s == "where" && depth <= 0 => break,
                Tok::Ident(s) if s == "for" && depth <= 0 => name = None,
                Tok::Ident(s) if depth <= 0 && !is_keyword(s) => name = Some(s.clone()),
                _ => {}
            }
            j += 1;
        }
        if punct_at(toks, j, '{') {
            let close = match_delim(toks, j);
            if let Some(n) = name {
                spans.push((j, close, n));
            }
            // Do not jump past the block: impls never nest, but scanning
            // linearly keeps nested modules simple.
        }
        i = j + 1;
    }
    spans
}

/// Skips a matched `<…>` group starting at `open`; `->` arrows inside do
/// not close angles.
fn skip_angles(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') if !punct_at(toks, j.wrapping_sub(1), '-') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            Tok::Punct('{') | Tok::Punct(';') => return j, // bail out: malformed
            _ => {}
        }
        j += 1;
    }
    j
}

struct FnSig {
    name: String,
    params: Vec<String>,
    param_bytes: u64,
    /// `(open, close)` of the body braces, `None` for bodyless decls.
    body: Option<(usize, usize)>,
    /// Index to resume scanning from (just past the body's `{`, so nested
    /// `fn`s are found; past the `;` for bodyless decls).
    sig_end: usize,
}

/// Parses a `fn` item's signature starting at the `fn` keyword.
fn parse_fn_signature(toks: &[Token], at: usize) -> Option<FnSig> {
    let name = ident_at(toks, at + 1)?.to_string();
    if is_keyword(&name) {
        return None;
    }
    let mut j = at + 2;
    if punct_at(toks, j, '<') {
        j = skip_angles(toks, j);
    }
    if !punct_at(toks, j, '(') {
        return None;
    }
    let params_close = match_delim(toks, j);
    let (params, param_bytes) = parse_params(toks, j + 1, params_close);
    // Scan to the body `{` or a terminating `;` (trait decl).
    let mut k = params_close + 1;
    while k < toks.len() {
        match &toks[k].tok {
            Tok::Punct('{') => {
                let close = match_delim(toks, k);
                return Some(FnSig {
                    name,
                    params,
                    param_bytes,
                    body: Some((k, close)),
                    sig_end: k + 1,
                });
            }
            Tok::Punct(';') => {
                return Some(FnSig { name, params, param_bytes, body: None, sig_end: k + 1 })
            }
            _ => k += 1,
        }
    }
    None
}

/// Parameter names (idents directly before a `:` at paren depth 1) and a
/// byte estimate: one slot per parameter plus by-value array types.
fn parse_params(toks: &[Token], start: usize, end: usize) -> (Vec<String>, u64) {
    let mut names = Vec::new();
    let mut bytes = 0u64;
    let mut depth = 1usize;
    let mut j = start;
    while j < end {
        match &toks[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth = depth.saturating_sub(1),
            Tok::Ident(s)
                if depth == 1
                    && punct_at(toks, j + 1, ':')
                    && !punct_at(toks, j + 2, ':')
                    && s != "self"
                    && !is_keyword(s) =>
            {
                names.push(s.clone());
                bytes += LOCAL_SLOT_BYTES;
            }
            _ => {}
        }
        if punct_at(toks, j, '[') {
            if let Some((sz, after)) = array_type_bytes(toks, j, end) {
                bytes += sz;
                j = after;
                continue;
            }
        }
        j += 1;
    }
    (names, bytes)
}

/// If `open` starts a `[T; N]` / `[expr; N]` group with a numeric length,
/// returns its byte estimate and the index past the `]`.
fn array_type_bytes(toks: &[Token], open: usize, limit: usize) -> Option<(u64, usize)> {
    let mut depth = 0usize;
    let mut semi: Option<usize> = None;
    let mut close = open;
    let mut j = open;
    while j < limit.min(toks.len()) {
        match toks[j].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    close = j;
                    break;
                }
            }
            Tok::Punct(';') if depth == 1 => semi = Some(j),
            _ => {}
        }
        j += 1;
    }
    let semi = semi?;
    if close <= semi {
        return None;
    }
    // Length: a single numeric literal (or a named const — unknown, skip).
    let len = match &toks.get(semi + 1).map(|t| &t.tok) {
        Some(Tok::Lit(text)) if semi + 2 == close => parse_numeric(text)?,
        _ => return None,
    };
    // Element size from the first token after `[`: a primitive ident or a
    // literal with a suffix; anything else estimates a word.
    let elem = match &toks[open + 1].tok {
        Tok::Ident(s) => prim_size(s).unwrap_or(8),
        Tok::Lit(text) => lit_suffix_size(text),
        _ => 8,
    };
    Some((len.saturating_mul(elem), close + 1))
}

fn parse_numeric(text: &str) -> Option<u64> {
    let digits: String = text
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .filter(|c| *c != '_')
        .collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

fn prim_size(name: &str) -> Option<u64> {
    match name {
        "u8" | "i8" | "bool" => Some(1),
        "u16" | "i16" => Some(2),
        "u32" | "i32" | "f32" | "char" => Some(4),
        "u64" | "i64" | "f64" | "usize" | "isize" => Some(8),
        "u128" | "i128" => Some(16),
        _ => None,
    }
}

fn lit_suffix_size(text: &str) -> u64 {
    for (suffix, size) in [
        ("u8", 1),
        ("i8", 1),
        ("u16", 2),
        ("i16", 2),
        ("u32", 4),
        ("i32", 4),
        ("f32", 4),
        ("u64", 8),
        ("i64", 8),
        ("f64", 8),
        ("usize", 8),
        ("isize", 8),
    ] {
        if text.ends_with(suffix) {
            return size;
        }
    }
    8
}

/// One live lock guard during the body walk.
struct Guard {
    binding: String,
    class: String,
    depth: u32,
}

/// The classes of the live `guards`.
fn classes(guards: &[Guard]) -> Vec<String> {
    guards.iter().map(|g| g.class.clone()).collect()
}

struct BodyCtx<'a> {
    ws: &'a mut Workspace,
    file: &'a str,
    crate_name: &'a str,
    fn_idx: usize,
    /// Locals and parameters in scope (fn-wide; shadowing is irrelevant
    /// for unknown-callee classification).
    locals: BTreeSet<String>,
    /// Locals bound directly to a closure literal (`let f = |…| …`):
    /// calls of `f(…)` resolve to that closure instead of an unknown
    /// callee.
    closure_bindings: BTreeMap<String, usize>,
}

/// Walks a body region `[start, end)`, populating the function at
/// `ctx.fn_idx` with calls, guards, and frame bytes.
fn parse_body(ctx: &mut BodyCtx<'_>, toks: &[Token], start: usize, end: usize) {
    let mut guards: Vec<Guard> = Vec::new();
    // Innermost-last call-paren stack: (paren index, Some(callee last
    // segment) for call parens).
    let mut paren_stack: Vec<Option<String>> = Vec::new();
    let mut depth = 0u32;

    let mut i = start;
    while i < end {
        match &toks[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                i += 1;
            }
            Tok::Punct('(') => {
                paren_stack.push(None);
                i += 1;
            }
            Tok::Punct(')') => {
                paren_stack.pop();
                i += 1;
            }
            Tok::Punct('|') => {
                if closure_starts_here(toks, i, start) {
                    i = parse_closure(ctx, toks, i, end, &guards, &paren_stack);
                } else {
                    i += 1;
                }
            }
            Tok::Ident(kw) if kw == "fn" => {
                // Nested fn item: its own definition (found by the outer
                // scan); skip its span so its calls are not attributed
                // here.
                match parse_fn_signature(toks, i) {
                    Some(sig) => {
                        i = match sig.body {
                            Some((_, close)) => close + 1,
                            None => sig.sig_end,
                        }
                    }
                    None => i += 1,
                }
            }
            Tok::Ident(kw) if kw == "let" => {
                i = handle_let(ctx, toks, i, end);
            }
            Tok::Ident(_) | Tok::Punct('.') => {
                if let Some(next) = try_call(ctx, toks, i, &mut guards, &mut paren_stack, depth) {
                    i = next;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
}

/// Collects `let` pattern idents into scope (frame slots) and detects
/// array type annotations. Returns the index to continue from (just past
/// the pattern — the RHS is walked by the main loop).
fn handle_let(ctx: &mut BodyCtx<'_>, toks: &[Token], at: usize, end: usize) -> usize {
    let mut j = at + 1;
    let mut slots = 0u64;
    while j < end {
        match &toks[j].tok {
            Tok::Ident(s) if !is_keyword(s) => {
                // Locals are snake_case by convention; uppercase idents in
                // patterns are enum constructors (`Some`, `Ok`), not
                // bindings.
                if s.chars().next().is_some_and(|c| c.is_lowercase() || c == '_') {
                    ctx.locals.insert(s.clone());
                    slots += 1;
                }
                j += 1;
            }
            Tok::Ident(_) => j += 1, // `mut`, `ref`, …
            Tok::Punct('(') | Tok::Punct(',') => j += 1,
            Tok::Punct(')') => j += 1,
            Tok::Punct(':') if !punct_at(toks, j + 1, ':') => {
                // Type annotation: scan it for array sizes, stop at `=`/`;`.
                let mut k = j + 1;
                let mut extra = 0u64;
                let mut adepth = 0i32;
                while k < end {
                    match &toks[k].tok {
                        Tok::Punct('=') if adepth <= 0 && !punct_at(toks, k + 1, '=') => break,
                        Tok::Punct(';') if adepth <= 0 => break,
                        Tok::Punct('<') => adepth += 1,
                        Tok::Punct('>') if !punct_at(toks, k.wrapping_sub(1), '-') => {
                            adepth -= 1;
                        }
                        Tok::Punct('[') => {
                            if let Some((sz, after)) = array_type_bytes(toks, k, end) {
                                extra += sz;
                                k = after;
                                continue;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                ctx.ws.functions[ctx.fn_idx].frame_bytes += extra;
                j = k;
                break;
            }
            _ => break,
        }
    }
    ctx.ws.functions[ctx.fn_idx].frame_bytes += slots.saturating_mul(LOCAL_SLOT_BYTES);
    j
}

/// Whether the `|` at `i` starts a closure literal rather than a binary
/// or-operator. Operands (`ident`, literal, `)`, `]`) before the bar mean
/// "or"; separators and `move` mean "closure".
fn closure_starts_here(toks: &[Token], i: usize, body_start: usize) -> bool {
    if i == body_start {
        return true;
    }
    match &toks[i - 1].tok {
        Tok::Ident(s) => matches!(s.as_str(), "move" | "return" | "else" | "in" | "break"),
        Tok::Lit(_) => false,
        Tok::Punct(c) => matches!(c, '(' | ',' | '{' | '=' | ';' | ':' | '>' | '&'),
        // `=> |x| …` arrives as '=' '>' — covered by '>' above; a plain
        // comparison `a > |…` is not valid Rust anyway.
    }
}

/// Parses a closure literal starting at its first `|` (or at `move`'s
/// bar); returns the index past the closure body. The closure becomes a
/// synthetic function and a `Callee::Closure` edge from the definer.
fn parse_closure(
    ctx: &mut BodyCtx<'_>,
    toks: &[Token],
    bar: usize,
    end: usize,
    guards: &[Guard],
    paren_stack: &[Option<String>],
) -> usize {
    let line = toks[bar].line;
    // Parameter list: `||` (empty) or `|pat, …|`.
    let mut params = Vec::new();
    let mut body_start;
    if punct_at(toks, bar + 1, '|') {
        body_start = bar + 2;
    } else {
        let mut j = bar + 1;
        let mut depth = 0i32;
        while j < end {
            match &toks[j].tok {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct('|') if depth <= 0 => break,
                Tok::Ident(s)
                    if !is_keyword(s)
                    // Param idents; lowercase type idents after `:` are
                    // harmless extras in the local set.
                    && s.chars().next().is_some_and(|c| c.is_lowercase() || c == '_') =>
                {
                    params.push(s.clone());
                }
                _ => {}
            }
            j += 1;
        }
        body_start = j + 1;
    }
    // Return-type annotation: `|x| -> T { … }`.
    if punct_at(toks, body_start, '-') && punct_at(toks, body_start + 1, '>') {
        let mut k = body_start + 2;
        while k < end && !punct_at(toks, k, '{') {
            k += 1;
        }
        body_start = k;
    }
    // Body region: a block, or a bare expression up to `,`/`)`/`;`/`}` at
    // relative depth 0.
    let (region_start, region_end, resume) = if punct_at(toks, body_start, '{') {
        let close = match_delim(toks, body_start);
        (body_start + 1, close, close + 1)
    } else {
        let mut depth = 0i32;
        let mut k = body_start;
        while k < end {
            match &toks[k].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                Tok::Punct(',') | Tok::Punct(';') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        (body_start, k, k)
    };

    let parent_idx = ctx.fn_idx;
    let parent_name = ctx.ws.functions[parent_idx].name.clone();
    let passed_to = paren_stack.iter().rev().flatten().next().cloned();
    let closure_idx = ctx.ws.functions.len();
    ctx.ws.functions.push(FnDef {
        name: format!("{parent_name}::{{closure@{line}}}"),
        file: ctx.file.to_string(),
        crate_name: ctx.crate_name.to_string(),
        line,
        frame_bytes: FRAME_BASE_BYTES + params.len() as u64 * LOCAL_SLOT_BYTES,
        calls: Vec::new(),
        locks: Vec::new(),
        parent: Some(parent_idx),
        passed_to,
        is_closure: true,
        has_body: true,
    });
    // The definer gets a call-shaped edge to the closure, with the guard
    // context of the definition site.
    push_call(ctx, Callee::Closure(closure_idx), line, guards);

    // `let name = [move] |…|` binds the closure to a local.
    let mut b = bar;
    if b > 0 && matches!(&toks[b - 1].tok, Tok::Ident(s) if s == "move") {
        b -= 1;
    }
    if b >= 3 && punct_at(toks, b - 1, '=') && !punct_at(toks, b - 2, '=') {
        let name = match (&toks[b - 2].tok, &toks[b - 3].tok) {
            (Tok::Ident(name), Tok::Ident(kw)) if kw == "let" => Some(name.clone()),
            (Tok::Ident(name), Tok::Ident(kw)) if kw == "mut" => (b >= 4
                && matches!(&toks[b - 4].tok, Tok::Ident(k2) if k2 == "let"))
            .then(|| name.clone()),
            _ => None,
        };
        if let Some(name) = name {
            ctx.closure_bindings.insert(name, closure_idx);
        }
    }

    // Parse the closure body as its own function, inheriting the
    // definer's locals (captures) plus its own parameters.
    let mut inner_locals = ctx.locals.clone();
    inner_locals.extend(params);
    let inner_bindings = ctx.closure_bindings.clone();
    let mut inner = BodyCtx {
        ws: ctx.ws,
        file: ctx.file,
        crate_name: ctx.crate_name,
        fn_idx: closure_idx,
        locals: inner_locals,
        closure_bindings: inner_bindings,
    };
    parse_body(&mut inner, toks, region_start, region_end);
    resume
}

/// Tries to recognize a call (or a `.lock()` guard acquisition) at `i`.
/// Returns the index to continue from if something was consumed.
fn try_call(
    ctx: &mut BodyCtx<'_>,
    toks: &[Token],
    i: usize,
    guards: &mut Vec<Guard>,
    paren_stack: &mut Vec<Option<String>>,
    depth: u32,
) -> Option<usize> {
    // Method call / guard acquisition: `.name(`.
    if punct_at(toks, i, '.') {
        let name = ident_at(toks, i + 1)?;
        if !punct_at(toks, i + 2, '(') {
            return None;
        }
        if name == "lock" {
            // `.lock()` is a lock event, not a call.
            handle_lock(ctx, toks, i, guards, depth);
            paren_stack.push(None);
            return Some(i + 3);
        }
        let receiver = receiver_name(toks, i);
        let name = name.to_string();
        push_call(ctx, Callee::Method { name: name.clone(), receiver }, toks[i + 1].line, guards);
        paren_stack.push(Some(name));
        return Some(i + 3);
    }

    // Path call: `seg::seg::name(` (possibly with a turbofish before the
    // parens) — recognized at its *first* segment.
    let first = ident_at(toks, i)?;
    if is_keyword(first) && first != "self" && first != "Self" && first != "crate" {
        return None;
    }
    // Not a path start if the previous tokens are `::` or `.` (then we are
    // mid-chain and the head already handled it) — or `fn`/`struct`-likes.
    if i > 0 {
        if punct_at(toks, i - 1, '.') || punct_at(toks, i - 1, ':') || punct_at(toks, i - 1, '#') {
            return None;
        }
        if let Some(prev) = ident_at(toks, i - 1) {
            if matches!(prev, "fn" | "struct" | "enum" | "trait" | "mod" | "type" | "impl") {
                return None;
            }
        }
    }
    let mut segs = vec![first.to_string()];
    let mut j = i + 1;
    loop {
        if punct_at(toks, j, ':') && punct_at(toks, j + 1, ':') {
            if let Some(s) = ident_at(toks, j + 2) {
                segs.push(s.to_string());
                j += 3;
                continue;
            }
            // Turbofish `::<…>`.
            if punct_at(toks, j + 2, '<') {
                j = skip_angles(toks, j + 2);
                continue;
            }
        }
        break;
    }
    if !punct_at(toks, j, '(') {
        return None;
    }
    // Macro call `name!(…)` never reaches here (the `!` breaks the
    // pattern above only if directly after the ident) — check anyway.
    if punct_at(toks, j.wrapping_sub(1), '!') {
        return None;
    }
    let line = toks[i].line;
    // `drop(g)` releases a guard.
    if segs.len() == 1 && segs[0] == "drop" {
        if let Some(g) = ident_at(toks, j + 1) {
            if punct_at(toks, j + 2, ')') {
                guards.retain(|h| h.binding != g);
            }
        }
    }
    let callee = if segs.len() == 1 && ctx.closure_bindings.contains_key(&segs[0]) {
        Callee::BoundClosure(ctx.closure_bindings[&segs[0]])
    } else if segs.len() == 1 && ctx.locals.contains(&segs[0]) {
        Callee::Dynamic(segs[0].clone())
    } else {
        Callee::Path(segs.clone())
    };
    push_call(ctx, callee, line, guards);
    paren_stack.push(Some(segs.last().cloned().unwrap_or_default()));
    Some(j + 1)
}

fn push_call(ctx: &mut BodyCtx<'_>, callee: Callee, line: u32, guards: &[Guard]) {
    let site = CallSite { callee, line, guards: classes(guards) };
    ctx.ws.functions[ctx.fn_idx].calls.push(site);
}

/// Handles `<recv>.lock(` at the `.`: records the acquisition with the
/// guards live at it, then registers a guard if the result is bound
/// (`let g = x.lock()…;` or `g = x.lock()…;`).
fn handle_lock(
    ctx: &mut BodyCtx<'_>,
    toks: &[Token],
    dot: usize,
    guards: &mut Vec<Guard>,
    depth: u32,
) {
    let receiver = receiver_name(toks, dot).unwrap_or_else(|| "<expr>".to_string());
    let class = format!("{}::{receiver}", ctx.crate_name);
    let site = LockSite { class: class.clone(), line: toks[dot + 1].line, held: classes(guards) };
    ctx.ws.functions[ctx.fn_idx].locks.push(site);
    // Walk past `lock(…)` and any `.unwrap()` / `.expect(…)` adapters; a
    // guard chained into anything else is a temporary.
    let mut j = match_delim(toks, dot + 2) + 1;
    while punct_at(toks, j, '.') {
        match ident_at(toks, j + 1) {
            Some("unwrap" | "expect") if punct_at(toks, j + 2, '(') => {
                j = match_delim(toks, j + 2) + 1;
            }
            _ => return,
        }
    }
    if let Some(binding) = binding_name(toks, dot) {
        guards.retain(|g| g.binding != binding);
        guards.push(Guard { binding, class, depth });
    }
}

/// Start of the receiver chain ending just before `dot`: walks back over
/// identifiers, `.` and index/call groups (`self.boxes[i].get()`).
fn chain_start(toks: &[Token], dot: usize) -> usize {
    let mut j = dot;
    while j > 0 {
        match &toks[j - 1].tok {
            Tok::Punct(')' | ']') => j = group_start(toks, j - 1),
            Tok::Ident(_) | Tok::Punct('.') => j -= 1,
            _ => break,
        }
    }
    j
}

/// Last identifier of the receiver chain before the `.` at `dot`,
/// skipping back over index/call groups: `self.inner.lock()` → `inner`,
/// `table[i].lock()` → `table`, `self.lock()` → `self`.
fn receiver_name(toks: &[Token], dot: usize) -> Option<String> {
    let mut j = dot;
    while j > 0 {
        match &toks[j - 1].tok {
            Tok::Punct(')' | ']') => j = group_start(toks, j - 1),
            Tok::Punct('.') => j -= 1,
            Tok::Ident(s) => return Some(s.clone()),
            _ => return None,
        }
    }
    None
}

/// The local a chain ending at `dot` is assigned to: the identifier before
/// the `=` in front of the chain.
fn binding_name(toks: &[Token], dot: usize) -> Option<String> {
    let eq = chain_start(toks, dot).checked_sub(1)?;
    if !punct_at(toks, eq, '=') {
        return None;
    }
    // `==`, `!=`, `+=`, … end in `=` too, after punctuation.
    ident_at(toks, eq.checked_sub(1)?).map(str::to_string)
}
