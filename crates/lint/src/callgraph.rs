//! Whole-workspace call graph and the one rule that needs it, R8.
//!
//! Built on the [`crate::parser`] AST: every call site is resolved against
//! an index of all parsed functions (alias-expanded path calls, method
//! calls by name across every impl — an over-approximation; calls through
//! function values stay unresolved — an under-approximation). The graph
//! is rooted at the coroutine entry points: closure literals passed to
//! `run_batch` (the rank bodies) or to a `run` method (the
//! simmpi/redundancy world rank closures, which execute on coroutine
//! stacks), with every closure also linked from its definer so
//! `wait_match` waker closures and heal/segment loops are reachable.
//!
//! **R8 blocking-call-in-coroutine**: an OS-blocking call
//! (`std::thread::sleep` / `std::thread::yield_now`, `Condvar::wait*`,
//! blocking `std::fs` / `std::net` / `std::io::stdin` I/O) reachable from
//! a coroutine root. Lock discipline and stack depth are not static
//! rules: `redcr_sched` checks both on itself in debug builds.

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::{Callee, FnDef, Workspace};
use crate::report::{CallEdge, CallGraph, CoroutineRoot, Violation};
use crate::rules::finding;

/// Calls with one of these final path segments take the rank closure that
/// becomes a coroutine root: `run_batch` is the scheduler entry itself,
/// `run` covers `World::run` / `RedundantWorld::run`, whose closure is
/// forwarded onto the pool.
const SPAWNER_SEGMENTS: &[&str] = &["run_batch", "run"];

/// OS-blocking fully-qualified path prefixes (matched after alias
/// expansion, on `::` boundaries).
const BLOCKING_PATHS: &[&str] = &[
    "std::thread::sleep",
    "std::thread::park",
    "std::thread::yield_now",
    "std::fs",
    "std::net",
    "std::io::stdin",
    "std::process::Command",
];

/// `Condvar`-style waits, recognized by method name plus a receiver whose
/// identifier mentions `cond` (the workspace's own virtual-time `wait` on
/// communicators must not match).
const CONDVAR_METHODS: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];

/// Method names ubiquitous on std types. The unique-name fallback must
/// not claim these: `.clear()` on a `VecDeque` is not `Mailbox::clear`
/// just because the workspace happens to define `clear` exactly once.
const STD_METHOD_NAMES: &[&str] = &[
    "all",
    "any",
    "append",
    "as_ref",
    "borrow",
    "borrow_mut",
    "chars",
    "clear",
    "clone",
    "cloned",
    "collect",
    "contains",
    "copied",
    "count",
    "drain",
    "entry",
    "enumerate",
    "extend",
    "filter",
    "find",
    "first",
    "flatten",
    "fold",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "load",
    "map",
    "max",
    "min",
    "next",
    "pop",
    "pop_front",
    "position",
    "push",
    "push_back",
    "push_str",
    "remove",
    "retain",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "split_off",
    "store",
    "sum",
    "swap",
    "take",
    "to_string",
    "truncate",
    "values",
    "windows",
    "write",
    "zip",
];

/// Result of the interprocedural pass.
#[derive(Debug, Default)]
pub struct Analysis {
    /// R8 findings (unsuppressed; suppressions apply later).
    pub violations: Vec<Violation>,
    /// The artifact: nodes, edges and coroutine roots.
    pub artifact: CallGraph,
}

/// A resolved call target.
enum Target {
    /// Indices of candidate workspace functions: a precise resolution
    /// (receiver/owner/path match — at most a couple of candidates), or a
    /// trait-dispatch site widened to every same-named impl (CHA
    /// over-approximation).
    Workspace(Vec<usize>),
    /// An external call classified as OS-blocking, with the displayed path.
    Blocking(String),
    /// An external leaf (std helpers, constructors, …) or an unknown
    /// callee behind a function value: no edge.
    External,
}

impl Target {
    /// Workspace candidates, for reachability.
    fn candidates(&self) -> &[usize] {
        match self {
            Target::Workspace(c) => c,
            _ => &[],
        }
    }
}

/// Runs the whole pass over the parsed workspace.
pub fn analyze(ws: &Workspace) -> Analysis {
    let fns = &ws.functions;
    let n = fns.len();

    // ----- index ------------------------------------------------------
    // Last-segment name → candidates; `Type::method` → exact candidates.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_qual: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        if f.is_closure {
            continue;
        }
        let last = f.name.rsplit("::").next().unwrap_or(&f.name);
        by_name.entry(last).or_default().push(i);
        if f.name.contains("::") {
            by_qual.entry(f.name.as_str()).or_default().push(i);
        }
    }

    // ----- resolution -------------------------------------------------
    // targets[f][c] parallels fns[f].calls[c].
    let empty = BTreeMap::new();
    let targets: Vec<Vec<Target>> = fns
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let aliases = ws.file_aliases.get(&f.file).unwrap_or(&empty);
            f.calls
                .iter()
                .map(|c| resolve(&c.callee, i, fns, aliases, &by_name, &by_qual))
                .collect()
        })
        .collect();

    // Coroutine roots: closures passed to a spawner.
    let roots: Vec<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.is_closure && f.passed_to.as_deref().is_some_and(|p| SPAWNER_SEGMENTS.contains(&p))
        })
        .map(|(i, _)| i)
        .collect();

    // Coroutine-reachable set: forward closure from the roots.
    let mut coroutine = vec![false; n];
    let mut stack: Vec<usize> = roots.clone();
    while let Some(i) = stack.pop() {
        if coroutine[i] {
            continue;
        }
        coroutine[i] = true;
        for t in &targets[i] {
            for &c in t.candidates() {
                if !coroutine[c] {
                    stack.push(c);
                }
            }
        }
    }

    let mut out = Analysis::default();

    // ----- R8: OS-blocking calls in coroutine-reachable code ----------
    for (i, f) in fns.iter().enumerate() {
        if !coroutine[i] {
            continue;
        }
        for (ci, call) in f.calls.iter().enumerate() {
            if let Target::Blocking(path) = &targets[i][ci] {
                let message =
                    format!("OS-blocking call `{path}` is reachable from a coroutine root");
                out.violations.push(finding("R8", &f.file, call.line, message));
            }
        }
    }

    // ----- artifact ---------------------------------------------------
    out.artifact.roots = roots
        .iter()
        .map(|&r| CoroutineRoot {
            root: fns[r].name.clone(),
            file: fns[r].file.clone(),
            line: fns[r].line,
        })
        .collect();
    out.artifact.functions = n;
    let mut seen = BTreeSet::new();
    for (i, f) in fns.iter().enumerate() {
        for (ci, call) in f.calls.iter().enumerate() {
            for &c in targets[i][ci].candidates() {
                if seen.insert((i, c)) {
                    out.artifact.edges.push(CallEdge {
                        caller: f.name.clone(),
                        callee: fns[c].name.clone(),
                        file: f.file.clone(),
                        line: call.line,
                    });
                }
            }
        }
    }
    out
}

/// The impl type owning `caller` (`Mailbox::wait_match::{closure@602}` →
/// `Mailbox`), if it has one.
fn owner_of(caller: &FnDef) -> Option<&str> {
    let first = caller.name.split("::").next()?;
    first.chars().next().is_some_and(char::is_uppercase).then_some(first)
}

/// Lowercased alphanumerics, for receiver-name ↔ type-name matching.
fn normalize(s: &str) -> String {
    s.chars().filter(char::is_ascii_alphanumeric).map(|c| c.to_ascii_lowercase()).collect()
}

/// Whether a receiver identifier plausibly names the type: exact after
/// normalization (`comm` → `Comm`), or a *dominant* suffix (`solver` →
/// `CgSolver`, but not `groups` → `ReplicaGroups` — a short generic
/// suffix must not claim a long compound type name).
fn receiver_matches(recv_norm: &str, type_norm: &str) -> bool {
    recv_norm == type_norm
        || (type_norm.ends_with(recv_norm) && recv_norm.len() * 2 >= type_norm.len())
}

/// Trait-dispatch widening: a candidate set consisting only of bodyless
/// trait-method declarations is a dynamic-dispatch site — widen it to
/// every same-named function so reachability crosses the trait boundary.
fn widen_bodyless(
    cands: Vec<usize>,
    name: &str,
    fns: &[FnDef],
    by_name: &BTreeMap<&str, Vec<usize>>,
) -> Target {
    if !cands.is_empty() && cands.iter().all(|&c| !fns[c].has_body) {
        if let Some(all) = by_name.get(name) {
            return Target::Workspace(all.clone());
        }
    }
    Target::Workspace(cands)
}

/// Whether `f` is `caller` or a function enclosing it (a closure's
/// definer, that definer's, …).
fn encloses(f: usize, caller: usize, fns: &[FnDef]) -> bool {
    std::iter::successors(Some(caller), |&i| fns[i].parent).any(|i| i == f)
}

/// Resolves the call sites of `fns[caller]`, expanding the leading
/// segment of a path through the file's alias map.
///
/// Precision policy (the soundness caveats documented in DESIGN §4f):
/// `self.m()` / `Self::m()` resolve through the caller's impl type;
/// other method calls resolve only when the receiver's name matches a
/// workspace type (`comm.recv()` → `Comm::recv`) or the method name is
/// defined exactly once in the workspace — and never to the caller or a
/// function enclosing it: `prof.span(key)` inside `Obs::span` is another
/// type's `span`, and only `self.m()` is recursion. Everything else is
/// External — under-approximate on purpose, because matching `.push()`
/// against every impl floods the graph with phantom edges.
fn resolve(
    callee: &Callee,
    caller_idx: usize,
    fns: &[FnDef],
    aliases: &BTreeMap<String, String>,
    by_name: &BTreeMap<&str, Vec<usize>>,
    by_qual: &BTreeMap<&str, Vec<usize>>,
) -> Target {
    let caller = &fns[caller_idx];
    match callee {
        Callee::Closure(idx) | Callee::BoundClosure(idx) => Target::Workspace(vec![*idx]),
        Callee::Dynamic => Target::External,
        Callee::Method { name, receiver } => {
            if CONDVAR_METHODS.contains(&name.as_str())
                && receiver.as_deref().is_some_and(|r| r.contains("cond") || r.contains("cv"))
            {
                return Target::Blocking(format!("Condvar::{name}"));
            }
            let recv = receiver.as_deref().unwrap_or("");
            let on_self = recv == "self" || recv == "Self";
            if on_self {
                if let Some(owner) = owner_of(caller) {
                    if let Some(idxs) = by_qual.get(format!("{owner}::{name}").as_str()) {
                        return widen_bodyless(idxs.clone(), name, fns, by_name);
                    }
                }
            } else if !recv.is_empty() {
                let recv_norm = normalize(recv);
                let mut cands: Vec<usize> = Vec::new();
                for (qual, idxs) in by_qual.iter() {
                    let Some((ty, m)) = qual.rsplit_once("::") else { continue };
                    if m == name && receiver_matches(&recv_norm, &normalize(ty)) {
                        cands.extend(idxs.iter().filter(|&&c| !encloses(c, caller_idx, fns)));
                    }
                }
                if !cands.is_empty() {
                    return widen_bodyless(cands, name, fns, by_name);
                }
            }
            if STD_METHOD_NAMES.contains(&name.as_str()) {
                return Target::External;
            }
            // `.wait(…)`-family names never fall through to the unions
            // below: the workspace's request-wait trait method shares its
            // name with `Condvar::wait`, and unioning would wire scheduler
            // condvars into the communicator graph.
            if CONDVAR_METHODS.contains(&name.as_str()) {
                return Target::External;
            }
            match by_name.get(name.as_str()) {
                // A method name defined exactly once in the workspace is
                // almost certainly that definition.
                Some(idxs)
                    if idxs.len() == 1 && (on_self || !encloses(idxs[0], caller_idx, fns)) =>
                {
                    Target::Workspace(idxs.clone())
                }
                // Defined several times *including* a bodyless trait
                // declaration: a trait method called through a generic or
                // unrecognized receiver (`self.inner.recv_ns(…)`) — a
                // dispatch site over every impl.
                Some(idxs) if idxs.iter().any(|&c| !fns[c].has_body) => {
                    Target::Workspace(idxs.clone())
                }
                _ => Target::External,
            }
        }
        Callee::Path(segs) => {
            // `Self::m(..)` → the caller's impl type.
            let mut segs = segs.clone();
            if segs.len() >= 2 && (segs[0] == "Self" || segs[0] == "self") {
                if let Some(owner) = owner_of(caller) {
                    segs[0] = owner.to_string();
                }
            }
            // Expand the leading alias.
            let full: Vec<String> = match aliases.get(&segs[0]) {
                Some(exp) => {
                    let mut v: Vec<String> = exp.split("::").map(str::to_string).collect();
                    v.extend(segs[1..].iter().cloned());
                    v
                }
                None => segs,
            };
            let joined = full.join("::");
            if BLOCKING_PATHS.iter().any(|b| {
                joined == *b || (joined.starts_with(b) && joined[b.len()..].starts_with("::"))
            }) {
                return Target::Blocking(joined);
            }
            // A path rooted in the standard library is never a workspace
            // function, whatever its last two segments are called:
            // `std::sync::Mutex::new` inside the workspace's own
            // `Mutex::new` is delegation, not recursion.
            if matches!(full[0].as_str(), "std" | "core" | "alloc") {
                return Target::External;
            }
            let last = full.last().map(String::as_str).unwrap_or("");
            // Exact `Type::method` match first.
            if full.len() >= 2 {
                let qualifier = &full[full.len() - 2];
                let qual = format!("{qualifier}::{last}");
                if let Some(idxs) = by_qual.get(qual.as_str()) {
                    return widen_bodyless(idxs.clone(), last, fns, by_name);
                }
                // A Type-qualified path that missed is a method of an
                // external or unparsed type (`VecDeque::new`), NOT a
                // license to match every same-named function.
                if qualifier.chars().next().is_some_and(char::is_uppercase) {
                    return Target::External;
                }
            }
            let Some(cands) = by_name.get(last) else {
                return Target::External;
            };
            if full.len() == 1 {
                // A bare call must be in scope: same crate, and a free
                // function — `check_abort(…)` can never be the method
                // `Comm::check_abort` (imports were alias-expanded above,
                // so cross-crate calls are not bare).
                let fl: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| {
                        fns[c].crate_name == caller.crate_name && !fns[c].name.contains("::")
                    })
                    .collect();
                return if fl.is_empty() { Target::External } else { Target::Workspace(fl) };
            }
            // Module-qualified path: crate hint from the first segment —
            // `redcr_sched::…` → crate dir `sched`; `crate::…` → caller's.
            let hint = match full[0].as_str() {
                "crate" | "self" | "super" => Some(caller.crate_name.clone()),
                "redcr" => Some("root".to_string()),
                s => s.strip_prefix("redcr_").map(str::to_string),
            };
            let filtered: Vec<usize> = match &hint {
                Some(h) => {
                    let fl: Vec<usize> =
                        cands.iter().copied().filter(|&c| fns[c].crate_name == *h).collect();
                    // A hint that filters everything away is treated as a
                    // bad hint (re-exports, facade paths): keep all.
                    if fl.is_empty() {
                        cands.clone()
                    } else {
                        fl
                    }
                }
                None => cands.clone(),
            };
            Target::Workspace(filtered)
        }
    }
}
