//! Lint findings and report rendering: human text and JSONL (one compact
//! `redcr-json` object per line).

use std::fmt::Write as _;

use redcr_json::Writer;

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule id (`R5`, `R7`, `R8` or `R9`).
    pub rule: &'static str,
    /// Workspace-relative file path (slash-separated).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Advisory findings still require a fix or a reasoned suppression,
    /// but are labelled so readers know they encode a judgement call.
    pub advisory: bool,
    /// What was found, e.g. "OS-blocking call `std::fs::write` …".
    pub message: String,
    /// Why the pattern is hazardous in this domain.
    pub rationale: &'static str,
    /// `Some(reason)` when a well-formed suppression covers this finding.
    pub suppressed: Option<String>,
}

/// A suppression comment that matched no finding (stale), one missing its
/// mandatory reason (malformed — suppresses nothing), or one naming a rule
/// id outside the registry (typo'd or retired — suppresses nothing and
/// fails the run).
#[derive(Debug, Clone)]
pub struct BadSuppression {
    /// Workspace-relative file path.
    pub file: String,
    /// Line of the comment.
    pub line: u32,
    /// Rule it names.
    pub rule: String,
    /// True when the comment lacks a `reason = "…"`.
    pub missing_reason: bool,
    /// True when the named rule id is not in the registry.
    pub unknown_rule: bool,
}

/// One observed nested lock acquisition: `held` was locked when `acquired`
/// was taken.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// Lock class already held (`crate::field`).
    pub held: String,
    /// Lock class acquired under it.
    pub acquired: String,
    /// Representative site.
    pub file: String,
    /// Line of the inner acquisition.
    pub line: u32,
    /// Enclosing function name.
    pub func: String,
}

/// Full lint report for a workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, suppressed ones included.
    pub violations: Vec<Violation>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Stale or malformed suppressions.
    pub bad_suppressions: Vec<BadSuppression>,
    /// Count of suppressions that matched a finding (with reason).
    pub suppressions_used: usize,
    /// All distinct lock classes seen by the R5 pass.
    pub lock_classes: Vec<String>,
    /// Nested-acquisition edges observed (the inter-crate lock graph).
    pub lock_edges: Vec<LockEdge>,
    /// The interprocedural pass's call graph and per-root stack bounds,
    /// emitted as a sibling JSONL artifact by the CLI.
    pub callgraph: CallGraph,
}

/// One resolved caller → callee edge in the whole-workspace call graph.
#[derive(Debug, Clone)]
pub struct CallEdge {
    /// Caller function (qualified `Type::method` where known).
    pub caller: String,
    /// Callee function.
    pub callee: String,
    /// File containing the call site.
    pub file: String,
    /// Line of the call site.
    pub line: u32,
}

/// The R9 stack bound for one coroutine root.
#[derive(Debug, Clone)]
pub struct RootBound {
    /// Root name (a closure label like `World::run::{closure@197}`).
    pub root: String,
    /// File defining the root.
    pub file: String,
    /// Line of the closure literal.
    pub line: u32,
    /// Estimated worst-case stack bytes along the deepest call chain
    /// (meaningless when `recursive`).
    pub bound_bytes: u64,
    /// Frames on that deepest chain.
    pub frames: u32,
    /// True when the root can reach a recursion cycle: the static bound
    /// does not exist and only the runtime canary guards the stack.
    pub recursive: bool,
    /// The deepest chain, root first.
    pub path: Vec<String>,
}

/// Call-graph artifact: what the interprocedural pass saw. Rendered as
/// its own JSONL file (`detlint-callgraph.jsonl`) so CI can archive the
/// stack bounds next to the findings report.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Functions (free, methods, and closure literals) parsed.
    pub functions: usize,
    /// Resolved workspace-internal call edges, deduplicated.
    pub edges: Vec<CallEdge>,
    /// One entry per coroutine root with its R9 stack bound.
    pub roots: Vec<RootBound>,
}

impl CallGraph {
    /// Worst root bound in bytes (0 when there are no roots); recursive
    /// roots are excluded — they have no static bound.
    pub fn max_bound_bytes(&self) -> u64 {
        self.roots.iter().filter(|r| !r.recursive).map(|r| r.bound_bytes).max().unwrap_or(0)
    }

    /// JSONL rendering: one object per edge, one per root, then a summary.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.edges {
            line(&mut out, "call_edge", |w| {
                w.field("caller", &e.caller).field("callee", &e.callee);
                w.field("file", &e.file).field("line", e.line);
            });
        }
        for r in &self.roots {
            line(&mut out, "root", |w| {
                w.field("root", &r.root).field("file", &r.file).field("line", r.line);
                w.field("bound_bytes", r.bound_bytes).field("frames", r.frames);
                w.field("recursive", r.recursive).key("path").begin_array();
                for p in &r.path {
                    w.value(p);
                }
                w.end_array();
            });
        }
        line(&mut out, "summary", |w| {
            w.field("functions", self.functions).field("edges", self.edges.len());
            w.field("roots", self.roots.len()).field("max_bound_bytes", self.max_bound_bytes());
        });
        out
    }
}

/// Appends one JSONL line: an object opening with its `kind` member,
/// then whatever `members` writes.
fn line(out: &mut String, kind: &str, members: impl FnOnce(&mut Writer<'_>)) {
    let mut w = Writer::compact(out);
    w.begin_object().field("kind", kind);
    members(&mut w);
    w.end_object();
    out.push('\n');
}

impl Report {
    /// Findings not covered by a reasoned suppression.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.suppressed.is_none())
    }

    /// Whether the run should exit 0. Malformed suppressions (no reason)
    /// leave their finding unsuppressed, so they fail through that path;
    /// stale suppressions are reported but do not fail the run; an allow
    /// naming an unknown rule id is a definite typo and fails directly.
    pub fn is_clean(&self) -> bool {
        self.unsuppressed().next().is_none()
            && !self.bad_suppressions.iter().any(|b| b.unknown_rule)
    }

    /// Human-readable rendering.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in self.unsuppressed() {
            let sev = if v.advisory { "advisory" } else { "deny" };
            let _ = writeln!(
                out,
                "{}:{}: {} [{}] {}\n    rationale: {}",
                v.file, v.line, v.rule, sev, v.message, v.rationale
            );
        }
        for b in &self.bad_suppressions {
            if b.unknown_rule {
                let _ = writeln!(
                    out,
                    "{}:{}: unknown rule `{}` in detlint::allow — not in the registry; suppresses nothing",
                    b.file, b.line, b.rule
                );
            } else if b.missing_reason {
                let _ = writeln!(
                    out,
                    "{}:{}: malformed detlint::allow({}) — missing `reason = \"…\"`; suppresses nothing",
                    b.file, b.line, b.rule
                );
            } else {
                let _ = writeln!(
                    out,
                    "{}:{}: stale detlint::allow({}) — matched no finding",
                    b.file, b.line, b.rule
                );
            }
        }
        let suppressed: Vec<&Violation> =
            self.violations.iter().filter(|v| v.suppressed.is_some()).collect();
        if !suppressed.is_empty() {
            let _ = writeln!(out, "suppressed findings ({}):", suppressed.len());
            for v in &suppressed {
                let _ = writeln!(
                    out,
                    "  {}:{}: {} — allowed: {}",
                    v.file,
                    v.line,
                    v.rule,
                    v.suppressed.as_deref().unwrap_or("")
                );
            }
        }
        let _ = writeln!(
            out,
            "lock graph: {} classes, {} nested acquisitions",
            self.lock_classes.len(),
            self.lock_edges.len()
        );
        for e in &self.lock_edges {
            let _ = writeln!(
                out,
                "  {} -> {} ({}:{} in {})",
                e.held, e.acquired, e.file, e.line, e.func
            );
        }
        let _ = writeln!(
            out,
            "call graph: {} functions, {} edges, {} coroutine roots (max stack bound {} bytes)",
            self.callgraph.functions,
            self.callgraph.edges.len(),
            self.callgraph.roots.len(),
            self.callgraph.max_bound_bytes(),
        );
        let unsup = self.unsuppressed().count();
        let _ = writeln!(
            out,
            "detlint: {} files, {} findings ({} suppressed with reason), {} unsuppressed — {}",
            self.files_scanned,
            self.violations.len(),
            self.suppressions_used,
            unsup,
            if self.is_clean() { "OK" } else { "FAIL" }
        );
        out
    }

    /// JSONL rendering: one object per finding (suppressed included),
    /// then one object per lock edge, then a summary object.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            line(&mut out, "violation", |w| {
                w.field("rule", v.rule).field("file", &v.file).field("line", v.line);
                w.field("advisory", v.advisory).field("suppressed", v.suppressed.is_some());
                w.field("reason", &v.suppressed).field("message", &v.message);
                w.field("rationale", v.rationale);
            });
        }
        for e in &self.lock_edges {
            line(&mut out, "lock_edge", |w| {
                w.field("held", &e.held).field("acquired", &e.acquired);
                w.field("file", &e.file).field("line", e.line).field("fn", &e.func);
            });
        }
        for b in &self.bad_suppressions {
            line(&mut out, "bad_suppression", |w| {
                w.field("rule", &b.rule).field("file", &b.file).field("line", b.line);
                w.field("missing_reason", b.missing_reason).field("unknown_rule", b.unknown_rule);
            });
        }
        // `rules` lists the ids with live unsuppressed findings, so CI can
        // grep one line to gate on specific rules.
        let mut live: Vec<&str> = self.unsuppressed().map(|v| v.rule).collect();
        live.sort_unstable();
        live.dedup();
        line(&mut out, "summary", |w| {
            w.field("files", self.files_scanned).field("findings", self.violations.len());
            w.field("suppressed", self.suppressions_used);
            w.field("unsuppressed", self.unsuppressed().count()).key("rules").begin_array();
            for rule in live {
                w.value(rule);
            }
            w.end_array().field("bad_suppressions", self.bad_suppressions.len());
            w.field("lock_classes", self.lock_classes.len());
            w.field("lock_edges", self.lock_edges.len());
            w.field("coroutine_roots", self.callgraph.roots.len());
            w.field("max_stack_bound_bytes", self.callgraph.max_bound_bytes());
            w.field("clean", self.is_clean());
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_escapes_and_summarizes() {
        let mut r = Report { files_scanned: 1, ..Report::default() };
        r.violations.push(Violation {
            rule: "R8",
            file: "a\"b.rs".into(),
            line: 3,
            advisory: false,
            message: "x".into(),
            rationale: "y",
            suppressed: None,
        });
        let j = r.to_jsonl();
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.lines().last().unwrap().contains("\"clean\":false"));
        assert!(!r.is_clean());
    }

    /// Every line kind of both artifacts, byte for byte as the parent
    /// commit's `format!` strings rendered them.
    #[test]
    fn jsonl_matches_the_golden_bytes() {
        let mut r = Report { files_scanned: 3, suppressions_used: 1, ..Report::default() };
        r.violations.push(Violation {
            rule: "R8",
            file: "crates/a\"b\\c.rs".into(),
            line: 3,
            advisory: false,
            message: "`std::fs`\treached\r\n\u{1}é".into(),
            rationale: "blocking",
            suppressed: None,
        });
        r.violations.push(Violation {
            rule: "R9",
            file: "f.rs".into(),
            line: 7,
            advisory: true,
            message: "m".into(),
            rationale: "r",
            suppressed: Some("depth \"bounded\"".into()),
        });
        r.lock_classes = vec!["a::x".into(), "b::y".into()];
        r.lock_edges.push(LockEdge {
            held: "a::x".into(),
            acquired: "b::y".into(),
            file: "g.rs".into(),
            line: 11,
            func: "f".into(),
        });
        r.bad_suppressions.push(BadSuppression {
            file: "h.rs".into(),
            line: 2,
            rule: "R99".into(),
            missing_reason: false,
            unknown_rule: true,
        });
        r.callgraph = CallGraph {
            functions: 5,
            edges: vec![CallEdge {
                caller: "A::f".into(),
                callee: "g".into(),
                file: "x.rs".into(),
                line: 4,
            }],
            roots: vec![RootBound {
                root: "World::run::{closure@197}".into(),
                file: "w.rs".into(),
                line: 197,
                bound_bytes: 4096,
                frames: 3,
                recursive: false,
                path: vec!["World::run::{closure@197}".into(), "A::f".into(), "g".into()],
            }],
        };
        assert_eq!(
            r.to_jsonl(),
            concat!(
                r#"{"kind":"violation","rule":"R8","file":"crates/a\"b\\c.rs","line":3,"advisory":false,"suppressed":false,"reason":null,"message":"`std::fs`\treached\r\n\u0001é","rationale":"blocking"}"#,
                "\n",
                r#"{"kind":"violation","rule":"R9","file":"f.rs","line":7,"advisory":true,"suppressed":true,"reason":"depth \"bounded\"","message":"m","rationale":"r"}"#,
                "\n",
                r#"{"kind":"lock_edge","held":"a::x","acquired":"b::y","file":"g.rs","line":11,"fn":"f"}"#,
                "\n",
                r#"{"kind":"bad_suppression","rule":"R99","file":"h.rs","line":2,"missing_reason":false,"unknown_rule":true}"#,
                "\n",
                r#"{"kind":"summary","files":3,"findings":2,"suppressed":1,"unsuppressed":1,"rules":["R8"],"bad_suppressions":1,"lock_classes":2,"lock_edges":1,"coroutine_roots":1,"max_stack_bound_bytes":4096,"clean":false}"#,
                "\n",
            )
        );
        assert_eq!(
            r.callgraph.to_jsonl(),
            concat!(
                r#"{"kind":"call_edge","caller":"A::f","callee":"g","file":"x.rs","line":4}"#,
                "\n",
                r#"{"kind":"root","root":"World::run::{closure@197}","file":"w.rs","line":197,"bound_bytes":4096,"frames":3,"recursive":false,"path":["World::run::{closure@197}","A::f","g"]}"#,
                "\n",
                r#"{"kind":"summary","functions":5,"edges":1,"roots":1,"max_bound_bytes":4096}"#,
                "\n",
            )
        );
    }

    #[test]
    fn suppressed_findings_are_clean() {
        let mut r = Report::default();
        r.violations.push(Violation {
            rule: "R7",
            file: "f.rs".into(),
            line: 1,
            advisory: false,
            message: "m".into(),
            rationale: "r",
            suppressed: Some("invariant".into()),
        });
        assert!(r.is_clean());
        assert!(r.render_human().contains("allowed: invariant"));
    }
}
