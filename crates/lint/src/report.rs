//! Lint findings and report rendering: human text and JSONL (one compact
//! `redcr-json` object per line).

use std::fmt::Write as _;

use redcr_json::Writer;

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule id (`R8`).
    pub rule: &'static str,
    /// Workspace-relative file path (slash-separated).
    pub file: String,
    /// 1-based line.
    pub line: u32,
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
    /// The interprocedural pass's call graph, emitted as a sibling JSONL
    /// artifact by the CLI.
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

/// One coroutine root: a closure the scheduler runs on its own stack.
#[derive(Debug, Clone)]
pub struct CoroutineRoot {
    /// Root name (a closure label like `World::run::{closure@197}`).
    pub root: String,
    /// File defining the root.
    pub file: String,
    /// Line of the closure literal.
    pub line: u32,
}

/// Call-graph artifact: what the interprocedural pass saw. Rendered as
/// its own JSONL file (`detlint-callgraph.jsonl`) so CI can archive it
/// next to the findings report.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Functions (free, methods, and closure literals) parsed.
    pub functions: usize,
    /// Resolved workspace-internal call edges, deduplicated.
    pub edges: Vec<CallEdge>,
    /// One entry per coroutine root.
    pub roots: Vec<CoroutineRoot>,
}

impl CallGraph {
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
            });
        }
        line(&mut out, "summary", |w| {
            w.field("functions", self.functions).field("edges", self.edges.len());
            w.field("roots", self.roots.len());
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
            let _ = writeln!(
                out,
                "{}:{}: {} {}\n    rationale: {}",
                v.file, v.line, v.rule, v.message, v.rationale
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
            "call graph: {} functions, {} edges, {} coroutine roots",
            self.callgraph.functions,
            self.callgraph.edges.len(),
            self.callgraph.roots.len(),
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
    /// then one per bad suppression, then a summary object.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            line(&mut out, "violation", |w| {
                w.field("rule", v.rule).field("file", &v.file).field("line", v.line);
                w.field("suppressed", v.suppressed.is_some());
                w.field("reason", &v.suppressed).field("message", &v.message);
                w.field("rationale", v.rationale);
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
            w.field("coroutine_roots", self.callgraph.roots.len());
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
            message: "x".into(),
            rationale: "y",
            suppressed: None,
        });
        let j = r.to_jsonl();
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.lines().last().unwrap().contains("\"clean\":false"));
        assert!(!r.is_clean());
    }

    /// Every line kind of both artifacts, byte for byte.
    #[test]
    fn jsonl_matches_the_golden_bytes() {
        let mut r = Report { files_scanned: 3, suppressions_used: 1, ..Report::default() };
        r.violations.push(Violation {
            rule: "R8",
            file: "crates/a\"b\\c.rs".into(),
            line: 3,
            message: "`std::fs`\treached\r\n\u{1}é".into(),
            rationale: "blocking",
            suppressed: None,
        });
        r.violations.push(Violation {
            rule: "R8",
            file: "f.rs".into(),
            line: 7,
            message: "m".into(),
            rationale: "r",
            suppressed: Some("write \"charged\"".into()),
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
            roots: vec![CoroutineRoot {
                root: "World::run::{closure@197}".into(),
                file: "w.rs".into(),
                line: 197,
            }],
        };
        assert_eq!(
            r.to_jsonl(),
            concat!(
                r#"{"kind":"violation","rule":"R8","file":"crates/a\"b\\c.rs","line":3,"suppressed":false,"reason":null,"message":"`std::fs`\treached\r\n\u0001é","rationale":"blocking"}"#,
                "\n",
                r#"{"kind":"violation","rule":"R8","file":"f.rs","line":7,"suppressed":true,"reason":"write \"charged\"","message":"m","rationale":"r"}"#,
                "\n",
                r#"{"kind":"bad_suppression","rule":"R99","file":"h.rs","line":2,"missing_reason":false,"unknown_rule":true}"#,
                "\n",
                r#"{"kind":"summary","files":3,"findings":2,"suppressed":1,"unsuppressed":1,"rules":["R8"],"bad_suppressions":1,"coroutine_roots":1,"clean":false}"#,
                "\n",
            )
        );
        assert_eq!(
            r.callgraph.to_jsonl(),
            concat!(
                r#"{"kind":"call_edge","caller":"A::f","callee":"g","file":"x.rs","line":4}"#,
                "\n",
                r#"{"kind":"root","root":"World::run::{closure@197}","file":"w.rs","line":197}"#,
                "\n",
                r#"{"kind":"summary","functions":5,"edges":1,"roots":1}"#,
                "\n",
            )
        );
    }

    #[test]
    fn suppressed_findings_are_clean() {
        let mut r = Report::default();
        r.violations.push(Violation {
            rule: "R8",
            file: "f.rs".into(),
            line: 1,
            message: "m".into(),
            rationale: "r",
            suppressed: Some("invariant".into()),
        });
        assert!(r.is_clean());
        assert!(r.render_human().contains("allowed: invariant"));
    }
}
