//! R5: the lock-order fold.
//!
//! The parser records every `.lock(` acquisition (temporaries included)
//! with the lock guards live at it, under the one guard model R7 uses too:
//! a bound guard lives until `drop(g)` or its scope's closing brace, a
//! temporary binds nothing. This module folds those records into the
//! inter-crate lock graph over *lock classes* (`crate::receiver`) and
//! reports any cycle.
//!
//! Heuristics (documented so their limits are explicit):
//!
//! * a lock taken inside a closure literal also counts the guards live
//!   where the closure is defined (and, transitively, where its definer
//!   was) — an over-approximation in the safe direction, since most
//!   closures run within their definer's extent;
//! * lock classes are named by the receiver field/variable, qualified by
//!   crate — two same-named fields in one crate would merge (none do
//!   today).

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::{Callee, Workspace};
use crate::report::{LockEdge, Violation};
use crate::rules::finding;

/// Folds every function's acquisitions into the lock graph and reports
/// its cycles: (classes, edges, R5 findings).
pub fn analyze(ws: &Workspace) -> (Vec<String>, Vec<LockEdge>, Vec<Violation>) {
    let fns = &ws.functions;
    // Guards live where each closure is defined, inherited by its body. A
    // closure is pushed after its definer, so index order visits the
    // definer's `Callee::Closure` site first.
    let mut outer: Vec<Vec<String>> = vec![Vec::new(); fns.len()];
    let mut classes: BTreeSet<String> = BTreeSet::new();
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        for call in &f.calls {
            if let Callee::Closure(c) = call.callee {
                let inherited = call.guards.iter().chain(&outer[i]).cloned().collect();
                outer[c] = inherited;
            }
        }
        for lock in &f.locks {
            classes.insert(lock.class.clone());
            for held in lock.held.iter().chain(&outer[i]).filter(|&h| *h != lock.class) {
                edges.entry((held.clone(), lock.class.clone())).or_insert_with(|| LockEdge {
                    held: held.clone(),
                    acquired: lock.class.clone(),
                    file: f.file.clone(),
                    line: lock.line,
                    func: f.name.clone(),
                });
            }
        }
    }

    let edge_list: Vec<LockEdge> = edges.values().cloned().collect();
    let violations = find_cycles(&classes, &edges);
    (classes.into_iter().collect(), edge_list, violations)
}

/// DFS cycle detection over the class graph; one violation per cycle
/// found, anchored at a representative edge site.
fn find_cycles(
    classes: &BTreeSet<String>,
    edges: &BTreeMap<(String, String), LockEdge>,
) -> Vec<Violation> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (h, a) in edges.keys() {
        adj.entry(h.as_str()).or_default().push(a.as_str());
    }
    let mut violations = Vec::new();
    let mut color: BTreeMap<&str, u8> = classes.iter().map(|c| (c.as_str(), 0u8)).collect();
    let mut stack: Vec<&str> = Vec::new();

    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        color: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
        cycles: &mut Vec<Vec<String>>,
    ) {
        color.insert(node, 1);
        stack.push(node);
        for &next in adj.get(node).map(Vec::as_slice).unwrap_or_default() {
            match color.get(next).copied().unwrap_or(0) {
                0 => dfs(next, adj, color, stack, cycles),
                1 => {
                    let pos = stack.iter().position(|&n| n == next).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[pos..].iter().map(|s| (*s).to_string()).collect();
                    cycle.push(next.to_string());
                    cycles.push(cycle);
                }
                _ => {}
            }
        }
        stack.pop();
        color.insert(node, 2);
    }

    let mut cycles: Vec<Vec<String>> = Vec::new();
    for c in classes {
        if color.get(c.as_str()).copied().unwrap_or(0) == 0 {
            dfs(c.as_str(), &adj, &mut color, &mut stack, &mut cycles);
        }
    }
    for cycle in cycles {
        // Anchor at the edge closing the cycle.
        let anchor = edges
            .get(&(cycle[cycle.len() - 2].clone(), cycle[cycle.len() - 1].clone()))
            .or_else(|| edges.values().next());
        let (file, line) = anchor.map(|e| (e.file.clone(), e.line)).unwrap_or_default();
        let message = format!("lock-order cycle: {}", cycle.join(" -> "));
        violations.push(finding("R5", &file, line, false, message));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Domain;
    use crate::parser::parse_file;
    use crate::rules::lower;

    fn run(src: &str) -> (Vec<String>, Vec<LockEdge>, Vec<Violation>) {
        let mut ws = Workspace::default();
        parse_file(&mut ws, "t.rs", "t", &lower(src));
        analyze(&ws)
    }

    #[test]
    fn nested_acquisition_produces_edge() {
        let src = "fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }";
        let (classes, edges, v) = run(src);
        assert_eq!(classes, vec!["t::alpha", "t::beta"]);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].held, "t::alpha");
        assert_eq!(edges[0].acquired, "t::beta");
        assert!(v.is_empty());
    }

    #[test]
    fn temporary_guard_creates_no_edge() {
        let src = "fn f(&self) { self.alpha.lock().push(1); let b = self.beta.lock(); }";
        let (_, edges, v) = run(src);
        assert!(edges.is_empty(), "{edges:?}");
        assert!(v.is_empty());
    }

    #[test]
    fn drop_releases_guard() {
        let src = "fn f(&self) { let a = self.alpha.lock(); drop(a); let b = self.beta.lock(); }";
        let (_, edges, _) = run(src);
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn opposite_orders_report_cycle() {
        let src = "
            fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
            fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }
        ";
        let (_, edges, v) = run(src);
        assert_eq!(edges.len(), 2);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R5");
        assert!(v[0].message.contains("alpha"), "{}", v[0].message);
    }

    #[test]
    fn reassignment_replaces_guard() {
        let src = "fn f(&self) { let mut a = self.alpha.lock(); a = self.alpha.lock(); let b = self.beta.lock(); }";
        let (_, edges, _) = run(src);
        // alpha held (rebind, not doubled) → one edge alpha→beta.
        assert_eq!(edges.len(), 1);
    }

    #[test]
    fn test_code_is_masked() {
        let src = "#[cfg(test)] mod tests { fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); } }";
        let (classes, edges, _) = run(src);
        assert!(classes.is_empty());
        assert!(edges.is_empty());
    }

    #[test]
    fn indexed_receiver_resolves_to_field() {
        let src =
            "fn f(&self, i: usize) { let g = self.boxes[i].lock(); let h = self.world.lock(); }";
        let (classes, _, _) = run(src);
        assert!(classes.contains(&"t::boxes".to_string()), "{classes:?}");
    }

    #[test]
    fn scoped_guard_creates_no_edge() {
        let src = "fn f(&self) { { let a = self.x.lock(); } let b = self.y.lock(); }";
        let (classes, edges, _) = run(src);
        assert_eq!(classes, vec!["t::x", "t::y"]);
        assert!(edges.is_empty(), "{edges:?}");
    }

    /// R7's twin of `scoped_guard_creates_no_edge`: the guard the lock
    /// graph calls dead is dead for park-under-lock too.
    #[test]
    fn scoped_guard_is_not_held_across_a_park() {
        let park = "fn park_current() {}\n";
        let scoped = "fn f(&self) { { let a = self.x.lock(); } park_current(); }";
        let report = crate::lint_source("t.rs", Domain::Hot, &format!("{park}{scoped}"));
        assert!(report.is_clean(), "{report:?}");
        let unscoped = "fn f(&self) { let a = self.x.lock(); park_current(); }";
        let report = crate::lint_source("t.rs", Domain::Hot, &format!("{park}{unscoped}"));
        assert!(report.unsuppressed().any(|v| v.rule == "R7"), "{report:?}");
    }

    #[test]
    fn closure_under_a_live_guard_is_an_edge() {
        let src = "fn f(&self) { let a = self.alpha.lock(); \
                   self.items.iter().for_each(|i| { let b = self.beta.lock(); }); }";
        let (_, edges, _) = run(src);
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!((edges[0].held.as_str(), edges[0].acquired.as_str()), ("t::alpha", "t::beta"));
    }
}
