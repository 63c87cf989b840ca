//! Pareto-frontier extraction over the planner's three objectives:
//! wallclock (minimize), node-hours (minimize), completion rate
//! (maximize) — the paper's "redundancy is a tuning knob" trade-off made
//! queryable.
//!
//! A scenario is on the frontier iff no other scenario is at least as good
//! on all three objectives and strictly better on one. Divergent
//! scenarios (no finite wallclock) can never be on the frontier.

use redcr_json::Writer;

use crate::engine::SweepEntry;

/// One frontier point, referencing its sweep entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Index into the sweep report's `entries`.
    pub entry_index: usize,
    /// Wallclock, hours.
    pub total_time_hours: f64,
    /// Resource usage, node-hours.
    pub node_hours: f64,
    /// Completion rate.
    pub completion_rate: f64,
}

/// `a` dominates `b`: no worse on every objective, strictly better on one.
fn dominates(a: &ParetoPoint, b: &ParetoPoint) -> bool {
    let no_worse = a.total_time_hours <= b.total_time_hours
        && a.node_hours <= b.node_hours
        && a.completion_rate >= b.completion_rate;
    let strictly_better = a.total_time_hours < b.total_time_hours
        || a.node_hours < b.node_hours
        || a.completion_rate > b.completion_rate;
    no_worse && strictly_better
}

/// Extracts the Pareto frontier of `entries`, sorted by ascending
/// wallclock (ties: ascending node-hours, then entry index) for a
/// deterministic, render-ready order.
pub fn frontier(entries: &[SweepEntry]) -> Vec<ParetoPoint> {
    let candidates: Vec<ParetoPoint> = entries
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            let t = e.result.total_time_hours?;
            let nh = e.result.node_hours?;
            Some(ParetoPoint {
                entry_index: i,
                total_time_hours: t,
                node_hours: nh,
                completion_rate: e.result.completion_rate,
            })
        })
        .collect();
    let mut front: Vec<ParetoPoint> = candidates
        .iter()
        .filter(|p| !candidates.iter().any(|q| dominates(q, p)))
        .copied()
        .collect();
    front.sort_by(|a, b| {
        a.total_time_hours
            .total_cmp(&b.total_time_hours)
            .then(a.node_hours.total_cmp(&b.node_hours))
            .then(a.entry_index.cmp(&b.entry_index))
    });
    front
}

/// A Pareto frontier restricted to one scenario group (same backend,
/// scale, policy, MTBF, workload — only the redundancy knob varies; see
/// [`ScenarioSpec::group_hash`](crate::spec::ScenarioSpec::group_hash)).
///
/// A global frontier across heterogeneous workloads is dominated by the
/// shortest job and says nothing about tuning; the per-group frontiers
/// answer the planner's actual question: *at my scale and failure rate,
/// which redundancy degrees are worth considering?*
#[derive(Debug, Clone, PartialEq)]
pub struct GroupFrontier {
    /// The group hash shared by the member entries.
    pub group: u64,
    /// Entry index of the group's first submission (deterministic label).
    pub first_entry_index: usize,
    /// The group's non-dominated points, sorted as in [`frontier`].
    pub points: Vec<ParetoPoint>,
}

/// Extracts one Pareto frontier per scenario group, in order of each
/// group's first appearance in `entries`.
pub fn grouped_frontiers(entries: &[SweepEntry]) -> Vec<GroupFrontier> {
    let mut order: Vec<u64> = Vec::new();
    let mut members: std::collections::BTreeMap<u64, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, e) in entries.iter().enumerate() {
        let g = e.spec.group_hash();
        members
            .entry(g)
            .or_insert_with(|| {
                order.push(g);
                Vec::new()
            })
            .push(i);
    }
    order
        .into_iter()
        .map(|group| {
            let idxs = &members[&group];
            // Frontier over the group's members, then map the
            // group-relative indices back to entry indices.
            let subset: Vec<SweepEntry> = idxs.iter().map(|&i| entries[i]).collect();
            let mut points = frontier(&subset);
            for p in &mut points {
                p.entry_index = idxs[p.entry_index];
            }
            GroupFrontier { group, first_entry_index: idxs[0], points }
        })
        .collect()
}

/// Canonical JSON array for a frontier (fixed key order, round-trip float
/// formatting).
pub fn render_json(front: &[ParetoPoint]) -> String {
    let mut out = String::new();
    write_json(&mut Writer::compact(&mut out), front);
    out
}

/// Writes [`render_json`]'s array as `w`'s next value.
pub fn write_json(w: &mut Writer<'_>, front: &[ParetoPoint]) {
    w.begin_array();
    for p in front {
        w.begin_object()
            .field("entry_index", p.entry_index)
            .field("total_time_hours", p.total_time_hours)
            .field("node_hours", p.node_hours)
            .field("completion_rate", p.completion_rate)
            .end_object();
    }
    w.end_array();
}

/// Canonical JSON array for grouped frontiers: one object per group with
/// its 16-hex group hash and the group's frontier points.
pub fn render_groups_json(groups: &[GroupFrontier]) -> String {
    let mut out = String::new();
    write_groups_json(&mut Writer::compact(&mut out), groups);
    out
}

/// Writes [`render_groups_json`]'s array as `w`'s next value.
pub fn write_groups_json(w: &mut Writer<'_>, groups: &[GroupFrontier]) {
    w.begin_array();
    for g in groups {
        w.begin_object().field("group", format!("{:016x}", g.group)).key("points");
        write_json(w, &g.points);
        w.end_object();
    }
    w.end_array();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ScenarioResult;
    use crate::spec::{Backend, ScenarioSpec, SpecPolicy, Workload};

    fn entry(t: Option<f64>, nh: Option<f64>, cr: f64) -> SweepEntry {
        entry_at(1.0, 1.0, t, nh, cr)
    }

    fn entry_at(degree: f64, mtbf: f64, t: Option<f64>, nh: Option<f64>, cr: f64) -> SweepEntry {
        let spec = ScenarioSpec {
            backend: Backend::Model,
            n_virtual: 1,
            degree,
            policy: SpecPolicy::Daly,
            node_mtbf_hours: mtbf,
            workload: Workload {
                base_time_hours: 1.0,
                alpha: 0.0,
                checkpoint_cost_hours: 0.1,
                restart_cost_hours: 0.1,
            },
            seeds: 0,
        };
        SweepEntry {
            spec,
            hash: spec.hash(),
            multiplicity: 1,
            cache_hit: false,
            result: ScenarioResult {
                total_time_hours: t,
                node_hours: nh,
                completion_rate: cr,
                mean_failures: 0.0,
                mean_masked_failures: 0.0,
                mean_checkpoints: 0.0,
                mean_attempts: 1.0,
            },
        }
    }

    #[test]
    fn dominated_points_are_dropped() {
        let entries = [
            entry(Some(10.0), Some(100.0), 1.0), // fast but expensive
            entry(Some(20.0), Some(50.0), 1.0),  // slow but cheap
            entry(Some(25.0), Some(120.0), 1.0), // dominated by both
        ];
        let f = frontier(&entries);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].entry_index, 0);
        assert_eq!(f[1].entry_index, 1);
    }

    #[test]
    fn divergent_entries_never_make_the_frontier() {
        let entries = [entry(None, None, 0.0), entry(Some(10.0), Some(10.0), 0.9)];
        let f = frontier(&entries);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].entry_index, 1);
    }

    #[test]
    fn completion_rate_is_a_real_objective() {
        // Same time and cost, higher completion rate dominates.
        let entries = [
            entry(Some(10.0), Some(10.0), 0.5),
            entry(Some(10.0), Some(10.0), 1.0),
            // Slower and dearer but the only one that always finishes? No —
            // entry 1 already has cr 1.0, so this is dominated.
            entry(Some(12.0), Some(12.0), 1.0),
        ];
        let f = frontier(&entries);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].entry_index, 1);
    }

    #[test]
    fn identical_points_both_survive() {
        // Neither strictly betters the other: both stay (deterministically
        // ordered by entry index).
        let entries = [entry(Some(10.0), Some(10.0), 1.0), entry(Some(10.0), Some(10.0), 1.0)];
        let f = frontier(&entries);
        assert_eq!(f.len(), 2);
        assert_eq!((f[0].entry_index, f[1].entry_index), (0, 1));
    }

    #[test]
    fn frontier_is_sorted_by_time() {
        let entries = [
            entry(Some(30.0), Some(10.0), 1.0),
            entry(Some(10.0), Some(90.0), 1.0),
            entry(Some(20.0), Some(40.0), 1.0),
        ];
        let f = frontier(&entries);
        assert_eq!(f.len(), 3);
        assert!(f.windows(2).all(|w| w[0].total_time_hours <= w[1].total_time_hours));
    }

    #[test]
    fn grouped_frontiers_split_by_knob_family() {
        // Two MTBF families; within each, one point dominates the other.
        // Across families the short-job family would dominate globally,
        // but grouping keeps both surfaces.
        let entries = [
            entry_at(1.0, 6.0, Some(1.0), Some(1.0), 1.0),
            entry_at(2.0, 6.0, Some(2.0), Some(4.0), 1.0), // dominated in-group
            entry_at(1.0, 12.0, Some(10.0), Some(10.0), 1.0),
            entry_at(2.0, 12.0, Some(9.0), Some(20.0), 1.0),
        ];
        let groups = grouped_frontiers(&entries);
        assert_eq!(groups.len(), 2);
        // Groups appear in first-submission order.
        assert_eq!(groups[0].first_entry_index, 0);
        assert_eq!(groups[1].first_entry_index, 2);
        assert_eq!(groups[0].points.len(), 1);
        assert_eq!(groups[0].points[0].entry_index, 0);
        // Both MTBF-12 points are in-group incomparable: both survive.
        assert_eq!(groups[1].points.len(), 2);
        let idxs: Vec<usize> = groups[1].points.iter().map(|p| p.entry_index).collect();
        assert_eq!(idxs, vec![3, 2]); // sorted by wallclock
    }

    #[test]
    fn grouped_frontier_indices_reference_the_full_entry_slice() {
        let entries = [
            entry_at(1.0, 6.0, Some(1.0), Some(1.0), 1.0),
            entry_at(1.0, 12.0, Some(5.0), Some(5.0), 1.0),
            entry_at(2.0, 12.0, Some(4.0), Some(4.0), 1.0), // dominates entry 1
        ];
        let groups = grouped_frontiers(&entries);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[1].points.len(), 1);
        assert_eq!(groups[1].points[0].entry_index, 2, "index maps back to the full slice");
    }

    #[test]
    fn groups_json_renders_deterministically() {
        let entries = [entry_at(1.0, 6.0, Some(1.5), Some(3.0), 1.0)];
        let groups = grouped_frontiers(&entries);
        let s = render_groups_json(&groups);
        let expect = format!(
            "[{{\"group\":\"{:016x}\",\"points\":[{{\"entry_index\":0,\
             \"total_time_hours\":1.5,\"node_hours\":3,\"completion_rate\":1}}]}}]",
            entries[0].spec.group_hash()
        );
        assert_eq!(s, expect);
    }

    #[test]
    fn json_renders_deterministically() {
        let entries = [entry(Some(10.5), Some(21.0), 1.0)];
        let f = frontier(&entries);
        let s = render_json(&f);
        assert_eq!(
            s,
            "[{\"entry_index\":0,\"total_time_hours\":10.5,\"node_hours\":21,\
             \"completion_rate\":1}]"
        );
    }
}
