//! Node-granularity failures: correlated process deaths.
//!
//! The paper's model (assumption 1, following Schroeder/Gibson) treats the
//! *socket/node* as the unit of failure and notes that its experiments pin
//! 14 application processes per node. A node failure therefore kills all of
//! its processes at once — a correlation the independent per-process model
//! ignores. This module maps node-level exponential failures onto process
//! deaths so both granularities can be compared (the `simulation` bench and
//! the `window` study use the per-process model, as the paper's injector
//! does; this is the ablation counterpart).

use crate::poisson::ExpSampler;
use crate::schedule::{FailureSchedule, ReplicaGroups};

/// A placement of physical processes onto nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePlacement {
    /// `node_of[p]` = node hosting physical process `p`.
    node_of: Vec<usize>,
    n_nodes: usize,
}

impl NodePlacement {
    /// Packs processes onto nodes in rank order, `procs_per_node` at a time
    /// (the paper's pinning: 14 application processes per node).
    ///
    /// # Panics
    ///
    /// Panics if `procs_per_node == 0` or `n_physical == 0`.
    pub fn packed(n_physical: usize, procs_per_node: usize) -> Self {
        assert!(procs_per_node > 0, "need at least one process per node");
        assert!(n_physical > 0, "need at least one process");
        let node_of: Vec<usize> = (0..n_physical).map(|p| p / procs_per_node).collect();
        let n_nodes = node_of.last().unwrap() + 1;
        NodePlacement { node_of, n_nodes }
    }

    /// A placement that keeps the replicas of each sphere on *distinct*
    /// nodes (packing primaries first, then shadows, like the replication
    /// layer's rank layout) — replicas sharing a node would die together
    /// and void the redundancy.
    ///
    /// # Panics
    ///
    /// Panics if any sphere has more replicas than there are nodes.
    pub fn anti_affine(groups: &ReplicaGroups, procs_per_node: usize) -> Self {
        let placement = Self::packed(groups.n_physical(), procs_per_node);
        for (v, members) in groups.iter().enumerate() {
            let mut nodes: Vec<usize> = members.iter().map(|&p| placement.node_of[p]).collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(
                nodes.len(),
                members.len(),
                "sphere {v} has replicas sharing a node; reduce procs_per_node"
            );
        }
        placement
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of placed processes.
    pub fn n_physical(&self) -> usize {
        self.node_of.len()
    }

    /// The node hosting process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn node_of(&self, p: usize) -> usize {
        self.node_of[p]
    }

    /// Expands node death times into a per-process [`FailureSchedule`]:
    /// every process dies exactly when its node does.
    ///
    /// # Panics
    ///
    /// Panics if `node_deaths.len() != n_nodes()`.
    pub fn expand(&self, node_deaths: &[f64]) -> FailureSchedule {
        assert_eq!(node_deaths.len(), self.n_nodes);
        FailureSchedule { death_times: self.node_of.iter().map(|&n| node_deaths[n]).collect() }
    }

    /// Samples node-level failures (per-node MTBF `sampler.mean()`) and
    /// returns the induced process schedule.
    pub fn sample(&self, sampler: &mut ExpSampler) -> FailureSchedule {
        let node_deaths: Vec<f64> = (0..self.n_nodes).map(|_| sampler.sample()).collect();
        self.expand(&node_deaths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_layout() {
        let p = NodePlacement::packed(10, 4);
        assert_eq!(p.n_nodes(), 3);
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(3), 0);
        assert_eq!(p.node_of(4), 1);
        assert_eq!(p.node_of(9), 2);
    }

    #[test]
    fn expand_correlates_deaths() {
        let p = NodePlacement::packed(6, 3);
        let sched = p.expand(&[5.0, 9.0]);
        assert_eq!(sched.death_times, vec![5.0, 5.0, 5.0, 9.0, 9.0, 9.0]);
    }

    #[test]
    fn anti_affinity_holds_for_replica_layout() {
        // 8 virtual at 2x: primaries are processes 0..8, shadows 8..16;
        // with 4 procs/node the primary and shadow of any rank land on
        // different nodes.
        let groups = ReplicaGroups::uniform(8, 2);
        let p = NodePlacement::anti_affine(&groups, 4);
        for v in 0..8 {
            let members = groups.members(v);
            assert_ne!(p.node_of(members[0]), p.node_of(members[1]), "rank {v}");
        }
    }

    #[test]
    #[should_panic(expected = "sharing a node")]
    fn co_located_replicas_rejected() {
        // 2 virtual at 2x on one giant node: replicas share it.
        let groups = ReplicaGroups::uniform(2, 2);
        let _ = NodePlacement::anti_affine(&groups, 4);
    }

    #[test]
    fn node_failures_are_coarser_than_process_failures() {
        // Same total MTBF per unit: node-level failures kill the (1x) job
        // at the rate of n_nodes units, process-level at n_procs units —
        // node granularity yields longer job lifetimes at equal per-unit
        // MTBF because there are fewer failure units.
        let groups = ReplicaGroups::uniform(28, 1);
        let placement = NodePlacement::packed(28, 14); // 2 nodes
        let mut node_sampler = ExpSampler::new(100.0, 1);
        let mut proc_sampler = ExpSampler::new(100.0, 1);
        let n = 2000;
        let node_mean: f64 =
            (0..n).map(|_| placement.sample(&mut node_sampler).job_failure(&groups).0).sum::<f64>()
                / n as f64;
        let proc_mean: f64 = (0..n)
            .map(|_| FailureSchedule::sample(28, &mut proc_sampler).job_failure(&groups).0)
            .sum::<f64>()
            / n as f64;
        // 2 failure units vs 28: expect roughly 14x longer lifetime.
        assert!(node_mean > 8.0 * proc_mean, "node {node_mean} vs process {proc_mean}");
    }
}
