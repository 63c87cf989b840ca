//! Cross-crate integration tests through the `redcr` facade: the full
//! stack (application + replication + coordinated C/R + fault injection)
//! and the model/simulator agreement that constitutes the paper's central
//! validation claim.

#![expect(
    clippy::disallowed_methods,
    reason = "the tests make, list and remove their own DiskStorage directories"
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use redcr::apps::cg::CgConfig;
use redcr::apps::jacobi::JacobiConfig;
use redcr::ckpt::coordinator::CheckpointCoordinator;
use redcr::ckpt::restart;
use redcr::ckpt::storage::{DiskStorage, MemoryStorage, SnapshotKey, StableStorage};
use redcr::ckpt::CountingComm;
use redcr::cluster::combined::simulate_combined;
use redcr::cluster::job::FailureExposure;
use redcr::core::apps::{CgApp, JacobiApp};
use redcr::core::{ExecutorConfig, ResilientExecutor};
use redcr::fault::ReplicaGroups;
use redcr::model::combined::CombinedConfig;
use redcr::model::partition::RedundancyPartition;
use redcr::model::units;
use redcr::mpi::{Communicator, CostModel, MpiError, Rank, Tag};
use redcr::red::{ReplicatedWorld, VirtualMap, VoteCost};
use redcr_sched::sync::Mutex;

/// A process-unique, test-unique scratch directory that cleans itself up
/// even when the test panics.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(prefix: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn cg_survives_failures_under_partial_redundancy() {
    // 1.5x partial redundancy: even virtual ranks replicated, odd ranks
    // singletons — the paper's Figure 1(b) topology, under real failures.
    let app = CgApp::new(CgConfig::small(48), 30).with_step_pad(1.0);
    let cfg = ExecutorConfig::new(6, 1.5)
        .node_mtbf(120.0)
        .checkpoint_interval(6.0)
        .checkpoint_cost(0.2)
        .restart_cost(1.0)
        .seed(99);
    let report = ResilientExecutor::new(cfg).run(&app).unwrap();
    assert_eq!(report.n_physical, 9, "6 virtual at 1.5x = 9 physical");
    for state in &report.final_states {
        assert_eq!(state.iteration, 30);
    }
    // The numerical answer matches a failure-free, unreplicated run.
    let clean = ResilientExecutor::new(ExecutorConfig::new(6, 1.0))
        .run(&CgApp::new(CgConfig::small(48), 30))
        .unwrap();
    for (a, b) in report.final_states.iter().zip(&clean.final_states) {
        for (x, y) in a.x.iter().zip(&b.x) {
            assert_eq!(x.to_bits(), y.to_bits(), "bitwise identical trajectories");
        }
    }
}

#[test]
fn jacobi_app_recovers_through_checkpoints() {
    let app = JacobiApp::new(JacobiConfig::small(8), 50).with_step_pad(1.0);
    let cfg = ExecutorConfig::new(4, 2.0)
        .node_mtbf(60.0)
        .checkpoint_interval(8.0)
        .checkpoint_cost(0.3)
        .restart_cost(1.5)
        .seed(5);
    let report = ResilientExecutor::new(cfg).run(&app).unwrap();
    for state in &report.final_states {
        assert_eq!(state.iteration, 50);
    }
    assert!(report.total_virtual_time >= 50.0);
}

#[test]
fn checkpoints_survive_on_disk_storage() {
    let dir = TempDir::new("redcr-int");
    let storage = Arc::new(DiskStorage::open(&dir.0).unwrap());
    let app = CgApp::new(CgConfig::small(32), 25).with_step_pad(1.0);
    let cfg = ExecutorConfig::new(4, 2.0)
        .node_mtbf(50.0)
        .checkpoint_interval(5.0)
        .checkpoint_cost(0.2)
        .restart_cost(1.0)
        .seed(17);
    let report = ResilientExecutor::with_storage(cfg, storage.clone()).run(&app).unwrap();
    assert!(report.checkpoints_committed > 0, "expected on-disk checkpoints");
    // Image files really exist on disk.
    let files = std::fs::read_dir(&dir.0).unwrap().count();
    assert!(files > 0);
}

#[test]
fn live_replica_failures_masked_without_restart() {
    // The live-injection acceptance case: at 2x the very failure schedule
    // that forces repeated restarts at 1x is fully masked — the run
    // completes in ONE attempt with every death absorbed by a surviving
    // replica, and the numerics stay bitwise identical to a failure-free
    // run.
    let app = || CgApp::new(CgConfig::small(32), 20).with_step_pad(1.0);
    let cfg = |degree: f64| {
        ExecutorConfig::new(4, degree)
            .node_mtbf(60.0)
            .checkpoint_interval(6.0)
            .checkpoint_cost(0.2)
            .restart_cost(1.0)
            .seed(21)
    };

    let masked = ResilientExecutor::new(cfg(2.0)).run(&app()).unwrap();
    assert_eq!(masked.attempts, 1, "replica deaths must be masked, not restarted");
    assert_eq!(masked.failures, 0);
    assert!(masked.masked_failures > 0, "a replica really died mid-run");
    assert!(masked.degraded_sphere_seconds > 0.0, "some sphere ran degraded");
    assert!(!masked.failure_trace.is_empty(), "the deaths are on record");

    // The identical schedule without redundancy restarts over and over.
    let plain = ResilientExecutor::new(cfg(1.0)).run(&app()).unwrap();
    assert!(plain.failures > 0, "the same seed at 1x must hit restarts");
    assert!(plain.attempts > 1);

    // Failure-free reference: masking must not perturb the solution.
    let clean = ResilientExecutor::new(ExecutorConfig::new(4, 1.0)).run(&app()).unwrap();
    assert_eq!(clean.masked_failures, 0);
    for (a, b) in masked.final_states.iter().zip(&clean.final_states) {
        assert_eq!(a.iteration, b.iteration);
        for (x, y) in a.x.iter().zip(&b.x) {
            assert_eq!(x.to_bits(), y.to_bits(), "bitwise identical despite masked deaths");
        }
    }
}

#[test]
fn checkpoint_commits_while_sphere_degraded() {
    // A replica dies mid-run, then a coordinated checkpoint is taken: the
    // bookmark quiesce and commit barrier must complete over the degraded
    // sphere and leave a restorable checkpoint on stable storage.
    let storage: Arc<dyn StableStorage> = Arc::new(MemoryStorage::new());
    let coord = CheckpointCoordinator::new(Arc::clone(&storage));
    let mut deaths = vec![f64::INFINITY; 4];
    deaths[2] = 1.5; // v0's shadow replica dies during step 1
    let report = ReplicatedWorld::builder(2, 2.0)
        .unwrap()
        .cost_model(CostModel::zero())
        .vote_cost(VoteCost::zero())
        .death_times(deaths)
        .run(move |comm| {
            let counting = CountingComm::new(comm);
            let mut state = vec![comm.rank().index() as f64];
            for step in 0..4u64 {
                counting.compute(1.0)?;
                let next = comm.rank().offset(1, comm.size());
                let prev = comm.rank().offset(-1, comm.size());
                counting.send_f64s(next, Tag::new(step), &state)?;
                let (vals, _) = counting.recv_f64s(prev.into(), Tag::new(step).into())?;
                state[0] += vals[0];
            }
            // By now (t = 4) virtual rank 0 runs on a single replica; the
            // collective checkpoint protocol must still go through.
            coord.checkpoint(&counting, 0, &state).map_err(MpiError::from)?;
            Ok(state[0])
        })
        .unwrap();
    assert!(!report.aborted, "degraded sphere must not abort the job");
    assert_eq!(report.dead_ranks, vec![2]);
    // Survivors agree on the state that was checkpointed.
    let survivors: Vec<f64> =
        report.results.iter().filter_map(|r| r.as_ref().ok().copied()).collect();
    assert_eq!(survivors.len(), 3);
    assert!(survivors.iter().all(|&v| v == survivors[0]));
    // Both virtual ranks committed an image: the checkpoint is complete
    // and restartable.
    assert_eq!(restart::latest_complete(storage.as_ref(), 2).unwrap(), Some(0));
}

/// Stable storage that keeps every write, not just the last one per key.
#[derive(Debug, Default)]
struct EveryWrite {
    inner: MemoryStorage,
    writes: Mutex<BTreeMap<SnapshotKey, Vec<Vec<u8>>>>,
}

impl StableStorage for EveryWrite {
    fn store(&self, key: SnapshotKey, data: &[u8]) -> redcr::ckpt::Result<()> {
        self.writes.lock().entry(key).or_default().push(data.to_vec());
        self.inner.store(key, data)
    }

    fn load(&self, key: SnapshotKey) -> redcr::ckpt::Result<Vec<u8>> {
        self.inner.load(key)
    }

    fn list(&self) -> redcr::ckpt::Result<Vec<SnapshotKey>> {
        self.inner.list()
    }

    fn delete(&self, key: SnapshotKey) -> redcr::ckpt::Result<()> {
        self.inner.delete(key)
    }
}

#[test]
fn replicas_of_one_sphere_store_byte_identical_images() {
    // Both replicas of a sphere store under the sphere's one key and the
    // last writer wins, so what a restart reads back must not depend on
    // which of them that was — although, with a real network model, their
    // clocks differ when they checkpoint.
    let storage = Arc::new(EveryWrite::default());
    let app = CgApp::new(CgConfig::small(64), 12).with_step_pad(1.0);
    let cfg = ExecutorConfig::new(4, 2.0)
        .checkpoint_interval(3.0)
        .checkpoint_cost(0.2)
        .comm_cost(CostModel::infiniband_qdr())
        .seed(5);
    let report = ResilientExecutor::with_storage(cfg, storage.clone()).run(&app).unwrap();
    assert!(report.checkpoints_committed >= 2, "{report}");

    let writes = storage.writes.lock();
    assert_eq!(writes.len() as u64, 4 * report.checkpoints_committed);
    for (key, images) in writes.iter() {
        assert_eq!(images.len(), 2, "{key}: one write per replica");
        assert_eq!(images[0], images[1], "{key}: the replicas' images differ");
    }
}

/// The executor kills physical ranks by the failure layer's spheres, built
/// from the partition's replica counts, while `ReplicatedWorld` routes
/// messages by its own `VirtualMap` of the same partition: a replica the
/// two place differently would die in one sphere and vote in another.
#[test]
fn failure_spheres_and_replica_map_place_every_replica_alike() {
    for n in [1u64, 7, 8] {
        for r in [1.0, 1.25, 1.5, 2.0, 2.25, 2.5, 3.0] {
            let partition = RedundancyPartition::new(n, r).unwrap();
            let counts: Vec<usize> = (0..n).map(|v| partition.replicas_of(v) as usize).collect();
            let groups = ReplicaGroups::from_counts(&counts);
            let map = VirtualMap::new(partition);
            assert_eq!(map.n_physical(), groups.n_physical(), "N={n} r={r}");
            for v in 0..n as usize {
                let replicas: Vec<usize> =
                    map.replicas_of(Rank::new(v as u32)).iter().map(|p| p.index()).collect();
                assert_eq!(replicas, groups.members(v), "N={n} r={r} v={v}");
            }
        }
    }
}

#[test]
fn model_and_monte_carlo_agree_across_degrees() {
    // The paper's validation claim, exercised end to end: the closed-form
    // Eq. 14 prediction and the event simulation agree at every degree.
    let cfg = CombinedConfig::builder()
        .virtual_processes(96)
        .base_time_hours(8.0)
        .node_mtbf_hours(400.0)
        .comm_fraction(0.2)
        .checkpoint_cost_hours(units::hours_from_secs(120.0))
        .restart_cost_hours(units::hours_from_secs(500.0))
        .build()
        .unwrap();
    for degree in [1.5, 2.0, 2.5, 3.0] {
        let c = cfg.with_degree(degree);
        let model = c.evaluate().unwrap().total_time;
        let n = 24;
        let mean = (0..n)
            .map(|seed| simulate_combined(&c, FailureExposure::AllTime, seed).unwrap().total_time)
            .sum::<f64>()
            / n as f64;
        let rel = (mean - model).abs() / model;
        assert!(rel < 0.2, "degree {degree}: model {model} vs MC {mean} (rel {rel:.3})");
    }
}

#[test]
fn facade_reexports_cover_the_stack() {
    // Compile-time check that the five-layer story is reachable from the
    // single `redcr` entry point.
    let _ = redcr::model::units::hours_from_years(1.0);
    let _ = redcr::mpi::CostModel::zero();
    let _ = redcr::red::VotingMode::AllToAll;
    let _ = redcr::ckpt::storage::StorageCostModel::zero();
    let _ = redcr::fault::ReplicaGroups::uniform(2, 2);
    let _ = redcr::cluster::job::FailureExposure::AllTime;
    let _ = redcr::core::ExecutorConfig::new(2, 1.0);
    let _ = redcr::apps::cg::CgConfig::small(8);
}
