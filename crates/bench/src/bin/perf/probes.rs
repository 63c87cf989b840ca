//! Per-layer probes: benchmark-owned spans around direct calls into each
//! crate's public functions. Nothing here touches a program file.
//!
//! Every probe returns the value of one per-layer metric for one run of its
//! fixed-size input; the caller repeats it and keeps the median. Sizes are
//! chosen so that one run takes some tens of milliseconds, the telemetry
//! solves excepted.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use redcr_apps::cg::{CgConfig, CgSolver};
use redcr_apps::jacobi::{JacobiConfig, JacobiSolver};
use redcr_ckpt::incremental::{reconstruct, IncrementalEngine};
use redcr_ckpt::{
    compress, from_bytes, to_bytes, CheckpointCoordinator, CountingComm, MemoryStorage,
    ProcessImage, SnapshotKey, StableStorage,
};
use redcr_cluster::combined::simulate_combined;
use redcr_cluster::{monte_carlo, FailureExposure};
use redcr_core::apps::CgApp;
use redcr_core::{ExecutorConfig, ResilientApp, ResilientExecutor};
use redcr_fault::{FailureInjector, ReplicaGroups};
use redcr_model::optimizer::{crossover, optimal_redundancy, RGrid};
use redcr_mpi::collectives::ReduceOp;
use redcr_mpi::trace::{perfetto, Analysis, CriticalPath, Trace};
use redcr_mpi::{Communicator, Rank, RankSelector, Tag, TagSelector, World};
use redcr_red::voting::{vote_full, vote_hashed};
use redcr_red::{hash_payload, ReplicatedWorld, VotingMode};
use redcr_sweep::engine::evaluate;
use redcr_sweep::{
    dedup, frontier, run_sweep, Backend, ResultCache, ScenarioSpec, SpecPolicy,
    Workload as SweepWorkload,
};

use crate::stats::{Quartiles, Spans};

/// Most runs of one probe; the median is the metric. A probe that has used
/// `PROBE_SECONDS` stops there: the telemetry probes are whole solves, and
/// every traced run of the driver pays for the whole set.
const PROBE_REPS: usize = 3;
const PROBE_SECONDS: f64 = 1.0;

const MIB: f64 = 1024.0 * 1024.0;

/// Input sizes. `quick` divides the loop counts for the smoke test.
#[derive(Debug, Clone, Copy)]
struct Scale {
    seed: u64,
    div: u64,
}

impl Scale {
    fn n(&self, full: u64) -> u64 {
        (full / self.div).max(2)
    }
}

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Wall seconds of `n` calls of `f`.
fn secs_n(n: u64, mut f: impl FnMut()) -> f64 {
    secs(|| (0..n).for_each(|_| f()))
}

/// Times a world of `ranks` ranks on `workers` workers, from outside.
fn world_secs<F>(ranks: usize, workers: usize, f: F) -> f64
where
    F: Fn(&redcr_mpi::Comm) -> redcr_mpi::Result<()> + Send + Sync,
{
    secs(|| {
        World::builder(ranks)
            .workers(workers)
            .run(f)
            .expect("probe world runs")
            .into_results()
            .expect("probe ranks finish");
    })
}

/// A blocking 64 B round trip between ranks 0 and 1 with a specific source
/// and tag, through any communicator.
fn pingpong<C: Communicator>(comm: &C, rounds: u64) -> redcr_mpi::Result<()> {
    let me = comm.rank().index();
    let peer = Rank::new(1 - me as u32);
    let payload = Bytes::from_static(&[0u8; 64]);
    let tag = Tag::new(7);
    for _ in 0..rounds {
        if me == 0 {
            comm.send_bytes(peer, tag, payload.clone())?;
            comm.recv(RankSelector::Rank(peer), TagSelector::Tag(tag))?;
        } else {
            comm.recv(RankSelector::Rank(peer), TagSelector::Tag(tag))?;
            comm.send_bytes(peer, tag, payload.clone())?;
        }
    }
    Ok(())
}

fn pingpong_ns(workers: usize, rounds: u64) -> f64 {
    world_secs(2, workers, |comm| pingpong(comm, rounds)) * 1e9 / (2 * rounds) as f64
}

fn r3_pingpong_ns(mode: VotingMode, rounds: u64) -> f64 {
    let wall = secs(|| {
        ReplicatedWorld::builder(2, 3.0)
            .expect("degree 3 is valid")
            .voting_mode(mode)
            .workers(1)
            .run(|comm| pingpong(comm, rounds))
            .expect("replicated probe world runs");
    });
    wall * 1e9 / (2 * rounds) as f64
}

/// Seeded bytes: payloads and images must not be all-equal or all-zero, or a
/// comparison or a compressor sees a best case.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    use rand::{RngCore, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

fn floats(seed: u64, len: usize) -> Vec<f64> {
    noise(seed, len * 8)
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")) as f64 / u64::MAX as f64)
        .collect()
}

/// An application that is done after `init`: what one resilient execution
/// costs before any application work.
struct Empty;

impl ResilientApp for Empty {
    type State = u64;

    fn init<C: Communicator>(&self, _comm: &C) -> redcr_mpi::Result<u64> {
        Ok(0)
    }

    fn step<C: Communicator>(&self, _comm: &C, _state: &mut u64) -> redcr_mpi::Result<()> {
        Ok(())
    }

    fn is_done(&self, _state: &u64) -> bool {
        true
    }
}

fn model_spec(n_virtual: u64, degree: f64) -> ScenarioSpec {
    ScenarioSpec {
        backend: Backend::Model,
        n_virtual,
        degree,
        policy: SpecPolicy::Daly,
        node_mtbf_hours: 12.0,
        workload: SweepWorkload {
            base_time_hours: 46.0 / 60.0,
            alpha: 0.2,
            checkpoint_cost_hours: 120.0 / 3600.0,
            restart_cost_hours: 500.0 / 3600.0,
        },
        seeds: 0,
    }
}

/// The CG n=8 r=3 solve of `cg_r3_obs_w1`, `iterations` long, with the given
/// telemetry planes `[tracing, metrics, profiling]` on. Returns wall seconds
/// and the trace, if any.
fn telemetry_run(s: Scale, iterations: u64, planes: [bool; 3]) -> (f64, Option<Trace>) {
    let [tracing, metrics, profiling] = planes;
    let app = CgApp::new(CgConfig { seed: s.seed, ..CgConfig::small(256) }, s.n(iterations));
    let cfg = ExecutorConfig::new(8, 3.0)
        .node_mtbf(1e12)
        .checkpoint_interval(10.0)
        .seed(s.seed)
        .workers(1)
        .tracing(tracing)
        .metrics(metrics)
        .profiling(profiling);
    let t0 = Instant::now();
    let report = ResilientExecutor::new(cfg).run(&app).expect("telemetry probe run");
    (t0.elapsed().as_secs_f64(), report.trace)
}

/// Collects probe results; each probe gets a span with one child per run.
struct Probes<'a> {
    spans: &'a mut Spans,
    out: Vec<(&'static str, Quartiles)>,
}

impl Probes<'_> {
    fn run(&mut self, layer: &'static str, name: &'static str, mut f: impl FnMut() -> f64) {
        let (values, _) = self.spans.time(layer, name, |spans| {
            let started = Instant::now();
            let mut values = Vec::new();
            while values.len() < PROBE_REPS
                && (values.is_empty() || started.elapsed().as_secs_f64() < PROBE_SECONDS)
            {
                values.push(spans.time(layer, "run", |_| f()).0);
            }
            values
        });
        self.out.push((name, Quartiles::of(&values)));
    }

    fn median_of(&self, name: &str) -> f64 {
        self.out.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, q)| q.median)
    }
}

/// Runs every probe and returns `(metric name, quartiles over its runs)`.
/// `out_dir` holds the one file a probe writes (the sweep cache).
pub fn run_all(
    spans: &mut Spans,
    seed: u64,
    quick: bool,
    out_dir: &Path,
) -> Vec<(&'static str, Quartiles)> {
    let s = Scale { seed, div: if quick { 50 } else { 1 } };
    let mut p = Probes { spans, out: Vec::new() };
    sched(&mut p, s);
    simmpi(&mut p, s);
    redundancy(&mut p, s);
    checkpoint(&mut p, s);
    failure_apps_core(&mut p, s);
    cluster_sweep_model(&mut p, s, out_dir);
    telemetry(&mut p, s);
    // The r=3 fan-out seen from the application: replicated over plain.
    let fanout =
        p.median_of("redundancy.r3_pingpong_alltoall_ns") / p.median_of("simmpi.pingpong_w1_ns");
    p.out.push(("redundancy.fanout_ratio", Quartiles::of(&[fanout])));
    p.out
}

fn sched(p: &mut Probes<'_>, s: Scale) {
    let yields = s.n(200_000);
    p.run("sched", "sched.yield_ns", || {
        let wall = world_secs(2, 1, |_| {
            for _ in 0..yields {
                redcr_mpi::yield_now();
            }
            Ok(())
        });
        wall * 1e9 / (2 * yields) as f64
    });
    p.run("sched", "sched.spawn_ns_per_task", || {
        let worlds = s.n(8);
        let wall: f64 = (0..worlds).map(|_| world_secs(1024, 1, |_| Ok(()))).sum();
        wall * 1e9 / (worlds * 1024) as f64
    });
}

fn simmpi(p: &mut Probes<'_>, s: Scale) {
    let seed = s.seed;
    let rounds = s.n(100_000);
    p.run("simmpi", "simmpi.pingpong_w1_ns", || pingpong_ns(1, rounds));
    p.run("simmpi", "simmpi.pingpong_w2_ns", || pingpong_ns(2, rounds / 2));
    p.run("simmpi", "simmpi.wildcard_ns", || {
        let per_sender = s.n(10_000);
        let wall = world_secs(8, 1, |comm| {
            let payload = Bytes::from_static(&[0u8; 64]);
            if comm.rank().index() == 0 {
                for _ in 0..7 * per_sender {
                    comm.recv(RankSelector::Any, TagSelector::Any)?;
                }
            } else {
                let tag = Tag::new(comm.rank().index() as u64);
                for _ in 0..per_sender {
                    comm.send_bytes(Rank::new(0), tag, payload.clone())?;
                }
            }
            Ok(())
        });
        wall * 1e9 / (7 * per_sender) as f64
    });
    p.run("simmpi", "simmpi.nonblocking_ns", || {
        let wall = world_secs(2, 1, |comm| {
            let peer = Rank::new(1 - comm.rank().as_u32());
            let payload = Bytes::from_static(&[0u8; 64]);
            let tag = Tag::new(9);
            for _ in 0..rounds {
                let r = comm.irecv(RankSelector::Rank(peer), TagSelector::Tag(tag))?;
                let w = comm.isend(peer, tag, payload.clone())?;
                comm.waitall([r, w])?;
            }
            Ok(())
        });
        wall * 1e9 / (2 * rounds) as f64
    });
    let big = noise(seed, 1 << 20);
    p.run("simmpi", "simmpi.large_msg_mb_s", || {
        let trips = s.n(100);
        let wall = world_secs(2, 1, |comm| {
            let peer = Rank::new(1 - comm.rank().as_u32());
            let tag = Tag::new(11);
            for _ in 0..trips {
                // `send` copies the slice, as the typed sends do.
                if comm.rank().index() == 0 {
                    comm.send(peer, tag, &big)?;
                    comm.recv(RankSelector::Rank(peer), TagSelector::Tag(tag))?;
                } else {
                    comm.recv(RankSelector::Rank(peer), TagSelector::Tag(tag))?;
                    comm.send(peer, tag, &big)?;
                }
            }
            Ok(())
        });
        (2 * trips) as f64 / wall
    });
    let values = floats(seed, 256);
    p.run("simmpi", "simmpi.allreduce_ns_per_rank", || {
        let iters = s.n(5_000);
        let wall = world_secs(8, 1, |comm| {
            for _ in 0..iters {
                black_box(comm.allreduce_f64(&values, ReduceOp::Sum)?);
            }
            Ok(())
        });
        wall * 1e9 / (8 * iters) as f64
    });
    p.run("simmpi", "simmpi.barrier_ns_per_rank", || {
        let iters = s.n(10_000);
        let wall = world_secs(8, 1, |comm| {
            for _ in 0..iters {
                comm.barrier()?;
            }
            Ok(())
        });
        wall * 1e9 / (8 * iters) as f64
    });
}

fn redundancy(p: &mut Probes<'_>, s: Scale) {
    let seed = s.seed;
    // Three separately allocated, equal 4 KiB copies: the unanimous vote of
    // a failure-free run, with nothing for a pointer comparison to skip.
    let payload = noise(seed, 4096);
    let copies: Vec<Bytes> = (0..3).map(|_| Bytes::from(payload.clone())).collect();
    let hashes = [None, Some(hash_payload(&payload)), Some(hash_payload(&payload))];
    let votes = s.n(10_000);
    let ns_per_kb = |wall: f64| wall * 1e9 / (votes * 4) as f64;
    p.run("redundancy", "redundancy.vote_full_ns_per_kb", || {
        ns_per_kb(secs_n(votes, || drop(black_box(vote_full(black_box(&copies))))))
    });
    p.run("redundancy", "redundancy.vote_hashed_ns_per_kb", || {
        let vote = || drop(black_box(vote_hashed(black_box(&copies[0]), 0, black_box(&hashes))));
        ns_per_kb(secs_n(votes, vote))
    });
    p.run("redundancy", "redundancy.hash_payload_mb_s", || {
        let wall = secs_n(votes, || _ = black_box(hash_payload(black_box(&payload))));
        (votes * 4096) as f64 / MIB / wall
    });
    let r3_rounds = s.n(20_000);
    p.run("redundancy", "redundancy.r3_pingpong_alltoall_ns", || {
        r3_pingpong_ns(VotingMode::AllToAll, r3_rounds)
    });
    p.run("redundancy", "redundancy.r3_pingpong_hash_ns", || {
        r3_pingpong_ns(VotingMode::MsgPlusHash, r3_rounds)
    });
}

fn checkpoint(p: &mut Probes<'_>, s: Scale) {
    let seed = s.seed;
    // 4 MiB everywhere, so that MB/s is `4 n / wall`.
    let mb_s = |n: u64, wall: f64| 4.0 * n as f64 / wall;
    let state = floats(seed, (4 << 20) / 8);
    let encoded = to_bytes(&state).expect("state encodes");
    p.run("checkpoint", "checkpoint.encode_mb_s", || {
        let n = s.n(8);
        mb_s(n, secs_n(n, || drop(black_box(to_bytes(&state)))))
    });
    p.run("checkpoint", "checkpoint.decode_mb_s", || {
        let n = s.n(8);
        mb_s(n, secs_n(n, || drop(black_box(from_bytes::<Vec<f64>>(&encoded)))))
    });
    // Half the image is zero pages, as a sparse solver state would be.
    let mut image = noise(seed, 4 << 20);
    image[..2 << 20].fill(0);
    let packed = compress::compress(&image);
    assert_eq!(compress::decompress(&packed).expect("image decompresses"), image);
    p.run("checkpoint", "checkpoint.rle_compress_mb_s", || {
        let n = s.n(8);
        mb_s(n, secs_n(n, || drop(black_box(compress::compress(&image)))))
    });
    p.run("checkpoint", "checkpoint.rle_decompress_mb_s", || {
        let n = s.n(32);
        mb_s(n, secs_n(n, || drop(black_box(compress::decompress(&packed)))))
    });
    // The second checkpoint of an image with one page in twenty rewritten.
    let mut dirty = image.clone();
    for page in dirty.chunks_mut(4096).step_by(20) {
        page[0] ^= 0xff;
    }
    let mut engine = IncrementalEngine::new();
    let page_size = engine.page_size();
    let chain = [engine.checkpoint(&image), engine.checkpoint(&dirty)];
    assert!(!chain[1].is_full() && chain[1].stored_bytes() < image.len() / 10);
    assert_eq!(reconstruct(&chain, page_size).expect("chain reconstructs"), dirty);
    p.run("checkpoint", "checkpoint.incremental_mb_s", || {
        let n = s.n(8);
        let mut next = [&image, &dirty].into_iter().cycle();
        mb_s(n, secs_n(n, || drop(black_box(engine.checkpoint(next.next().expect("cycles"))))))
    });
    p.run("checkpoint", "checkpoint.reconstruct_mb_s", || {
        let n = s.n(32);
        mb_s(n, secs_n(n, || drop(black_box(reconstruct(&chain, page_size)))))
    });
    p.run("checkpoint", "checkpoint.image_roundtrip_mb_s", || {
        let n = s.n(4);
        let wall = secs_n(n, || {
            let stored = ProcessImage::capture(0, 1.0, &state)
                .and_then(|image| image.to_stored_bytes())
                .expect("image captures");
            let back: Vec<f64> = ProcessImage::from_stored_bytes(&stored)
                .and_then(|image| image.restore())
                .expect("image restores");
            black_box(back);
        });
        mb_s(n, wall)
    });
    // 64 images of 512 KiB, 8 to the 4 MiB: the per-rank state of
    // `jacobi_ckpt_faulty_w1` is half that.
    let block = &image[1 << 20..(1 << 20) + (512 << 10)];
    let key = |i: u64| SnapshotKey::new(i / 8, (i % 8) as u32);
    p.run("checkpoint", "checkpoint.mem_put_mb_s", || {
        let storage = MemoryStorage::new();
        let mut i = 0;
        let wall = secs_n(64, || {
            storage.store(key(i), block).expect("memory store");
            i += 1;
        });
        mb_s(8, wall)
    });
    let filled = MemoryStorage::new();
    (0..64).for_each(|i| filled.store(key(i), block).expect("memory store"));
    p.run("checkpoint", "checkpoint.mem_get_mb_s", || {
        let n = s.n(16);
        let wall = secs_n(n, || (0..64).for_each(|i| drop(black_box(filled.load(key(i))))));
        mb_s(8 * n, wall)
    });
    // 8 ranks x 512 KiB through the coordinator, timed from outside the world.
    let rank_state = &state[..(512 << 10) / 8];
    let rounds = s.n(4);
    let coordinator = CheckpointCoordinator::new(Arc::new(MemoryStorage::new()));
    p.run("checkpoint", "checkpoint.coordinated_commit_ms", || {
        let wall = world_secs(8, 1, |comm| {
            let counting = CountingComm::new(comm);
            for seq in 0..rounds {
                coordinator.checkpoint(&counting, seq, &rank_state).expect("checkpoint commits");
            }
            Ok(())
        });
        wall * 1e3 / rounds as f64
    });
    p.run("checkpoint", "checkpoint.coordinated_restore_ms", || {
        let wall = world_secs(8, 1, |comm| {
            for seq in 0..rounds {
                black_box(coordinator.restore::<_, Vec<f64>>(comm, seq).expect("restores"));
            }
            Ok(())
        });
        wall * 1e3 / rounds as f64
    });
}

fn failure_apps_core(p: &mut Probes<'_>, s: Scale) {
    let seed = s.seed;
    let spheres = s.n(50_000);
    let mut injector =
        FailureInjector::new(ReplicaGroups::uniform(spheres as usize, 2), 400.0, seed);
    p.run("failure", "failure.plan_attempt_ns_per_proc", || {
        secs_n(8, || drop(black_box(injector.plan_attempt(0.0)))) * 1e9 / (8 * 2 * spheres) as f64
    });

    // One rank, so no message is sent: the kernels' own arithmetic. A CG step
    // over n rows with 8 off-diagonals does 2*9*n flops in the product plus
    // 10*n in the vector updates; a Jacobi sweep does 3 flops per point.
    let cg_rows = 4096;
    let cg = CgSolver::new(CgConfig { seed, ..CgConfig::small(cg_rows as usize) });
    p.run("apps", "apps.cg_step_ns_per_row", || {
        let steps = s.n(400);
        let wall = world_secs(1, 1, |comm| {
            let mut st = cg.init_state(comm)?;
            for _ in 0..steps {
                cg.step(comm, &mut st)?;
            }
            black_box(st.rho);
            Ok(())
        });
        wall * 1e9 / (steps * cg_rows) as f64
    });
    let points = 65_536;
    let jacobi = JacobiSolver::new(JacobiConfig::small(points as usize));
    p.run("apps", "apps.jacobi_ns_per_point", || {
        let sweeps = s.n(150);
        let wall = world_secs(1, 1, |comm| {
            let mut st = jacobi.init_state();
            for _ in 0..sweeps {
                jacobi.step(comm, &mut st)?;
            }
            black_box(st.u[1]);
            Ok(())
        });
        wall * 1e9 / (sweeps * points) as f64
    });

    p.run("core", "core.empty_run_ms", || {
        let runs = s.n(1_000);
        let wall = secs_n(runs, || {
            let cfg = ExecutorConfig::new(8, 3.0).seed(seed).workers(1);
            black_box(ResilientExecutor::new(cfg).run(&Empty).expect("empty run"));
        });
        wall * 1e3 / runs as f64
    });
}

fn cluster_sweep_model(p: &mut Probes<'_>, s: Scale, out_dir: &Path) {
    let seed = s.seed;
    let sim_cfg = ScenarioSpec { backend: Backend::Simulator, ..model_spec(128, 2.0) }
        .to_config()
        .expect("simulator spec is valid");
    let trials = s.n(2_000);
    let mc_secs = |threads: usize| {
        secs(|| {
            let agg = monte_carlo(trials as usize, threads, |trial| {
                simulate_combined(&sim_cfg, FailureExposure::AllTime, seed.wrapping_add(trial))
            });
            black_box(agg.expect("monte carlo runs"));
        })
    };
    p.run("cluster", "cluster.trial_ns", || mc_secs(1) * 1e9 / trials as f64);
    p.run("cluster", "cluster.mc_scaling_t2", || mc_secs(1) / mc_secs(2));

    // 10 k specs, every second one a repeat of the one before.
    let specs: Vec<ScenarioSpec> = (0..s.n(10_000))
        .map(|i| model_spec(100 + i / 2 / 9, 1.0 + (i / 2 % 9) as f64 / 4.0))
        .collect();
    let per_spec_ns = |passes: u64, wall: f64| wall * 1e9 / (passes * specs.len() as u64) as f64;
    p.run("sweep", "sweep.spec_hash_ns", || {
        per_spec_ns(16, secs_n(16, || specs.iter().for_each(|s| _ = black_box(s.hash()))))
    });
    p.run("sweep", "sweep.dedup_ns_per_spec", || {
        per_spec_ns(8, secs_n(8, || drop(black_box(dedup(&specs)))))
    });
    p.run("sweep", "sweep.model_eval_ns", || {
        per_spec_ns(8, secs_n(8, || specs.iter().for_each(|s| drop(black_box(evaluate(s))))))
    });
    let mut cache = ResultCache::in_memory();
    let entries = run_sweep(&specs, 1, &mut cache).expect("model sweep runs").entries;
    p.run("sweep", "sweep.cache_hit_ns", || {
        let wall = secs_n(4, || {
            let warm = run_sweep(&specs, 1, &mut cache).expect("warm sweep runs");
            assert!(warm.stats.all_warm());
        });
        wall * 1e9 / (4 * entries.len()) as f64
    });
    // Read and write of the on-disk cache are separate numbers: 10 k lines,
    // appended in batches of 100, then opened.
    let lines: Vec<_> = (0..s.n(10_000))
        .map(|i| (model_spec(100 + i, 1.0), entries[i as usize % entries.len()].result))
        .collect();
    let cache_file = out_dir.join(format!("probe_cache_{}.jsonl", std::process::id()));
    std::fs::create_dir_all(out_dir).expect("output directory is writable");
    p.run("sweep", "sweep.cache_append_us", || {
        let _ = std::fs::remove_file(&cache_file);
        let mut disk = ResultCache::open(&cache_file).expect("probe cache opens");
        let wall = secs(|| {
            for batch in lines.chunks(100) {
                disk.append_batch(batch).expect("probe cache appends");
            }
        });
        wall * 1e6 / lines.len() as f64
    });
    p.run("sweep", "sweep.cache_open_ms", || {
        let mut len = 0;
        let wall = secs(|| len = ResultCache::open(&cache_file).expect("probe cache opens").len());
        assert_eq!(len, lines.len());
        wall * 1e3
    });
    let _ = std::fs::remove_file(&cache_file);
    p.run("sweep", "sweep.pareto_ns_per_entry", || {
        let n = s.n(200);
        secs_n(n, || drop(black_box(frontier(&entries)))) * 1e9 / (n * entries.len() as u64) as f64
    });

    let surface_cfg = model_spec(128, 1.0).to_config().expect("model spec is valid");
    let grid = RGrid::quarter_steps();
    p.run("model", "model.optimal_redundancy_us", || {
        let n = s.n(10_000);
        secs_n(n, || drop(black_box(optimal_redundancy(&surface_cfg, &grid)))) * 1e6 / n as f64
    });
    // The Figures 13-14 weak-scaling job: 128 h, 5-year node MTBF.
    let scaling_cfg = ScenarioSpec {
        node_mtbf_hours: 5.0 * 365.0 * 24.0,
        workload: SweepWorkload {
            base_time_hours: 128.0,
            alpha: 0.24,
            checkpoint_cost_hours: 10.0 / 60.0,
            restart_cost_hours: 30.0 / 60.0,
        },
        ..model_spec(128, 1.0)
    }
    .to_config()
    .expect("scaling spec is valid");
    assert!(crossover(&scaling_cfg, 1.0, 2.0, 100, 200_000).is_ok());
    p.run("model", "model.crossover_us", || {
        let n = s.n(4_000);
        let wall = secs_n(n, || drop(black_box(crossover(&scaling_cfg, 1.0, 2.0, 100, 200_000))));
        wall * 1e6 / n as f64
    });
}

fn telemetry(p: &mut Probes<'_>, s: Scale) {
    // Each plane alone, and all three, on the solve of `cg_r3_obs_w1`, each
    // against a run with none taken just before it, so that drift in the
    // host cancels.
    let mut events = 0;
    let planes = [
        ("trace.overhead_ratio", [true, false, false]),
        ("metrics.overhead_ratio", [false, true, false]),
        ("prof.overhead_ratio", [false, false, true]),
        ("telemetry.all_overhead_ratio", [true, true, true]),
    ];
    for (name, on) in planes {
        p.run("telemetry", name, || {
            let (off_s, _) = telemetry_run(s, 2000, [false; 3]);
            let (on_s, trace) = telemetry_run(s, 2000, on);
            events = trace.map_or(events, |t| t.len());
            on_s / off_s
        });
    }
    p.out.push(("trace.events", Quartiles::of(&[events as f64])));
    // Reading a trace back costs the same per event whatever its length; a
    // tenth of that trace keeps the four probes below within two seconds.
    let (_, trace) = telemetry_run(s, 200, [true, false, false]);
    let trace = trace.expect("the tracing plane returns a trace");
    let events = trace.len() as f64;
    p.run("trace", "trace.analyze_ns_per_event", || {
        let wall = secs(|| {
            let analysis = Analysis::analyze(&trace).expect("trace analyzes");
            black_box(CriticalPath::analyze(&analysis));
        });
        wall * 1e9 / events
    });
    let jsonl = trace.to_jsonl();
    p.run("trace", "trace.jsonl_export_mb_s", || {
        jsonl.len() as f64 / MIB / secs(|| drop(black_box(trace.to_jsonl())))
    });
    p.run("trace", "trace.jsonl_parse_mb_s", || {
        let wall = secs(|| drop(black_box(Trace::from_jsonl(&jsonl).expect("jsonl parses"))));
        jsonl.len() as f64 / MIB / wall
    });
    p.run("trace", "trace.perfetto_export_mb_s", || {
        let mut len = 0;
        let wall = secs(|| len = perfetto::export(&trace).expect("perfetto exports").len());
        len as f64 / MIB / wall
    });
}
