//! Property-based cross-crate tests: replication transparency (any degree,
//! any kernel, same answer) and checkpoint round-trip fidelity under
//! arbitrary cut points — plus the one non-blocking body every communicator
//! layer has to run unchanged.

use proptest::prelude::*;

use redcr::apps::cg::{CgConfig, CgSolver};
use redcr::apps::ep::{EpConfig, EpKernel, EpState};
use redcr::apps::jacobi::JacobiState;
use redcr::ckpt::snapshot::{ChannelMessage, ProcessImage};
use redcr::ckpt::CountingComm;
use redcr::ckpt::{from_bytes, to_bytes};
use redcr::mpi::{Communicator, CostModel, Rank, Tag, TestOutcome, World};
use redcr::red::{ReplicatedWorld, VoteCost};

/// The non-blocking operations as an application uses them, on a
/// communicator of three ranks: a ring exchange through `irecv` + `isend` +
/// `waitall`; a `test` that is pending before the message was sent and
/// completes after; a `waitany` over two receives of which the second is
/// the one that can complete. None of it is written per layer any more, so
/// one body checks all of them.
fn nonblocking<C: Communicator>(comm: &C) -> redcr::mpi::Result<()> {
    let (me, n) = (comm.rank(), comm.size());
    assert_eq!(n, 3);
    let (next, prev) = (me.offset(1, n), me.offset(-1, n));

    let r = comm.irecv(prev.into(), Tag::new(1).into())?;
    let w = comm.isend(next, Tag::new(1), vec![me.as_u32() as u8].into())?;
    let done = comm.waitall([r, w])?;
    let (payload, status) = done[0].as_ref().expect("a receive yields its message");
    assert_eq!((&payload[..], status.source), (&[prev.as_u32() as u8][..], prev));
    assert!(done[1].is_none(), "a send yields nothing");

    let (zero, one, two) = (Rank::new(0), Rank::new(1), Rank::new(2));
    if me == zero {
        // Rank 1 answers only once it has heard "go".
        let posted = comm.irecv(one.into(), Tag::new(2).into())?;
        let TestOutcome::Pending(mut posted) = comm.test(posted)? else {
            panic!("nothing was sent yet");
        };
        comm.send(one, Tag::new(3), b"go")?;
        let (payload, status) = loop {
            match comm.test(posted)? {
                TestOutcome::Completed(out) => break out.expect("a receive yields its message"),
                TestOutcome::Pending(again) => posted = again,
            }
            redcr::mpi::yield_now();
        };
        assert_eq!((&payload[..], status.source), (&b"answer"[..], one));

        // Rank 1 sends only after rank 2's message was acknowledged.
        let from_one = comm.irecv(one.into(), Tag::new(4).into())?;
        let from_two = comm.irecv(two.into(), Tag::new(5).into())?;
        let (index, out, rest) = comm.waitany(vec![from_one, from_two])?;
        assert_eq!((index, &out.expect("a receive").0[..]), (1, &b"prompt"[..]));
        comm.send(one, Tag::new(6), b"ack")?;
        let (index, out, rest) = comm.waitany(rest)?;
        assert_eq!((index, &out.expect("a receive").0[..]), (0, &b"late"[..]));
        assert!(rest.is_empty());
    } else if me == one {
        comm.recv(zero.into(), Tag::new(3).into())?;
        comm.send(zero, Tag::new(2), b"answer")?;
        comm.recv(zero.into(), Tag::new(6).into())?;
        comm.send(zero, Tag::new(4), b"late")?;
    } else {
        comm.send(zero, Tag::new(5), b"prompt")?;
    }
    Ok(())
}

/// `Comm`, `ReplicaComm` and `CountingComm` used to
/// carry a copy each of the non-blocking operations and a request type to
/// go with it; now they inherit them, and this is where each is held to it.
#[test]
fn nonblocking_operations_work_through_every_layer() {
    World::builder(3)
        .run(|comm| {
            nonblocking(comm)?;
            nonblocking(&CountingComm::new(comm))
        })
        .unwrap()
        .into_results()
        .unwrap();
    let report = ReplicatedWorld::builder(3, 2.0)
        .unwrap()
        .run(|comm| {
            nonblocking(comm)?;
            nonblocking(&CountingComm::new(comm))
        })
        .unwrap();
    assert!(!report.aborted);
    for v in 0..3 {
        for replica in report.replica_results(v) {
            assert_eq!(*replica, Ok(()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The application-visible result of a CG solve is independent of the
    /// redundancy degree (RedMPI's transparency property), for arbitrary
    /// degrees and problem sizes.
    #[test]
    fn cg_answer_independent_of_degree(
        quarter in 0usize..9,
        n in 16usize..64,
        seed in 0u64..1000,
    ) {
        let degree = 1.0 + 0.25 * quarter as f64;
        let run = |deg: f64| {
            let mut cfg = CgConfig::small(n);
            cfg.seed = seed;
            let solver = CgSolver::new(cfg);
            let report = ReplicatedWorld::builder(4, deg)
                .unwrap()
                .cost_model(CostModel::zero())
                .vote_cost(VoteCost::zero())
                .run(move |comm| {
                    let mut state = solver.init_state(comm)?;
                    solver.run(comm, &mut state, 8)?;
                    Ok(state.rho.to_bits())
                })
                .unwrap();
            (0..4).map(|v| *report.primary_result(v).as_ref().unwrap()).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(1.0), run(degree));
    }

    /// Transparency survives live degradation: fail-stopping any single
    /// shadow replica at an arbitrary mid-run time leaves every survivor's
    /// CG answer bitwise identical to the unreplicated run.
    #[test]
    fn cg_answer_unchanged_when_a_shadow_dies(
        victim in 4usize..8,
        tenths in 5u64..75,
        n in 16usize..48,
        seed in 0u64..500,
    ) {
        let run = |deg: f64, death: Option<(usize, f64)>| {
            let mut cfg = CgConfig::small(n);
            cfg.seed = seed;
            let solver = CgSolver::new(cfg);
            let mut builder = ReplicatedWorld::builder(4, deg)
                .unwrap()
                .cost_model(CostModel::zero())
                .vote_cost(VoteCost::zero());
            if let Some((phys, t)) = death {
                let mut times = vec![f64::INFINITY; 8];
                times[phys] = t;
                builder = builder.death_times(times);
            }
            let report = builder
                .run(move |comm| {
                    let mut state = solver.init_state(comm)?;
                    for _ in 0..8 {
                        comm.compute(1.0)?;
                        solver.step(comm, &mut state)?;
                    }
                    Ok(state.rho.to_bits())
                })
                .unwrap();
            let survivors: Vec<u64> = (0..4)
                .map(|v| {
                    *report
                        .replica_results(v)
                        .iter()
                        .find_map(|r| r.as_ref().ok())
                        .expect("every sphere keeps a live replica")
                })
                .collect();
            (report.aborted, survivors)
        };
        // Physical ranks 4..8 are the shadow replicas of virtual 0..4.
        let (aborted, degraded) = run(2.0, Some((victim, tenths as f64 / 10.0)));
        prop_assert!(!aborted, "a single shadow death must be masked");
        let (_, plain) = run(1.0, None);
        prop_assert_eq!(degraded, plain);
    }

    /// EP (communication-free) kernels agree bitwise across replicas too.
    #[test]
    fn ep_replicas_agree(pairs in 100u64..5000, seed in 0u64..100) {
        let kernel = EpKernel::new(EpConfig {
            pairs_per_batch: pairs,
            seed,
            compute: redcr::apps::compute::ComputeModel::zero(),
        });
        let report = ReplicatedWorld::builder(3, 2.0)
            .unwrap()
            .cost_model(CostModel::zero())
            .vote_cost(VoteCost::zero())
            .run(move |comm| {
                let mut state = kernel.init_state();
                kernel.step(comm, &mut state)?;
                let pi = kernel.estimate(comm, &state)?;
                Ok(pi.to_bits())
            })
            .unwrap();
        for v in 0..3 {
            let replicas = report.replica_results(v);
            for r in &replicas[1..] {
                prop_assert_eq!(
                    *r.as_ref().unwrap(),
                    *replicas[0].as_ref().unwrap(),
                    "replica divergence at rank {}", v
                );
            }
        }
    }

    /// Arbitrary CG states survive the checkpoint codec bit-exactly.
    #[test]
    fn cg_state_codec_round_trip(
        iter in 0u64..10_000,
        xs in prop::collection::vec(-1e12f64..1e12, 1..200),
        rho in 0.0f64..1e30,
    ) {
        let state = redcr::apps::cg::CgState {
            iteration: iter,
            x: xs.clone(),
            r: xs.iter().map(|v| v * 0.5).collect(),
            p: xs.iter().map(|v| v - 1.0).collect(),
            rho,
        };
        let bytes = to_bytes(&state).unwrap();
        let back: redcr::apps::cg::CgState = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, state);

        // The other two kernels' states, and a whole stored image with
        // channel state.
        let jacobi = JacobiState { iteration: iter, u: xs.clone() };
        prop_assert_eq!(from_bytes::<JacobiState>(&to_bytes(&jacobi).unwrap()).unwrap(), jacobi);
        let ep = EpState { batch: iter, inside: rho.to_bits(), total: u64::MAX - iter };
        prop_assert_eq!(from_bytes::<EpState>(&to_bytes(&ep).unwrap()).unwrap(), ep);
        let channel = vec![
            ChannelMessage { src: 3, tag: iter, payload: bytes },
            ChannelMessage { src: 0, tag: u64::MAX, payload: Vec::new() },
        ];
        let stored = ProcessImage::write(7, rho, &state, &channel);
        let back = ProcessImage::from_stored_bytes(&stored).unwrap();
        prop_assert_eq!((back.rank, back.virtual_time.to_bits()), (7, rho.to_bits()));
        prop_assert_eq!(back.restore::<redcr::apps::cg::CgState>().unwrap(), state);
        prop_assert_eq!(&back.channel_state, &channel);
        prop_assert_eq!(back.to_stored_bytes().unwrap(), stored);
    }

    /// RLE compression is lossless for arbitrary byte strings.
    #[test]
    fn compression_lossless(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let packed = redcr::ckpt::compress::compress(&data);
        let unpacked = redcr::ckpt::compress::decompress(&packed).unwrap();
        prop_assert_eq!(unpacked, data);
    }

    /// Incremental chains reconstruct exactly for arbitrary mutation
    /// sequences.
    #[test]
    fn incremental_chain_exact(
        base in prop::collection::vec(any::<u8>(), 64..512),
        mutations in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..20),
    ) {
        let mut engine = redcr::ckpt::incremental::IncrementalEngine::with_page_size(32);
        let mut image = base;
        let mut chain = vec![engine.checkpoint(&image)];
        for (idx, value) in mutations {
            let at = idx.index(image.len());
            image[at] = value;
            chain.push(engine.checkpoint(&image));
        }
        let rebuilt = redcr::ckpt::incremental::reconstruct(&chain, 32).unwrap();
        prop_assert_eq!(rebuilt, image);
    }
}
