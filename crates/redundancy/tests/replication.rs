//! Integration tests for the replication layer: transparency, message
//! amplification, partial redundancy, voting, wildcard protocol.

use bytes::Bytes;
use redcr_mpi::collectives::{Gathered, ReduceOp};
use redcr_mpi::{Communicator, CostModel, Rank, RankSelector, Tag, TagSelector};
use redcr_red::{ReplicatedWorld, VotingMode};

fn tag(v: u64) -> Tag {
    Tag::new(v)
}

/// A small deterministic program used across redundancy degrees: ring
/// exchange plus an allreduce. Returns a per-rank value that must be
/// identical under any degree (transparency).
fn ring_program(comm: &impl Communicator) -> redcr_mpi::Result<f64> {
    let me = comm.rank();
    let n = comm.size();
    let next = me.offset(1, n);
    let prev = me.offset(-1, n);
    comm.send_f64s(next, tag(1), &[me.index() as f64 * 2.0])?;
    let (vals, status) = comm.recv_f64s(prev.into(), tag(1).into())?;
    assert_eq!(status.source, prev);
    let sum = comm.allreduce_f64(&[vals[0]], ReduceOp::Sum)?;
    Ok(vals[0] * 1000.0 + sum[0])
}

#[test]
fn transparency_same_answer_at_every_degree() {
    let mut answers: Vec<Vec<f64>> = Vec::new();
    for degree in [1.0, 1.5, 2.0, 2.5, 3.0] {
        let report = ReplicatedWorld::builder(6, degree)
            .unwrap()
            .cost_model(CostModel::zero())
            .run(|comm| ring_program(comm))
            .unwrap();
        // Every replica of every virtual rank must agree.
        for v in 0..6 {
            let r: Vec<f64> = report
                .replica_results(v)
                .iter()
                .map(|res| *res.as_ref().expect("replica ok"))
                .collect();
            for x in &r[1..] {
                assert_eq!(*x, r[0], "replica divergence at degree {degree} rank {v}");
            }
        }
        let primaries: Vec<f64> =
            (0..6).map(|v| *report.primary_result(v).as_ref().unwrap()).collect();
        answers.push(primaries);
    }
    for a in &answers[1..] {
        assert_eq!(a, &answers[0], "application answer changed with redundancy degree");
    }
}

#[test]
fn dual_redundancy_quadruples_messages() {
    // Paper: "up to four times the number of messages" at 2x (all-to-all
    // mode): every virtual p2p message becomes 2 senders x 2 receivers.
    let count_for = |degree: f64| {
        let report = ReplicatedWorld::builder(4, degree)
            .unwrap()
            .cost_model(CostModel::zero())
            .run(|comm| {
                // One virtual message per rank, no collectives.
                let next = comm.rank().offset(1, comm.size());
                let prev = comm.rank().offset(-1, comm.size());
                comm.send(next, tag(7), b"payload")?;
                comm.recv(prev.into(), tag(7).into())?;
                Ok(())
            })
            .unwrap();
        report.physical_messages
    };
    let m1 = count_for(1.0);
    let m2 = count_for(2.0);
    let m3 = count_for(3.0);
    assert_eq!(m1, 4, "4 virtual messages at 1x");
    assert_eq!(m2, 4 * 4, "4x amplification at 2x redundancy");
    assert_eq!(m3, 4 * 9, "9x amplification at 3x redundancy");
}

#[test]
fn partial_redundancy_message_counts_follow_figure_1b() {
    // Figure 1(b): A (2 replicas) sends to B (1 replica): 2 physical
    // messages. B (1) sends to A (2): 2 physical messages.
    let report = ReplicatedWorld::builder(2, 1.5)
        .unwrap()
        .cost_model(CostModel::zero())
        .run(|comm| {
            if comm.rank().index() == 0 {
                // Rank 0 is replicated (even rank); sends to singleton 1.
                comm.send(Rank::new(1), tag(1), b"x")?;
                comm.recv(Rank::new(1).into(), tag(2).into())?;
            } else {
                comm.recv(Rank::new(0).into(), tag(1).into())?;
                comm.send(Rank::new(0), tag(2), b"y")?;
            }
            Ok(())
        })
        .unwrap();
    // A->B: 2 replicas of A send 1 message each to B's single replica = 2.
    // B->A: B's single replica sends to both replicas of A = 2.
    assert_eq!(report.physical_messages, 4);
    assert_eq!(report.n_physical, 3);
}

#[test]
fn collectives_work_under_partial_redundancy() {
    for degree in [1.25, 1.75, 2.25, 2.75] {
        let report = ReplicatedWorld::builder(8, degree)
            .unwrap()
            .cost_model(CostModel::zero())
            .run(|comm| {
                let me = comm.rank().index() as f64;
                let sum = comm.allreduce_f64(&[me], ReduceOp::Sum)?;
                assert_eq!(sum[0], 28.0);
                let parts: Gathered =
                    comm.allgather(Bytes::from(vec![comm.rank().index() as u8]))?;
                assert_eq!(parts.len(), 8);
                for (i, p) in parts.iter().enumerate() {
                    assert_eq!(p, [i as u8]);
                }
                comm.barrier()?;
                Ok(())
            })
            .unwrap();
        report.into_primary_results().unwrap();
    }
}

#[test]
fn wildcard_receive_consistent_across_replicas() {
    // Ranks 1..4 send to rank 0 with distinct tags; rank 0 receives three
    // wildcard messages. All replicas of rank 0 must observe the SAME
    // senders in the SAME order (the envelope-forwarding protocol).
    let report = ReplicatedWorld::builder(4, 2.0)
        .unwrap()
        .cost_model(CostModel::zero())
        .run(|comm| {
            if comm.rank().index() == 0 {
                let mut order = Vec::new();
                for _ in 0..3 {
                    let (bytes, status) = comm.recv(RankSelector::Any, TagSelector::Any)?;
                    order.push((status.source.index(), status.tag.value(), bytes.to_vec()));
                }
                Ok(order)
            } else {
                comm.send(
                    Rank::new(0),
                    tag(comm.rank().as_u32() as u64 * 10),
                    &[comm.rank().as_u32() as u8],
                )?;
                Ok(Vec::new())
            }
        })
        .unwrap();
    let replica_views: Vec<_> =
        report.replica_results(0).iter().map(|r| r.as_ref().unwrap().clone()).collect();
    assert_eq!(replica_views.len(), 2);
    assert_eq!(replica_views[0], replica_views[1], "replicas saw different wildcard orders");
    // All three messages arrived, each consistent (source, tag, payload).
    let mut sources: Vec<usize> = replica_views[0].iter().map(|(s, _, _)| *s).collect();
    sources.sort_unstable();
    assert_eq!(sources, vec![1, 2, 3]);
    for (src, t, payload) in &replica_views[0] {
        assert_eq!(*t, *src as u64 * 10);
        assert_eq!(payload, &vec![*src as u8]);
    }
    assert!(report.stats.wildcard_protocols > 0);
}

#[test]
fn msg_plus_hash_reduces_bytes() {
    let run = |mode: VotingMode| {
        ReplicatedWorld::builder(2, 3.0)
            .unwrap()
            .voting_mode(mode)
            .cost_model(CostModel::zero())
            .run(|comm| {
                if comm.rank().index() == 0 {
                    comm.send(Rank::new(1), tag(1), &[7u8; 4096])?;
                } else {
                    let (bytes, _) = comm.recv(Rank::new(0).into(), tag(1).into())?;
                    assert_eq!(bytes.len(), 4096);
                    assert!(bytes.iter().all(|b| *b == 7));
                }
                Ok(())
            })
            .unwrap()
    };
    let full = run(VotingMode::AllToAll);
    let hashed = run(VotingMode::MsgPlusHash);
    // Same number of physical messages, far fewer bytes.
    assert_eq!(full.physical_messages, hashed.physical_messages);
    assert!(
        (hashed.physical_bytes as f64) < 0.5 * full.physical_bytes as f64,
        "hashed {} vs full {}",
        hashed.physical_bytes,
        full.physical_bytes
    );
    assert!(hashed.stats.hash_messages_sent > 0);
    assert_eq!(full.stats.hash_messages_sent, 0);
}

#[test]
fn nonblocking_requests_under_redundancy() {
    let report = ReplicatedWorld::builder(3, 2.0)
        .unwrap()
        .cost_model(CostModel::zero())
        .run(|comm| {
            if comm.rank().index() == 0 {
                let r1 = comm.irecv(Rank::new(1).into(), tag(1).into())?;
                let r2 = comm.irecv(Rank::new(2).into(), tag(2).into())?;
                let done = comm.waitall([r1, r2])?;
                let a = done[0].as_ref().unwrap().0[0];
                let b = done[1].as_ref().unwrap().0[0];
                Ok(a + b)
            } else {
                let t = tag(comm.rank().as_u32() as u64);
                let req =
                    comm.isend(Rank::new(0), t, Bytes::from(vec![comm.rank().as_u32() as u8]))?;
                comm.wait(req)?;
                Ok(0)
            }
        })
        .unwrap();
    assert_eq!(*report.primary_result(0).as_ref().unwrap(), 3);
}

#[test]
fn replication_overhead_visible_in_virtual_time() {
    // With a non-zero per-message cost, higher redundancy means more
    // communication time — the paper's Eq. 1 / Table 5 effect.
    let cost = CostModel { latency: 1e-5, byte_time: 1e-9, msg_overhead: 1e-5 };
    let time_for = |degree: f64| {
        ReplicatedWorld::builder(8, degree)
            .unwrap()
            .cost_model(cost)
            .run(|comm| {
                for _ in 0..20 {
                    comm.compute(1e-4)?;
                    let next = comm.rank().offset(1, comm.size());
                    let prev = comm.rank().offset(-1, comm.size());
                    comm.send_f64s(next, tag(3), &[1.0; 64])?;
                    comm.recv_f64s(prev.into(), tag(3).into())?;
                }
                Ok(())
            })
            .unwrap()
            .max_virtual_time
    };
    let t1 = time_for(1.0);
    let t15 = time_for(1.5);
    let t2 = time_for(2.0);
    let t3 = time_for(3.0);
    assert!(t1 < t15, "t1={t1} t15={t15}");
    assert!(t15 < t2, "t15={t15} t2={t2}");
    assert!(t2 < t3, "t2={t2} t3={t3}");
}

#[test]
fn stats_amplification_matches_mode() {
    let report = ReplicatedWorld::builder(4, 2.0)
        .unwrap()
        .cost_model(CostModel::zero())
        .run(|comm| {
            let next = comm.rank().offset(1, comm.size());
            let prev = comm.rank().offset(-1, comm.size());
            comm.send(next, tag(9), b"m")?;
            comm.recv(prev.into(), tag(9).into())?;
            Ok(())
        })
        .unwrap();
    // Each replica's send fans out to 2 physical receivers: amplification 2
    // per replica; with 2 sending replicas the wire sees 4x total.
    assert!((report.stats.send_amplification() - 2.0).abs() < 1e-9);
    assert_eq!(report.stats.votes, report.stats.virtual_recvs);
    assert_eq!(report.stats.mismatches_detected, 0);
}

#[test]
fn degree_one_is_passthrough() {
    let report = ReplicatedWorld::builder(4, 1.0)
        .unwrap()
        .cost_model(CostModel::zero())
        .run(|comm| {
            let next = comm.rank().offset(1, comm.size());
            let prev = comm.rank().offset(-1, comm.size());
            comm.send(next, tag(9), b"m")?;
            comm.recv(prev.into(), tag(9).into())?;
            Ok(())
        })
        .unwrap();
    assert_eq!(report.n_physical, 4);
    assert_eq!(report.physical_messages, 4);
    assert!((report.stats.send_amplification() - 1.0).abs() < 1e-9);
}

#[test]
fn triple_redundancy_corrects_injected_sdc() {
    // One faulty replica (index 1) corrupts ~30% of its outgoing copies.
    // With three copies per message the receivers vote the corruption out:
    // the application answer is identical to the clean run.
    let run = |corrupt: bool| {
        let mut builder = ReplicatedWorld::builder(4, 3.0).unwrap().cost_model(CostModel::zero());
        if corrupt {
            builder = builder.corruption(redcr_red::CorruptionModel::new(0.3, 99).only_replica(1));
        }
        builder
            .run(|comm| {
                let mut acc = comm.rank().index() as f64;
                for round in 0..10u64 {
                    let next = comm.rank().offset(1, comm.size());
                    let prev = comm.rank().offset(-1, comm.size());
                    comm.send_f64s(next, tag(round), &[acc; 32])?;
                    let (vals, _) = comm.recv_f64s(prev.into(), tag(round).into())?;
                    acc += vals[0] * 0.5;
                }
                Ok(acc.to_bits())
            })
            .unwrap()
    };
    let clean = run(false);
    let stormy = run(true);
    assert!(stormy.stats.mismatches_detected > 0, "corruption must be observed");
    assert_eq!(
        stormy.stats.corrections, stormy.stats.mismatches_detected,
        "every mismatch is correctable at 3x"
    );
    for v in 0..4 {
        assert_eq!(
            clean.primary_result(v).as_ref().unwrap(),
            stormy.primary_result(v).as_ref().unwrap(),
            "voting must hide the corruption from the application"
        );
    }
}

#[test]
fn dual_redundancy_detects_but_cannot_always_correct() {
    let report = ReplicatedWorld::builder(2, 2.0)
        .unwrap()
        .cost_model(CostModel::zero())
        .corruption(redcr_red::CorruptionModel::new(0.5, 7).only_replica(1))
        .run(|comm| {
            for round in 0..20u64 {
                let peer = comm.rank().offset(1, comm.size());
                comm.send(peer, tag(round), &[round as u8; 16])?;
                comm.recv(peer.into(), tag(round).into())?;
            }
            Ok(())
        })
        .unwrap();
    assert!(report.stats.mismatches_detected > 0);
    // With only two copies a mismatch has no majority: detection without
    // correction (the paper: triple redundancy is needed to vote out).
    assert!(report.stats.corrections < report.stats.mismatches_detected);
}
