//! Integration tests for the message-passing runtime: functional semantics,
//! collectives, virtual-time accounting, aborts and deadlocks.

use std::sync::Arc;

use bytes::Bytes;
use redcr_mpi::collectives::{Gathered, ReduceOp};
use redcr_mpi::trace::Collector;
use redcr_mpi::{
    Communicator, CostModel, MpiError, Rank, RankSelector, Sinks, Tag, TagSelector, World,
};

fn tag(v: u64) -> Tag {
    Tag::new(v)
}

#[test]
fn ring_pass_around() {
    let n = 8;
    let report = World::builder(n)
        .cost_model(CostModel::zero())
        .run(|comm| {
            let me = comm.rank();
            let next = me.offset(1, comm.size());
            let prev = me.offset(-1, comm.size());
            comm.send_f64s(next, tag(1), &[me.as_u32() as f64])?;
            let (vals, status) = comm.recv_f64s(prev.into(), tag(1).into())?;
            assert_eq!(status.source, prev);
            Ok(vals[0])
        })
        .unwrap();
    let got = report.into_results().unwrap();
    for (i, v) in got.iter().enumerate() {
        assert_eq!(*v, ((i + 7) % 8) as f64);
    }
}

#[test]
fn messages_match_by_tag_not_arrival_order() {
    let report = World::builder(2)
        .cost_model(CostModel::zero())
        .run(|comm| {
            if comm.rank().index() == 0 {
                comm.send(Rank::new(1), tag(10), b"ten")?;
                comm.send(Rank::new(1), tag(20), b"twenty")?;
                Ok(Vec::new())
            } else {
                // Receive in the opposite order from sending.
                let (b20, _) = comm.recv(Rank::new(0).into(), tag(20).into())?;
                let (b10, _) = comm.recv(Rank::new(0).into(), tag(10).into())?;
                Ok(vec![b20.to_vec(), b10.to_vec()])
            }
        })
        .unwrap();
    let results = report.into_results().unwrap();
    assert_eq!(results[1], vec![b"twenty".to_vec(), b"ten".to_vec()]);
}

#[test]
fn wildcard_source_and_tag() {
    let n = 4;
    let report = World::builder(n)
        .cost_model(CostModel::zero())
        .run(|comm| {
            if comm.rank().index() == 0 {
                let mut sources = Vec::new();
                for _ in 0..3 {
                    let (_, status) = comm.recv(RankSelector::Any, TagSelector::Any)?;
                    sources.push(status.source.index());
                }
                sources.sort_unstable();
                Ok(sources)
            } else {
                comm.send(Rank::new(0), tag(comm.rank().as_u32() as u64), b"x")?;
                Ok(Vec::new())
            }
        })
        .unwrap();
    assert_eq!(report.into_results().unwrap()[0], vec![1, 2, 3]);
}

#[test]
fn nonblocking_post_then_waitall() {
    let report = World::builder(3)
        .cost_model(CostModel::zero())
        .run(|comm| {
            if comm.rank().index() == 0 {
                let r1 = comm.irecv(Rank::new(1).into(), tag(1).into())?;
                let r2 = comm.irecv(Rank::new(2).into(), tag(2).into())?;
                let done = comm.waitall([r1, r2])?;
                let a = done[0].as_ref().unwrap().0.to_vec();
                let b = done[1].as_ref().unwrap().0.to_vec();
                Ok((a, b))
            } else {
                let t = tag(comm.rank().as_u32() as u64);
                let req =
                    comm.isend(Rank::new(0), t, Bytes::from(vec![comm.rank().as_u32() as u8]))?;
                comm.wait(req)?;
                Ok((Vec::new(), Vec::new()))
            }
        })
        .unwrap();
    let (a, b) = report.into_results().unwrap().remove(0);
    assert_eq!(a, vec![1]);
    assert_eq!(b, vec![2]);
}

#[test]
fn probe_reports_without_consuming() {
    let report = World::builder(2)
        .cost_model(CostModel::zero())
        .run(|comm| {
            if comm.rank().index() == 0 {
                comm.send(Rank::new(1), tag(5), b"abc")?;
                Ok(0)
            } else {
                let (i, status) = comm.probe_any(&[(Rank::new(0).into(), tag(5).into())])?;
                assert_eq!((i, status.len), (0, 3));
                // Message still available after probing.
                let (bytes, _) = comm.recv(Rank::new(0).into(), tag(5).into())?;
                assert_eq!(&bytes[..], b"abc");
                Ok(1)
            }
        })
        .unwrap();
    assert_eq!(report.into_results().unwrap(), vec![0, 1]);
}

#[test]
fn iprobe_none_when_empty() {
    World::builder(1)
        .cost_model(CostModel::zero())
        .run(|comm| {
            assert!(comm.iprobe(RankSelector::Any, TagSelector::Any)?.is_none());
            Ok(())
        })
        .unwrap()
        .into_results()
        .unwrap();
}

#[test]
fn barrier_synchronizes_virtual_clocks() {
    let cost = CostModel { latency: 1.0, byte_time: 0.0, msg_overhead: 0.0 };
    let report = World::builder(4)
        .cost_model(cost)
        .run(|comm| {
            // Rank i computes i seconds, then all ranks barrier.
            comm.compute(comm.rank().index() as f64)?;
            comm.barrier()?;
            Ok(comm.now())
        })
        .unwrap();
    let times = report.into_results().unwrap();
    // After the barrier no rank's clock can be earlier than the slowest
    // rank's pre-barrier time (3.0), and every rank other than the slowest
    // waited at least one message latency past it.
    for (i, t) in times.iter().enumerate() {
        assert!(*t >= 3.0, "rank {i} clock {t} too early");
        if i != 3 {
            assert!(*t >= 4.0, "rank {i} clock {t} did not see rank 3's delay");
        }
    }
}

#[test]
fn bcast_delivers_to_all_from_any_root() {
    for root in 0..5u32 {
        let report = World::builder(5)
            .cost_model(CostModel::zero())
            .run(|comm| {
                let data = if comm.rank().as_u32() == root {
                    Bytes::from_static(b"payload")
                } else {
                    Bytes::new()
                };
                let out = comm.bcast(Rank::new(root), data)?;
                Ok(out.to_vec())
            })
            .unwrap();
        for r in report.into_results().unwrap() {
            assert_eq!(r, b"payload".to_vec(), "root {root}");
        }
    }
}

#[test]
fn reduce_and_allreduce_sum() {
    let n = 7;
    let report = World::builder(n)
        .cost_model(CostModel::zero())
        .run(|comm| {
            let me = comm.rank().index() as f64;
            let reduced = comm.reduce_f64(Rank::new(0), &[me, 1.0], ReduceOp::Sum)?;
            if comm.rank().index() == 0 {
                let r = reduced.expect("root gets the result");
                assert_eq!(r, vec![21.0, 7.0]);
            } else {
                assert!(reduced.is_none());
            }
            let all = comm.allreduce_f64(&[me], ReduceOp::Max)?;
            Ok(all[0])
        })
        .unwrap();
    for v in report.into_results().unwrap() {
        assert_eq!(v, 6.0);
    }
}

#[test]
fn allreduce_is_bitwise_identical_across_ranks() {
    // Deterministic tree => identical floating-point result on every rank,
    // which the replication layer's voting relies on.
    let vals: Vec<f64> = (0..64).map(|i| (i as f64) * 0.1 + 0.01).collect();
    let report = World::builder(16)
        .cost_model(CostModel::zero())
        .run(|comm| {
            let contribution = vec![vals[comm.rank().index() * 4]; 8];
            let out = comm.allreduce_f64(&contribution, ReduceOp::Sum)?;
            Ok(out.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        })
        .unwrap();
    let results = report.into_results().unwrap();
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
}

#[test]
fn allreduce_u64_min_max() {
    let report = World::builder(5)
        .cost_model(CostModel::zero())
        .run(|comm| {
            let me = comm.rank().index() as u64;
            let min = comm.allreduce_u64(&[me + 10], ReduceOp::Min)?;
            let max = comm.allreduce_u64(&[me + 10], ReduceOp::Max)?;
            let sum = comm.allreduce_u64(&[1], ReduceOp::Sum)?;
            Ok((min[0], max[0], sum[0]))
        })
        .unwrap();
    for (min, max, sum) in report.into_results().unwrap() {
        assert_eq!((min, max, sum), (10, 14, 5));
    }
}

#[test]
fn gather_collects_rank_ordered_parts_at_the_root() {
    let n = 6;
    let report = World::builder(n)
        .cost_model(CostModel::zero())
        .run(|comm| {
            let me = comm.rank().index() as u8;
            let gathered = comm.gather(Rank::new(2), Bytes::from(vec![me, me]))?;
            if comm.rank().index() == 2 {
                let parts = gathered.expect("root sees parts");
                assert_eq!(parts.len(), n);
                for (i, p) in parts.iter().enumerate() {
                    assert_eq!(&p[..], &[i as u8, i as u8]);
                }
            } else {
                assert!(gathered.is_none());
            }
            Ok(())
        })
        .unwrap();
    report.into_results().unwrap();
}

#[test]
fn allgather_returns_rank_ordered_parts() {
    let n = 5;
    let report = World::builder(n)
        .cost_model(CostModel::zero())
        .run(|comm| {
            let me = comm.rank().index() as u8;
            let parts: Gathered = comm.allgather(Bytes::from(vec![me]))?;
            assert_eq!(parts.len(), n);
            assert_eq!(parts.iter().len(), n);
            Ok(parts.iter().map(|p: &[u8]| p[0]).collect::<Vec<u8>>())
        })
        .unwrap();
    for r in report.into_results().unwrap() {
        assert_eq!(r, vec![0, 1, 2, 3, 4]);
    }
}

#[test]
fn scan_prefix_sums() {
    let n = 6;
    let report = World::builder(n)
        .cost_model(CostModel::zero())
        .run(|comm| {
            let me = comm.rank().index() as f64;
            let s = comm.scan_f64(&[me], ReduceOp::Sum)?;
            Ok(s[0])
        })
        .unwrap();
    let expect: Vec<f64> = (0..6).map(|i| (0..=i).map(|j| j as f64).sum()).collect();
    assert_eq!(report.into_results().unwrap(), expect);
}

#[test]
fn virtual_time_includes_latency_and_bandwidth() {
    let cost = CostModel { latency: 2.0, byte_time: 0.5, msg_overhead: 0.25 };
    let report = World::builder(2)
        .cost_model(cost)
        .run(|comm| {
            if comm.rank().index() == 0 {
                comm.send(Rank::new(1), tag(1), &[0u8; 4])?; // 4 bytes
                Ok(comm.now())
            } else {
                let (_, status) = comm.recv(Rank::new(0).into(), tag(1).into())?;
                Ok(status.completed_at)
            }
        })
        .unwrap();
    let times = report.into_results().unwrap();
    // Sender: one message overhead.
    assert!((times[0] - 0.25).abs() < 1e-12);
    // Receiver: send_time (0.25) + latency (2.0) + 4 bytes * 0.5 (2.0)
    // + receive overhead (0.25) = 4.5.
    assert!((times[1] - 4.5).abs() < 1e-12, "got {}", times[1]);
}

#[test]
fn virtual_time_receiver_not_delayed_when_late() {
    let cost = CostModel { latency: 1.0, byte_time: 0.0, msg_overhead: 0.0 };
    let report = World::builder(2)
        .cost_model(cost)
        .run(|comm| {
            if comm.rank().index() == 0 {
                comm.send(Rank::new(1), tag(1), b"x")?;
                Ok(0.0)
            } else {
                comm.compute(100.0)?; // receiver is late; message long since available
                let (_, status) = comm.recv(Rank::new(0).into(), tag(1).into())?;
                Ok(status.completed_at)
            }
        })
        .unwrap();
    let times = report.into_results().unwrap();
    assert!((times[1] - 100.0).abs() < 1e-12, "got {}", times[1]);
}

#[test]
fn comm_fraction_tracks_alpha() {
    let cost = CostModel { latency: 0.0, byte_time: 0.0, msg_overhead: 0.5 };
    let report = World::builder(2)
        .cost_model(cost)
        .run(|comm| {
            // 8 seconds compute + 4 messages of 0.5 s overhead each = 2 s comm.
            for _ in 0..4 {
                comm.compute(2.0)?;
                let peer = comm.rank().offset(1, 2);
                comm.send(peer, tag(3), b"")?;
                comm.recv(peer.into(), tag(3).into())?;
            }
            Ok(())
        })
        .unwrap();
    // alpha = comm / (comm + busy); comm >= 4 msgs * (0.5 send + 0.5 recv)... wait
    // sender pays 0.5 per send, receiver 0.5 per recv: 4 sends + 4 recvs = 4.0 s.
    let alpha = report.mean_comm_fraction();
    assert!((alpha - 4.0 / 12.0).abs() < 0.05, "alpha = {alpha}");
}

#[test]
fn app_error_aborts_peers() {
    let report = World::builder(2)
        .cost_model(CostModel::zero())
        .run(|comm| {
            if comm.rank().index() == 0 {
                Err(MpiError::DecodeError { what: "synthetic app failure" })
            } else {
                comm.recv(Rank::new(0).into(), tag(1).into())?;
                Ok(())
            }
        })
        .unwrap();
    assert!(report.aborted);
    assert!(report.results[1].is_err());
}

#[test]
fn mutual_receive_with_no_sender_is_a_typed_deadlock() {
    // Each rank waits for the other, and nothing is ever sent: the
    // scheduler finds every rank parked and both waits end in the error.
    let report = World::builder(2)
        .cost_model(CostModel::zero())
        .run(|comm| {
            comm.compute(1.5)?;
            let peer = Rank::new(1 - comm.rank().as_u32());
            comm.recv(peer.into(), tag(1).into()).map(drop)
        })
        .unwrap();
    assert!(!report.aborted, "a deadlock is not an abort");
    for (r, result) in report.results.iter().enumerate() {
        match result {
            Err(e @ MpiError::Deadlock { rank, at }) => {
                assert_eq!((rank.index(), *at), (r, 1.5));
                assert!(!e.is_fail_stop());
            }
            other => panic!("rank {r}: expected Deadlock, got {other:?}"),
        }
    }
}

#[test]
fn message_statistics_counted() {
    let report = World::builder(2)
        .cost_model(CostModel::zero())
        .run(|comm| {
            if comm.rank().index() == 0 {
                comm.send(Rank::new(1), tag(1), &[0u8; 100])?;
            } else {
                comm.recv(Rank::new(0).into(), tag(1).into())?;
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(report.messages_sent, 1);
    assert_eq!(report.bytes_sent, 100);
}

#[test]
fn deterministic_virtual_time_across_runs() {
    let run = || {
        World::builder(8)
            .run(|comm| {
                let me = comm.rank().index();
                comm.compute(0.001 * (me + 1) as f64)?;
                let next = comm.rank().offset(1, comm.size());
                let prev = comm.rank().offset(-1, comm.size());
                comm.send_f64s(next, tag(2), &[me as f64; 128])?;
                comm.recv_f64s(prev.into(), tag(2).into())?;
                let s = comm.allreduce_f64(&[me as f64], ReduceOp::Sum)?;
                assert_eq!(s[0], 28.0);
                comm.barrier()?;
                Ok(())
            })
            .unwrap()
            .max_virtual_time
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "virtual time must be deterministic");
    assert!(a > 0.0);
}

#[test]
fn large_world_smoke() {
    // 128 ranks, the paper's experimental scale.
    let report = World::builder(128)
        .run(|comm| {
            let s = comm.allreduce_f64(&[1.0], ReduceOp::Sum)?;
            assert_eq!(s[0], 128.0);
            comm.barrier()?;
            Ok(())
        })
        .unwrap();
    report.into_results().unwrap();
}

#[test]
fn test_reports_pending_then_completed() {
    use redcr_mpi::TestOutcome;
    World::builder(2)
        .cost_model(CostModel::zero())
        .run(|comm| {
            if comm.rank().index() == 0 {
                // Nothing sent yet: request must be pending.
                let req = comm.irecv(Rank::new(1).into(), tag(5).into())?;
                let req = match comm.test(req)? {
                    TestOutcome::Pending(r) => r,
                    TestOutcome::Completed(_) => panic!("nothing was sent yet"),
                };
                // Ask for the message, then poll until it lands.
                comm.send(Rank::new(1), tag(4), b"go")?;
                let mut req = req;
                let payload = loop {
                    match comm.test(req)? {
                        TestOutcome::Completed(Some((bytes, status))) => {
                            assert_eq!(status.source.index(), 1);
                            break bytes;
                        }
                        TestOutcome::Completed(None) => panic!("recv yields payload"),
                        TestOutcome::Pending(r) => {
                            req = r;
                            redcr_mpi::yield_now();
                        }
                    }
                };
                assert_eq!(&payload[..], b"answer");
            } else {
                comm.recv(Rank::new(0).into(), tag(4).into())?;
                comm.send(Rank::new(0), tag(5), b"answer")?;
            }
            Ok(())
        })
        .unwrap()
        .into_results()
        .unwrap();
}

#[test]
fn send_requests_test_complete_immediately() {
    use redcr_mpi::TestOutcome;
    World::builder(2)
        .cost_model(CostModel::zero())
        .run(|comm| {
            if comm.rank().index() == 0 {
                let req = comm.isend(Rank::new(1), tag(1), Bytes::from_static(b"x"))?;
                assert!(matches!(comm.test(req)?, TestOutcome::Completed(None)));
            } else {
                comm.recv(Rank::new(0).into(), tag(1).into())?;
            }
            Ok(())
        })
        .unwrap()
        .into_results()
        .unwrap();
}

/// Rank 0 waits on receives from ranks 1 and 2. Rank 2 sends after
/// `yields` cooperative yields; rank 1 only replies after rank 0 acks rank
/// 2's message — so `waitany` must pick index 1 first, however late that
/// message is.
fn waitany_picks_rank_2_first(workers: usize, yields: usize) {
    World::builder(3)
        .workers(workers)
        .cost_model(CostModel::zero())
        .run(|comm| {
            if comm.rank().index() == 0 {
                let r1 = comm.irecv(Rank::new(1).into(), tag(1).into())?;
                let r2 = comm.irecv(Rank::new(2).into(), tag(2).into())?;
                let (idx, out, rest) = comm.waitany(vec![r1, r2])?;
                assert_eq!(idx, 1, "rank 2's message arrives first");
                assert_eq!(&out.unwrap().0[..], b"fast");
                assert_eq!(rest.len(), 1);
                comm.send(Rank::new(1), tag(9), b"ack")?;
                let (idx2, out2, rest2) = comm.waitany(rest)?;
                assert_eq!(idx2, 0);
                assert_eq!(&out2.unwrap().0[..], b"slow");
                assert!(rest2.is_empty());
            } else if comm.rank().index() == 1 {
                comm.recv(Rank::new(0).into(), tag(9).into())?;
                comm.send(Rank::new(0), tag(1), b"slow")?;
            } else {
                for _ in 0..yields {
                    redcr_mpi::yield_now();
                }
                comm.send(Rank::new(0), tag(2), b"fast")?;
            }
            Ok(())
        })
        .unwrap()
        .into_results()
        .unwrap();
}

#[test]
fn waitany_returns_the_ready_request() {
    // The late sender (1 000 yields) outlasts any polling budget: a
    // `waitany` that gives up and blocks on request 0 never returns, at any
    // width. Each world runs on its own thread so that failure is a
    // timeout here, not a hung suite.
    for yields in [0, 1_000] {
        for workers in [1, 2, 3] {
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                waitany_picks_rank_2_first(workers, yields);
                let _ = done.send(());
            });
            finished
                .recv_timeout(std::time::Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("{workers} workers, {yields} yields: hung or failed"));
        }
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Per-rank FNV of every collective result's bits, in call order.
const STREAM_RESULTS: [u64; 5] = [
    0x8a83_2fb8_d6ee_520d,
    0xd8fe_4894_7bba_fe37,
    0xf1dc_009b_d84b_195a,
    0x6bc8_9b5b_8663_08bc,
    0xd7a1_c358_47cb_b32b,
];
const STREAM_TIME_BITS: u64 = 0x3f07_6018_ef65_281e;
const STREAM_EVENTS: usize = 69;
const STREAM_TRACE_FNV: u64 = 0x5d0d_7609_ebf5_970b;

/// Every reduction collective's message stream, pinned bit for bit: a
/// reduce to a non-zero root, an `f64` and two `u64` all-reduces (one
/// saturating through the tree) and a scan, under a cost model that
/// charges latency and bandwidth, with the flight recorder on.
#[test]
fn reduction_streams_match_their_capture_bit_for_bit() {
    let collector = Arc::new(Collector::new());
    let sinks = Sinks { trace: Some(Arc::clone(&collector)), ..Sinks::default() };
    let report = World::builder(5)
        .cost_model(CostModel::infiniband_qdr())
        .obs(sinks)
        .run(|comm| {
            let me = comm.rank().index();
            let x = me as f64;
            let operand = [x * 0.1 + 0.3, -x, 1.0 / (x + 1.0)];
            let reduced = comm.reduce_f64(Rank::new(3), &operand, ReduceOp::Sum)?;
            assert_eq!(reduced.is_some(), me == 3);
            let max = comm.allreduce_f64(&[x.sin(), -x.cos()], ReduceOp::Max)?;
            let big = if me == 2 { u64::MAX - 1 } else { me as u64 };
            let sum = comm.allreduce_u64(&[big, 7 * me as u64], ReduceOp::Sum)?;
            assert_eq!(sum, [u64::MAX, 70]);
            let min = comm.allreduce_u64(&[40 - me as u64, me as u64 + 3], ReduceOp::Min)?;
            assert_eq!(min, [36, 3]);
            let scan = comm.scan_f64(&[x * 0.7 + 0.1, 1.0 / (x + 2.0)], ReduceOp::Sum)?;
            let floats = reduced.unwrap_or_default().into_iter().chain(max).chain(scan);
            let words = floats.map(f64::to_bits).chain(sum).chain(min);
            Ok(fnv1a(&words.flat_map(u64::to_le_bytes).collect::<Vec<_>>()))
        })
        .unwrap();
    assert_eq!(report.max_virtual_time.to_bits(), STREAM_TIME_BITS);
    assert_eq!(report.into_results().unwrap(), STREAM_RESULTS);
    let trace = collector.take();
    assert_eq!(trace.len(), STREAM_EVENTS);
    assert_eq!(fnv1a(trace.to_jsonl().as_bytes()), STREAM_TRACE_FNV);
}
