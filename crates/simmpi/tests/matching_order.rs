//! Regression suite for MPI matching-order semantics.
//!
//! Pins the rule the mailbox must preserve bit-for-bit:
//! `ANY_SOURCE`/`ANY_TAG` receives select the **globally oldest arrival**
//! among matching messages, while specific-source/specific-tag receives
//! are FIFO within their (source, tag) channel and never disturb the
//! global order seen by wildcards. The mailbox is one arrival-ordered
//! queue whose finds take the first match, so the rule holds by
//! construction; this suite is its match-order oracle at world level
//! (the unit test `deep_mixed_mailbox_matches_a_reference` is the deep
//! one).
//!
//! Arrival order into a mailbox is physical push order, which for threads
//! is wall-clock dependent — so every test below forces a deterministic
//! arrival order through happens-before token chains: a sender only
//! releases the next sender once its own message is already buffered at
//! the receiver. Nothing here depends on how the mailbox stores its
//! envelopes: the file has run unchanged against every mailbox design.

use bytes::Bytes;
use redcr_mpi::{Communicator, Rank, RankSelector, Tag, TagSelector, World};

const R0: Rank = Rank::new(0);
const R1: Rank = Rank::new(1);
const R2: Rank = Rank::new(2);
const R3: Rank = Rank::new(3);

const DATA_TAG: Tag = Tag::new(10);
const TOKEN_TAG: Tag = Tag::new(99);

fn payload(b: u8) -> Bytes {
    Bytes::from(vec![b])
}

/// ANY_SOURCE must take the globally-oldest arrival even when a
/// younger message from a lower-numbered rank is also buffered.
#[test]
fn any_source_selects_globally_oldest_across_sources() {
    let results = World::builder(3)
        .run(|comm| {
            match comm.rank().index() {
                0 => {
                    // Both messages are buffered before rank 0 receives:
                    // rank 2's arrived first (it released rank 1's token).
                    comm.recv(RankSelector::Rank(R1), TagSelector::Tag(TOKEN_TAG))?;
                    let mut order = Vec::new();
                    for _ in 0..2 {
                        let (data, st) =
                            comm.recv(RankSelector::Any, TagSelector::Tag(DATA_TAG))?;
                        order.push((st.source.index(), data[0]));
                    }
                    Ok(order)
                }
                1 => {
                    // Wait for rank 2's token: rank 2's data message is
                    // already in rank 0's mailbox when ours goes out.
                    comm.recv(RankSelector::Rank(R2), TagSelector::Tag(TOKEN_TAG))?;
                    comm.send_bytes(R0, DATA_TAG, payload(1))?;
                    comm.send_bytes(R0, TOKEN_TAG, payload(0))?;
                    Ok(vec![])
                }
                _ => {
                    comm.send_bytes(R0, DATA_TAG, payload(2))?;
                    comm.send_bytes(R1, TOKEN_TAG, payload(0))?;
                    Ok(vec![])
                }
            }
        })
        .expect("world")
        .into_results()
        .expect("ranks");
    // Rank 2 pushed first, so the first wildcard receive must return its
    // message even though rank 1 < rank 2 in any per-source index order.
    assert_eq!(results[0], vec![(2, 2), (1, 1)]);
}

/// ANY_TAG from a fixed source must follow that source's program order
/// (same-source sends arrive in order), not tag-value order.
#[test]
fn any_tag_follows_arrival_order_not_tag_order() {
    let results = World::builder(2)
        .run(|comm| {
            if comm.rank().index() == 0 {
                let mut tags = Vec::new();
                for _ in 0..3 {
                    let (_, st) = comm.recv(RankSelector::Rank(R1), TagSelector::Any)?;
                    tags.push(st.tag.value());
                }
                Ok(tags)
            } else {
                for t in [7u64, 3, 5] {
                    comm.send_bytes(R0, Tag::new(t), payload(t as u8))?;
                }
                Ok(vec![])
            }
        })
        .expect("world")
        .into_results()
        .expect("ranks");
    assert_eq!(results[0], vec![7, 3, 5]);
}

/// A specific receive drains its channel without disturbing the global
/// order a later wildcard observes.
#[test]
fn specific_recv_interleaved_with_wildcard_preserves_global_order() {
    let results = World::builder(4)
        .run(|comm| {
            match comm.rank().index() {
                0 => {
                    comm.recv(RankSelector::Rank(R1), TagSelector::Tag(TOKEN_TAG))?;
                    // Buffered order is now: r3 (oldest), r2, r1 (newest).
                    // Take rank 2's message by specific receive first...
                    let (data, st) =
                        comm.recv(RankSelector::Rank(R2), TagSelector::Tag(DATA_TAG))?;
                    assert_eq!((st.source, data[0]), (R2, 2));
                    // ...then the wildcards must still see r3 before r1.
                    let mut order = Vec::new();
                    for _ in 0..2 {
                        let (data, st) = comm.recv(RankSelector::Any, TagSelector::Any)?;
                        order.push((st.source.index(), data[0]));
                    }
                    Ok(order)
                }
                1 => {
                    comm.recv(RankSelector::Rank(R2), TagSelector::Tag(TOKEN_TAG))?;
                    comm.send_bytes(R0, DATA_TAG, payload(1))?;
                    comm.send_bytes(R0, TOKEN_TAG, payload(0))?;
                    Ok(vec![])
                }
                2 => {
                    comm.recv(RankSelector::Rank(R3), TagSelector::Tag(TOKEN_TAG))?;
                    comm.send_bytes(R0, DATA_TAG, payload(2))?;
                    comm.send_bytes(R1, TOKEN_TAG, payload(0))?;
                    Ok(vec![])
                }
                _ => {
                    comm.send_bytes(R0, DATA_TAG, payload(3))?;
                    comm.send_bytes(R2, TOKEN_TAG, payload(0))?;
                    Ok(vec![])
                }
            }
        })
        .expect("world")
        .into_results()
        .expect("ranks");
    assert_eq!(results[0], vec![(3, 3), (1, 1)]);
}

/// Same (source, tag) channel is FIFO: payloads come back in send order.
#[test]
fn same_channel_is_fifo() {
    let results = World::builder(2)
        .run(|comm| {
            if comm.rank().index() == 0 {
                let mut seen = Vec::new();
                for _ in 0..5 {
                    let (data, _) =
                        comm.recv(RankSelector::Rank(R1), TagSelector::Tag(DATA_TAG))?;
                    seen.push(data[0]);
                }
                Ok(seen)
            } else {
                for b in 0..5u8 {
                    comm.send_bytes(R0, DATA_TAG, payload(b))?;
                }
                Ok(vec![])
            }
        })
        .expect("world")
        .into_results()
        .expect("ranks");
    assert_eq!(results[0], vec![0, 1, 2, 3, 4]);
}

/// Wildcard-tag receives skip non-matching (other-source) traffic that is
/// older: selection is oldest *among matches*, not oldest overall.
#[test]
fn wildcard_selects_oldest_matching_not_oldest_overall() {
    let results = World::builder(3)
        .run(|comm| {
            match comm.rank().index() {
                0 => {
                    comm.recv(RankSelector::Rank(R1), TagSelector::Tag(TOKEN_TAG))?;
                    // Buffered: r2's message (older), then r1's. A receive
                    // restricted to source r1 must skip r2's older message.
                    let (data, st) = comm.recv(RankSelector::Rank(R1), TagSelector::Any)?;
                    assert_eq!((st.source, data[0]), (R1, 1));
                    // The skipped r2 message is still there for a wildcard.
                    let (data, st) = comm.recv(RankSelector::Any, TagSelector::Any)?;
                    Ok(vec![(st.source.index(), data[0])])
                }
                1 => {
                    comm.recv(RankSelector::Rank(R2), TagSelector::Tag(TOKEN_TAG))?;
                    comm.send_bytes(R0, DATA_TAG, payload(1))?;
                    comm.send_bytes(R0, TOKEN_TAG, payload(0))?;
                    Ok(vec![])
                }
                _ => {
                    comm.send_bytes(R0, DATA_TAG, payload(2))?;
                    comm.send_bytes(R1, TOKEN_TAG, payload(0))?;
                    Ok(vec![])
                }
            }
        })
        .expect("world")
        .into_results()
        .expect("ranks");
    assert_eq!(results[0], vec![(2, 2)]);
}

/// iprobe on a buffered wildcard match reports the globally-oldest
/// arrival's metadata, consistent with what recv would return.
#[test]
fn probe_reports_globally_oldest_match() {
    let results = World::builder(3)
        .run(|comm| match comm.rank().index() {
            0 => {
                comm.recv(RankSelector::Rank(R1), TagSelector::Tag(TOKEN_TAG))?;
                let st = comm
                    .iprobe(RankSelector::Any, TagSelector::Tag(DATA_TAG))?
                    .expect("both messages buffered");
                let (data, rst) = comm.recv(RankSelector::Any, TagSelector::Tag(DATA_TAG))?;
                assert_eq!(st.source, rst.source);
                assert_eq!(st.len, data.len());
                Ok(vec![(rst.source.index(), data[0])])
            }
            1 => {
                comm.recv(RankSelector::Rank(R2), TagSelector::Tag(TOKEN_TAG))?;
                comm.send_bytes(R0, DATA_TAG, payload(1))?;
                comm.send_bytes(R0, TOKEN_TAG, payload(0))?;
                Ok(vec![])
            }
            _ => {
                comm.send_bytes(R0, DATA_TAG, Bytes::from(vec![2, 2]))?;
                comm.send_bytes(R1, TOKEN_TAG, payload(0))?;
                Ok(vec![])
            }
        })
        .expect("world")
        .into_results()
        .expect("ranks");
    assert_eq!(results[0], vec![(2, 2)]);
}
