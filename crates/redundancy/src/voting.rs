//! Redundant-message comparison and voting.
//!
//! In **All-to-all** mode every receiver replica holds `r` full copies of
//! each virtual message; in **Msg-PlusHash** mode it holds one full copy
//! plus `r−1` hashes. Copies are compared byte-wise (payloads are produced
//! deterministically, so honest replicas agree bitwise); with three or more
//! copies a corrupted minority is voted out, mirroring RedMPI's silent-data-
//! corruption detection.

use bytes::Bytes;

/// Virtual-time cost of processing redundant copies at the receiver
/// (posting extra receives, copying buffers, byte-wise comparison). RedMPI
/// performs this work serially on the receive path; charging it is what
/// produces the super-linear failure-free overhead the paper measures in
/// Table 5 / Figure 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoteCost {
    /// Fixed cost per *extra* copy processed, seconds.
    pub per_copy: f64,
    /// Comparison cost per byte of each extra copy, seconds (≈ 1 / memcmp
    /// bandwidth).
    pub per_byte: f64,
}

impl VoteCost {
    /// A realistic default: ~1 µs bookkeeping per extra copy, ~4 GB/s
    /// comparison bandwidth.
    pub fn realistic() -> Self {
        VoteCost { per_copy: 1.0e-6, per_byte: 0.25e-9 }
    }

    /// Free voting (functional tests).
    pub fn zero() -> Self {
        VoteCost { per_copy: 0.0, per_byte: 0.0 }
    }

    /// Processing cost of a vote over `copies` copies of `len` bytes each:
    /// the `copies − 1` redundant ones are compared against the winner.
    pub fn cost(&self, copies: usize, len: usize) -> f64 {
        let extra = copies.saturating_sub(1) as f64;
        extra * (self.per_copy + len as f64 * self.per_byte)
    }
}

impl Default for VoteCost {
    fn default() -> Self {
        Self::realistic()
    }
}

/// RedMPI operating mode (paper Section 2, "RedMPI").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VotingMode {
    /// Complete messages from every sender replica to every receiver
    /// replica; full byte-wise voting. The mode used in the paper's
    /// experiments.
    #[default]
    AllToAll,
    /// One complete message plus hashes from the other sender replicas;
    /// detects corruption at reduced bandwidth.
    MsgPlusHash,
}

/// The result of comparing the redundant copies of one virtual message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteOutcome {
    /// Index (among the copies) of the winning payload.
    pub winner: usize,
    /// Indices of copies that disagreed with the winner.
    pub dissenters: Vec<usize>,
    /// Whether the winner was backed by a strict majority of copies.
    pub majority: bool,
}

impl VoteOutcome {
    /// Whether all copies agreed.
    pub fn unanimous(&self) -> bool {
        self.dissenters.is_empty()
    }
}

/// FNV-1a 64-bit hash of a payload — the hash RedMPI-style Msg-PlusHash
/// comparison uses on the wire.
pub fn hash_payload(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Votes among full payload copies: the most frequent payload wins (ties
/// broken toward the lowest copy index).
///
/// # Panics
///
/// Panics if `copies` is empty.
pub fn vote_full(copies: &[Bytes]) -> VoteOutcome {
    assert!(!copies.is_empty(), "cannot vote among zero copies");
    // Count occurrences by comparing to each distinct earlier payload.
    let n = copies.len();
    let mut counts = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if copies[i] == copies[j] {
                counts[i] += 1;
            }
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "documented contract: callers never vote over an empty copy list"
    )]
    let winner = (0..n).max_by_key(|&i| (counts[i], std::cmp::Reverse(i))).expect("non-empty");
    let dissenters: Vec<usize> = (0..n).filter(|&i| copies[i] != copies[winner]).collect();
    VoteOutcome { winner, dissenters, majority: counts[winner] * 2 > n }
}

/// Allocation-free vote outcome for the receive hot path (no dissenter
/// list — the callers there only need the winner and the two flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuickVote {
    /// Index **into the sparse copy slice** of the winning payload.
    pub winner: usize,
    /// Whether all present copies agreed.
    pub unanimous: bool,
    /// Whether the winner was backed by a strict majority of present copies.
    pub majority: bool,
}

/// [`vote_full`] over a sparse copy list (`None` = copy missing because its
/// sender replica died), allocation-free. Present copies participate in
/// index order, so the winner/tie-break behaviour is exactly
/// [`vote_full`]'s run on the dense list of present copies; the returned
/// `winner` indexes `raw` directly.
///
/// The unanimous case (every present copy bitwise-equal) is decided with a
/// single pass that compares each copy with the first present one at most
/// once; only an actual mismatch — silent data corruption,
/// by construction — pays for per-copy agreement counting.
///
/// # Panics
///
/// Panics if no copy is present.
pub fn vote_present(raw: &[Option<Bytes>]) -> QuickVote {
    #[expect(
        clippy::expect_used,
        reason = "documented contract (see # Panics): the receive path only votes when at least one copy arrived"
    )]
    let first = raw.iter().position(Option::is_some).expect("cannot vote among zero copies");
    #[expect(
        clippy::expect_used,
        reason = "infallible: first is the index of a Some found on the previous line"
    )]
    let reference = raw[first].as_ref().expect("present");
    let mut n = 0usize;
    let mut unanimous = true;
    for (i, c) in raw.iter().enumerate() {
        let Some(c) = c else { continue };
        n += 1;
        // The reference itself, and a copy that is the reference's buffer
        // (a broadcast tree forwards the vote winner's `Bytes`), agree
        // without a compare. A corrupted copy is always a fresh buffer.
        let same_buffer = c.as_ptr() == reference.as_ptr() && c.len() == reference.len();
        if i != first && !same_buffer && c != reference {
            unanimous = false;
        }
    }
    if unanimous {
        return QuickVote { winner: first, unanimous: true, majority: true };
    }
    // Mismatch: count agreements pairwise, exactly like `vote_full` on the
    // dense present list (most votes wins, ties break to the lowest index).
    let mut winner = first;
    let mut winner_count = 0usize;
    for (i, a) in raw.iter().enumerate() {
        let Some(a) = a else { continue };
        let count = raw.iter().flatten().filter(|b| *b == a).count();
        if count > winner_count {
            winner = i;
            winner_count = count;
        }
    }
    QuickVote { winner, unanimous: false, majority: winner_count * 2 > n }
}

/// Votes among one full payload (`full_idx` within the logical copy list)
/// and hashes for the remaining copies, as received in Msg-PlusHash mode.
/// `hashes[i]` is `None` for the full copy's own slot.
///
/// The full payload wins unless a strict majority of hash copies disagrees
/// with it — in that case the message is flagged (the winner is still the
/// full payload, since no full alternative exists, but `majority` is false
/// and the dissenting set is reported so the caller can escalate).
///
/// # Panics
///
/// Panics if `hashes[full_idx]` is not `None` or lengths are inconsistent.
pub fn vote_hashed(full: &Bytes, full_idx: usize, hashes: &[Option<u64>]) -> VoteOutcome {
    assert!(full_idx < hashes.len(), "full index out of range");
    assert!(hashes[full_idx].is_none(), "full copy must not also have a hash");
    let full_hash = hash_payload(full);
    let mut dissenters = Vec::new();
    let mut agree = 1usize; // the full copy agrees with itself
    for (i, h) in hashes.iter().enumerate() {
        match h {
            None => {}
            Some(h) if *h == full_hash => agree += 1,
            Some(_) => dissenters.push(i),
        }
    }
    VoteOutcome { winner: full_idx, dissenters, majority: agree * 2 > hashes.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }

    #[test]
    fn vote_cost_scales_with_extra_copies() {
        let vc = VoteCost { per_copy: 1.0, per_byte: 0.5 };
        assert_eq!(vc.cost(1, 100), 0.0, "single copy needs no comparison");
        assert_eq!(vc.cost(2, 100), 1.0 + 50.0);
        assert_eq!(vc.cost(3, 100), 2.0 * 51.0);
        assert_eq!(VoteCost::zero().cost(3, 1000), 0.0);
    }

    #[test]
    fn unanimous_vote() {
        let v = vote_full(&[b(b"x"), b(b"x"), b(b"x")]);
        assert_eq!(v.winner, 0);
        assert!(v.unanimous());
        assert!(v.majority);
    }

    #[test]
    fn majority_votes_out_corruption() {
        let v = vote_full(&[b(b"good"), b(b"BAD!"), b(b"good")]);
        assert_eq!(v.winner, 0);
        assert_eq!(v.dissenters, vec![1]);
        assert!(v.majority);
    }

    #[test]
    fn corrupted_first_copy_loses() {
        let v = vote_full(&[b(b"BAD!"), b(b"good"), b(b"good")]);
        assert_eq!(v.winner, 1);
        assert_eq!(v.dissenters, vec![0]);
        assert!(v.majority);
    }

    #[test]
    fn two_way_mismatch_detected_without_majority() {
        // Dual redundancy: detection but no correction.
        let v = vote_full(&[b(b"a"), b(b"b")]);
        assert_eq!(v.winner, 0, "tie breaks to lowest index");
        assert_eq!(v.dissenters, vec![1]);
        assert!(!v.majority);
    }

    #[test]
    fn single_copy_trivially_wins() {
        let v = vote_full(&[b(b"only")]);
        assert!(v.unanimous());
        assert!(v.majority);
    }

    #[test]
    #[should_panic(expected = "zero copies")]
    fn empty_vote_panics() {
        let _ = vote_full(&[]);
    }

    #[test]
    fn shared_buffer_copies_vote_like_equal_ones() {
        let shared = Bytes::from(b"good".to_vec());
        let v = vote_present(&[Some(b(b"BAD!")), Some(shared.clone()), Some(shared.clone())]);
        assert_eq!(v, QuickVote { winner: 1, unanimous: false, majority: true });
        let v = vote_present(&[Some(shared.clone()), None, Some(shared)]);
        assert_eq!(v, QuickVote { winner: 0, unanimous: true, majority: true });
    }

    #[test]
    fn hash_is_stable_and_discriminates() {
        assert_eq!(hash_payload(b"abc"), hash_payload(b"abc"));
        assert_ne!(hash_payload(b"abc"), hash_payload(b"abd"));
        assert_ne!(hash_payload(b""), hash_payload(b"\0"));
    }

    #[test]
    fn hashed_vote_agreement() {
        let payload = b(b"data");
        let h = hash_payload(&payload);
        let v = vote_hashed(&payload, 0, &[None, Some(h), Some(h)]);
        assert!(v.unanimous());
        assert!(v.majority);
    }

    #[test]
    fn hashed_vote_detects_dissent() {
        let payload = b(b"data");
        let h = hash_payload(&payload);
        let v = vote_hashed(&payload, 1, &[Some(h ^ 1), None, Some(h)]);
        assert_eq!(v.winner, 1);
        assert_eq!(v.dissenters, vec![0]);
        assert!(v.majority, "2 of 3 copies agree");
    }

    #[test]
    fn hashed_vote_majority_against_full() {
        let payload = b(b"data");
        let bad = hash_payload(b"other");
        let v = vote_hashed(&payload, 0, &[None, Some(bad), Some(bad)]);
        assert_eq!(v.dissenters, vec![1, 2]);
        assert!(!v.majority);
    }
}
