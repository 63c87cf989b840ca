//! Restart support: locating the newest *complete* coordinated checkpoint
//! (every rank's image present) on stable storage.

use std::collections::BTreeMap;

use crate::storage::StableStorage;
use crate::Result;

/// Finds the highest checkpoint sequence number for which all `n_ranks`
/// images are present, or `None` if no complete checkpoint exists.
///
/// Incomplete checkpoints (a crash mid-write leaves some ranks missing)
/// are skipped — the stable-storage property the paper's recovery relies
/// on.
///
/// The per-sequence tally is a `BTreeMap` so the quorum count is
/// aggregated and drained in sorted order no matter what order the
/// backend lists keys in — restart selection must not depend on
/// directory-listing or hash-iteration order.
///
/// # Errors
///
/// Returns storage backend errors.
pub fn latest_complete(storage: &dyn StableStorage, n_ranks: u32) -> Result<Option<u64>> {
    let mut per_seq: BTreeMap<u64, u32> = BTreeMap::new();
    for key in storage.list()? {
        if key.rank < n_ranks {
            *per_seq.entry(key.seq).or_insert(0) += 1;
        }
    }
    Ok(per_seq.into_iter().filter(|&(_, count)| count >= n_ranks).map(|(seq, _)| seq).next_back())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{MemoryStorage, SnapshotKey};

    #[test]
    fn empty_storage_has_no_checkpoint() {
        let s = MemoryStorage::new();
        assert_eq!(latest_complete(&s, 4).unwrap(), None);
    }

    #[test]
    fn incomplete_sets_skipped() {
        let s = MemoryStorage::new();
        // Seq 1 complete (2 ranks), seq 2 incomplete (1 of 2).
        s.store(SnapshotKey::new(1, 0), b"a").unwrap();
        s.store(SnapshotKey::new(1, 1), b"b").unwrap();
        s.store(SnapshotKey::new(2, 0), b"c").unwrap();
        assert_eq!(latest_complete(&s, 2).unwrap(), Some(1));
    }

    #[test]
    fn newest_complete_wins() {
        let s = MemoryStorage::new();
        for seq in [1u64, 2, 3] {
            for rank in 0..3u32 {
                s.store(SnapshotKey::new(seq, rank), b"x").unwrap();
            }
        }
        assert_eq!(latest_complete(&s, 3).unwrap(), Some(3));
    }

    #[test]
    fn extra_rank_images_ignored() {
        let s = MemoryStorage::new();
        s.store(SnapshotKey::new(5, 0), b"a").unwrap();
        s.store(SnapshotKey::new(5, 9), b"stale-from-bigger-world").unwrap();
        // For a 2-rank world, rank 1 is missing: incomplete.
        assert_eq!(latest_complete(&s, 2).unwrap(), None);
        // For a 1-rank world, rank 0 present: complete.
        assert_eq!(latest_complete(&s, 1).unwrap(), Some(5));
    }

    /// A storage wrapper whose `list()` returns keys in an arbitrary,
    /// adversarial order — simulating backends (directory listings, hash
    /// maps) with no order guarantee.
    #[derive(Debug)]
    struct ScrambledList<S: StableStorage> {
        inner: S,
        /// Deterministic scramble: rotate by `rot` then reverse.
        rot: usize,
    }

    impl<S: StableStorage> StableStorage for ScrambledList<S> {
        fn store(&self, key: SnapshotKey, data: &[u8]) -> crate::Result<()> {
            self.inner.store(key, data)
        }
        fn load(&self, key: SnapshotKey) -> crate::Result<Vec<u8>> {
            self.inner.load(key)
        }
        fn list(&self) -> crate::Result<Vec<SnapshotKey>> {
            let mut keys = self.inner.list()?;
            if !keys.is_empty() {
                let r = self.rot % keys.len();
                keys.rotate_left(r);
                keys.reverse();
            }
            Ok(keys)
        }
        fn delete(&self, key: SnapshotKey) -> crate::Result<()> {
            self.inner.delete(key)
        }
    }

    #[test]
    fn quorum_counting_is_iteration_order_independent() {
        // Seq 3 complete, seq 4 incomplete (missing rank 2), seq 2
        // complete: the answer must be 3 under every listing order.
        let populate = |s: &dyn StableStorage| {
            for rank in 0..3u32 {
                s.store(SnapshotKey::new(2, rank), b"x").unwrap();
                s.store(SnapshotKey::new(3, rank), b"x").unwrap();
            }
            s.store(SnapshotKey::new(4, 0), b"x").unwrap();
            s.store(SnapshotKey::new(4, 1), b"x").unwrap();
        };
        let mut answers = Vec::new();
        for rot in 0..11 {
            let s = ScrambledList { inner: MemoryStorage::new(), rot };
            populate(&s);
            answers.push(latest_complete(&s, 3).unwrap());
        }
        assert!(answers.iter().all(|a| *a == Some(3)), "order-dependent result: {answers:?}");
    }
}
