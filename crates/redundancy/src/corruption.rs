//! Silent-data-corruption (SDC) injection.
//!
//! RedMPI's purpose beyond fail-stop resilience is detecting processes that
//! "continue operating but propagate erroneous messages" (the paper's
//! Byzantine/soft-error class, which it explicitly delegates to RedMPI's
//! voting). This module injects such corruption *under* the replication
//! layer: with a configured probability, a physical copy of an outgoing
//! message has one byte flipped. With triple redundancy the receiver's vote
//! removes the corruption; with dual redundancy it is detected and flagged.
//!
//! Injection is deterministic: whether a given physical message is
//! corrupted depends only on the seed and a per-sender message counter, so
//! replicated runs remain reproducible.

use std::cell::Cell;

/// Deterministic SDC injector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionModel {
    /// Probability that any single *physical* message copy is corrupted.
    pub rate: f64,
    /// Seed mixed into the per-message decision.
    pub seed: u64,
    /// Only corrupt copies sent by this replica index, if set — models one
    /// faulty node rather than uniformly unreliable hardware.
    pub only_replica: Option<usize>,
}

impl CorruptionModel {
    /// A model corrupting roughly `rate` of the physical copies sent by
    /// replica `only_replica` (or by everyone when `None`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability, got {rate}");
        CorruptionModel { rate, seed, only_replica: None }
    }

    /// Restricts corruption to one faulty replica index.
    pub fn only_replica(mut self, replica: usize) -> Self {
        self.only_replica = Some(replica);
        self
    }
}

/// Per-rank injector state (message counter).
#[derive(Debug)]
pub(crate) struct CorruptionInjector {
    model: CorruptionModel,
    counter: Cell<u64>,
}

impl CorruptionInjector {
    pub(crate) fn new(model: CorruptionModel) -> Self {
        CorruptionInjector { model, counter: Cell::new(0) }
    }

    /// Decides (deterministically) whether the next physical copy sent by
    /// `sender_replica` from physical rank `phys` should be corrupted; if
    /// so, returns the byte index to flip within a payload of `len` bytes.
    pub(crate) fn corrupt_at(&self, phys: u32, sender_replica: usize, len: usize) -> Option<usize> {
        let n = self.counter.get();
        self.counter.set(n + 1);
        if len == 0 || self.model.rate == 0.0 {
            return None;
        }
        if let Some(only) = self.model.only_replica {
            if sender_replica != only {
                return None;
            }
        }
        // SplitMix64 over (seed, phys, counter) → uniform u64.
        let mut x = self
            .model
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((phys as u64) << 32)
            .wrapping_add(n);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        (u < self.model.rate).then_some((x % len as u64) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_corrupts() {
        let inj = CorruptionInjector::new(CorruptionModel::new(0.0, 1));
        for _ in 0..1000 {
            assert!(inj.corrupt_at(0, 0, 100).is_none());
        }
    }

    #[test]
    fn full_rate_always_corrupts_in_range() {
        let inj = CorruptionInjector::new(CorruptionModel::new(1.0, 1));
        for _ in 0..100 {
            let at = inj.corrupt_at(3, 1, 17).expect("always corrupts");
            assert!(at < 17);
        }
    }

    #[test]
    fn rate_roughly_respected() {
        let inj = CorruptionInjector::new(CorruptionModel::new(0.1, 42));
        let hits = (0..10_000).filter(|_| inj.corrupt_at(0, 0, 64).is_some()).count();
        assert!((800..1200).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CorruptionInjector::new(CorruptionModel::new(0.3, 7));
        let b = CorruptionInjector::new(CorruptionModel::new(0.3, 7));
        for _ in 0..200 {
            assert_eq!(a.corrupt_at(1, 0, 32), b.corrupt_at(1, 0, 32));
        }
    }

    #[test]
    fn replica_filter() {
        let inj = CorruptionInjector::new(CorruptionModel::new(1.0, 1).only_replica(2));
        assert!(inj.corrupt_at(0, 0, 8).is_none());
        assert!(inj.corrupt_at(0, 1, 8).is_none());
        assert!(inj.corrupt_at(0, 2, 8).is_some());
    }

    #[test]
    fn empty_payload_untouched() {
        let inj = CorruptionInjector::new(CorruptionModel::new(1.0, 1));
        assert!(inj.corrupt_at(0, 0, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_rate_rejected() {
        let _ = CorruptionModel::new(1.5, 0);
    }
}
