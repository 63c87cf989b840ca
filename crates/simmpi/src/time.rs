//! Virtual time: per-rank clocks and the LogP-style communication cost
//! model.
//!
//! Simulated durations are `f64` **seconds** of virtual time. The cost model
//! charges:
//!
//! * the **sender** `msg_overhead` per message (CPU injection cost `o_s`);
//! * the **receiver** `msg_overhead` plus the network delivery term: the
//!   message becomes available at `send_time + latency + len·byte_time`,
//!   and the receive completes at
//!   `max(receiver_clock, availability) + msg_overhead`.
//!
//! Replicating a process at degree `r` multiplies the number of physical
//! messages per virtual message by `r` on both sides, which is exactly the
//! mechanism behind the paper's Eq. 1 overhead `t_Red = (1−α)t + α·t·r`.

use std::cell::Cell;

/// Communication cost parameters (seconds and bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One-way network latency per message, seconds.
    pub latency: f64,
    /// Transfer time per payload byte, seconds (1 / bandwidth).
    pub byte_time: f64,
    /// Per-message CPU overhead paid by both sender and receiver, seconds.
    pub msg_overhead: f64,
}

impl CostModel {
    /// A model calibrated to a QDR-InfiniBand-class cluster like the
    /// paper's testbed: ~1.5 µs latency, ~3.2 GB/s effective bandwidth,
    /// ~0.5 µs per-message CPU overhead.
    pub fn infiniband_qdr() -> Self {
        CostModel { latency: 1.5e-6, byte_time: 1.0 / 3.2e9, msg_overhead: 0.5e-6 }
    }

    /// A zero-cost model: messages are free and instantaneous. Useful for
    /// tests that only check functional behaviour.
    pub fn zero() -> Self {
        CostModel { latency: 0.0, byte_time: 0.0, msg_overhead: 0.0 }
    }

    /// The time at which a message of `len` bytes sent at `send_time`
    /// becomes available at the receiver.
    pub fn availability(&self, send_time: f64, len: usize) -> f64 {
        send_time + self.latency + len as f64 * self.byte_time
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::infiniband_qdr()
    }
}

/// A rank-local virtual clock.
///
/// Owned by exactly one rank thread (it is `Send` but not `Sync`), so reads
/// and writes are unsynchronized `Cell` accesses. The clock is monotone:
/// all mutators only move it forward.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: Cell<f64>,
    busy: Cell<f64>,
    comm: Cell<f64>,
}

impl VirtualClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at `start` seconds (used when resuming from a
    /// checkpointed execution prefix).
    pub fn starting_at(start: f64) -> Self {
        let c = Self::new();
        c.now.set(start);
        c
    }

    /// Current virtual time, seconds.
    pub fn now(&self) -> f64 {
        self.now.get()
    }

    /// Total time attributed to computation, seconds.
    pub fn busy_time(&self) -> f64 {
        self.busy.get()
    }

    /// Total time attributed to communication (overhead + waiting), seconds.
    pub fn comm_time(&self) -> f64 {
        self.comm.get()
    }

    /// Advances the clock by `seconds` of computation.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) on negative or non-finite durations.
    pub fn advance_compute(&self, seconds: f64) {
        debug_assert!(seconds.is_finite() && seconds >= 0.0, "bad duration {seconds}");
        self.now.set(self.now.get() + seconds);
        self.busy.set(self.busy.get() + seconds);
    }

    /// Advances the clock by `seconds` of communication overhead.
    pub fn advance_comm(&self, seconds: f64) {
        debug_assert!(seconds.is_finite() && seconds >= 0.0, "bad duration {seconds}");
        self.now.set(self.now.get() + seconds);
        self.comm.set(self.comm.get() + seconds);
    }

    /// Moves the clock forward to `t` if `t` is later, attributing the gap
    /// to communication (waiting for a message). Returns the new time.
    pub fn sync_to(&self, t: f64) -> f64 {
        let now = self.now.get();
        if t > now {
            self.comm.set(self.comm.get() + (t - now));
            self.now.set(t);
        }
        self.now.get()
    }

    /// The communication fraction α observed so far:
    /// `comm_time / (comm_time + busy_time)`, or 0 when idle.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.busy.get() + self.comm.get();
        if total == 0.0 {
            0.0
        } else {
            self.comm.get() / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_classifies() {
        let c = VirtualClock::new();
        c.advance_compute(2.0);
        c.advance_comm(1.0);
        assert_eq!(c.now(), 3.0);
        assert_eq!(c.busy_time(), 2.0);
        assert_eq!(c.comm_time(), 1.0);
        assert!((c.comm_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sync_to_only_moves_forward() {
        let c = VirtualClock::new();
        c.advance_compute(5.0);
        assert_eq!(c.sync_to(3.0), 5.0);
        assert_eq!(c.comm_time(), 0.0);
        assert_eq!(c.sync_to(8.0), 8.0);
        assert_eq!(c.comm_time(), 3.0);
    }

    #[test]
    fn starting_at_offsets_now_only() {
        let c = VirtualClock::starting_at(100.0);
        assert_eq!(c.now(), 100.0);
        assert_eq!(c.busy_time(), 0.0);
        assert_eq!(c.comm_fraction(), 0.0);
    }

    #[test]
    fn cost_model_availability() {
        let m = CostModel { latency: 1.0, byte_time: 0.5, msg_overhead: 0.1 };
        assert_eq!(m.availability(10.0, 4), 10.0 + 1.0 + 2.0);
    }

    #[test]
    fn zero_model_is_free() {
        let m = CostModel::zero();
        assert_eq!(m.availability(7.0, 1_000_000), 7.0);
    }

    #[test]
    fn default_is_infiniband() {
        assert_eq!(CostModel::default(), CostModel::infiniband_qdr());
    }
}
