use std::error::Error;
use std::fmt;

use crate::rank::Rank;

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, MpiError>;

/// Errors produced by the message-passing runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MpiError {
    /// The run aborted: the rank was woken from a blocking call because
    /// another rank failed or escalated a death it could not mask.
    Aborted {
        /// The rank that observed the abort.
        rank: Rank,
        /// The rank's virtual time when the abort was observed, seconds.
        at: f64,
    },
    /// This rank reached its own sampled death time (per-rank fail-stop
    /// injection): it must stop executing immediately. Unlike
    /// [`Aborted`](MpiError::Aborted), the death of one rank does **not**
    /// stop its peers — survivors observe it per-operation as
    /// [`DeadPeer`](MpiError::DeadPeer).
    Dead {
        /// The rank that died (world rank).
        rank: Rank,
        /// The sampled death time, virtual seconds.
        at: f64,
    },
    /// A point-to-point operation targeted a peer that has fail-stopped.
    /// Sends observe this when the destination's death time has passed;
    /// receives observe it when the awaited sender died without having sent
    /// a matching message.
    DeadPeer {
        /// The dead peer (world rank).
        peer: Rank,
        /// This rank's virtual time when the death was observed, seconds.
        at: f64,
    },
    /// Every replica of a virtual peer is dead: the replica sphere — and
    /// with it the job — cannot make progress. Raised by interposition
    /// layers that map several physical ranks onto one logical peer.
    SphereDead {
        /// The virtual rank whose sphere died.
        virtual_rank: Rank,
        /// Virtual time when the sphere death was observed, seconds.
        at: f64,
    },
    /// The program deadlocked: this rank was blocked in a receive or probe
    /// when every rank was blocked or finished, with no message on its
    /// way and no abort raised. Not a fail-stop outcome.
    Deadlock {
        /// The rank that observed the deadlock.
        rank: Rank,
        /// The rank's virtual time when it blocked, seconds.
        at: f64,
    },
    /// A rank index was outside the communicator.
    InvalidRank {
        /// The offending rank index.
        rank: usize,
        /// Size of the communicator.
        size: usize,
    },
    /// A payload failed typed decoding (length not a multiple of the item
    /// size, or trailing bytes).
    DecodeError {
        /// What was being decoded.
        what: &'static str,
    },
    /// A collective was invoked with inconsistent arguments across ranks
    /// (e.g. mismatched reduce lengths).
    CollectiveMismatch {
        /// Description of the inconsistency.
        what: &'static str,
    },
    /// An application- or service-level failure surfaced through the
    /// runtime (e.g. a checkpoint service error inside a rank closure).
    App {
        /// Human-readable description.
        what: String,
    },
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::Aborted { rank, at } => {
                write!(f, "run aborted at virtual time {at:.6}s (observed by rank {rank})")
            }
            MpiError::Dead { rank, at } => {
                write!(f, "rank {rank} fail-stopped at virtual time {at:.6}s")
            }
            MpiError::DeadPeer { peer, at } => {
                write!(f, "peer rank {peer} is dead (observed at virtual time {at:.6}s)")
            }
            MpiError::SphereDead { virtual_rank, at } => {
                write!(
                    f,
                    "all replicas of virtual rank {virtual_rank} are dead \
                     (observed at virtual time {at:.6}s)"
                )
            }
            MpiError::Deadlock { rank, at } => {
                write!(
                    f,
                    "deadlock: rank {rank} blocked at virtual time {at:.6}s \
                     with every rank blocked or finished"
                )
            }
            MpiError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for communicator of size {size}")
            }
            MpiError::DecodeError { what } => write!(f, "failed to decode payload as {what}"),
            MpiError::CollectiveMismatch { what } => {
                write!(f, "collective argument mismatch: {what}")
            }
            MpiError::App { what } => write!(f, "application failure: {what}"),
        }
    }
}

impl MpiError {
    /// Whether this error is a planned fail-stop outcome — an injected
    /// death or its downstream observation — rather than a genuine
    /// application or runtime error. Restart-driving layers use this to
    /// separate "the failure we injected" from real bugs.
    pub fn is_fail_stop(&self) -> bool {
        matches!(
            self,
            MpiError::Aborted { .. }
                | MpiError::Dead { .. }
                | MpiError::DeadPeer { .. }
                | MpiError::SphereDead { .. }
        )
    }
}

impl Error for MpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_fields() {
        let e = MpiError::InvalidRank { rank: 9, size: 4 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        let e = MpiError::Aborted { rank: Rank::new(2), at: 1.5 };
        assert!(e.to_string().contains("aborted"));
        let e = MpiError::Deadlock { rank: Rank::new(3), at: 0.5 };
        assert!(e.to_string().contains("deadlock") && e.to_string().contains('3'));
        assert!(!e.is_fail_stop());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + 'static>() {}
        check::<MpiError>();
    }
}
