//! Replication-layer statistics: message amplification and voting events.

/// Counters maintained by one replica's [`ReplicaComm`](crate::ReplicaComm),
/// plain data (Send + Sync): the communicator keeps one in a `Cell` and
/// hands it out by value; [`add`](Self::add) aggregates across ranks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Application-level sends.
    pub virtual_sends: u64,
    /// Physical messages injected.
    pub physical_sends: u64,
    /// Application-level receives.
    pub virtual_recvs: u64,
    /// Physical messages consumed.
    pub physical_recvs: u64,
    /// Bytes injected (full payloads and hashes alike).
    pub payload_bytes_sent: u64,
    /// Hash-only messages (Msg-PlusHash).
    pub hash_messages_sent: u64,
    /// Votes performed.
    pub votes: u64,
    /// Votes with disagreement.
    pub mismatches_detected: u64,
    /// Mismatches corrected by majority.
    pub corrections: u64,
    /// Wildcard (`ANY_SOURCE`) envelope protocols executed.
    pub wildcard_protocols: u64,
    /// Physical copies skipped because the receiver replica was dead.
    pub dead_peer_sends: u64,
    /// Redundant copies missing because the sender replica was dead.
    pub missing_copies: u64,
}

impl StatsSnapshot {
    pub(crate) fn record_virtual_send(&mut self) {
        self.virtual_sends += 1;
    }

    pub(crate) fn record_physical_send(&mut self, bytes: usize, is_hash: bool) {
        self.physical_sends += 1;
        self.payload_bytes_sent += bytes as u64;
        self.hash_messages_sent += u64::from(is_hash);
    }

    pub(crate) fn record_virtual_recv(&mut self, physical: usize) {
        self.virtual_recvs += 1;
        self.physical_recvs += physical as u64;
    }

    pub(crate) fn record_vote(&mut self, unanimous: bool, corrected: bool) {
        self.votes += 1;
        self.mismatches_detected += u64::from(!unanimous);
        self.corrections += u64::from(!unanimous && corrected);
    }

    pub(crate) fn record_wildcard_protocol(&mut self) {
        self.wildcard_protocols += 1;
    }

    pub(crate) fn record_dead_peer_send(&mut self) {
        self.dead_peer_sends += 1;
    }

    pub(crate) fn record_missing_copy(&mut self) {
        self.missing_copies += 1;
    }

    /// Element-wise sum.
    pub fn add(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            virtual_sends: self.virtual_sends + other.virtual_sends,
            physical_sends: self.physical_sends + other.physical_sends,
            virtual_recvs: self.virtual_recvs + other.virtual_recvs,
            physical_recvs: self.physical_recvs + other.physical_recvs,
            payload_bytes_sent: self.payload_bytes_sent + other.payload_bytes_sent,
            hash_messages_sent: self.hash_messages_sent + other.hash_messages_sent,
            votes: self.votes + other.votes,
            mismatches_detected: self.mismatches_detected + other.mismatches_detected,
            corrections: self.corrections + other.corrections,
            wildcard_protocols: self.wildcard_protocols + other.wildcard_protocols,
            dead_peer_sends: self.dead_peer_sends + other.dead_peer_sends,
            missing_copies: self.missing_copies + other.missing_copies,
        }
    }

    /// Message amplification: physical sends per virtual send.
    pub fn send_amplification(&self) -> f64 {
        if self.virtual_sends == 0 {
            0.0
        } else {
            self.physical_sends as f64 / self.virtual_sends as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_counts() {
        let mut s = StatsSnapshot::default();
        s.record_virtual_send();
        s.record_physical_send(10, false);
        s.record_physical_send(10, false);
        s.record_physical_send(8, true);
        assert_eq!(s.send_amplification(), 3.0);
        assert_eq!(s.payload_bytes_sent, 28);
        assert_eq!(s.hash_messages_sent, 1);
    }

    #[test]
    fn vote_counters() {
        let mut s = StatsSnapshot::default();
        s.record_vote(true, false);
        s.record_vote(true, true);
        s.record_vote(false, true);
        s.record_vote(false, false);
        assert_eq!(s.votes, 4);
        assert_eq!(s.mismatches_detected, 2);
        assert_eq!(s.corrections, 1);
    }

    #[test]
    fn add_sums_every_field() {
        // Distinct values per field, so a field summed into the wrong slot
        // or left out shows.
        let a = StatsSnapshot {
            virtual_sends: 1,
            physical_sends: 2,
            virtual_recvs: 3,
            physical_recvs: 4,
            payload_bytes_sent: 5,
            hash_messages_sent: 6,
            votes: 7,
            mismatches_detected: 8,
            corrections: 9,
            wildcard_protocols: 10,
            dead_peer_sends: 11,
            missing_copies: 12,
        };
        let sum = StatsSnapshot {
            virtual_sends: 2,
            physical_sends: 4,
            virtual_recvs: 6,
            physical_recvs: 8,
            payload_bytes_sent: 10,
            hash_messages_sent: 12,
            votes: 14,
            mismatches_detected: 16,
            corrections: 18,
            wildcard_protocols: 20,
            dead_peer_sends: 22,
            missing_copies: 24,
        };
        assert_eq!(a.add(&a), sum);
        assert_eq!(a.add(&StatsSnapshot::default()), a);
    }

    #[test]
    fn zero_division_guard() {
        assert_eq!(StatsSnapshot::default().send_amplification(), 0.0);
    }
}
