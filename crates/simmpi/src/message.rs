//! Message envelopes and receive status.

use bytes::Bytes;

use crate::rank::Rank;
use crate::tag::{Tag, WireTag};

/// A message as stored in a rank's mailbox.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending rank (world rank of the physical sender).
    pub src: Rank,
    /// Fully-namespaced wire tag.
    pub wire_tag: WireTag,
    /// Payload bytes (reference-counted; fan-out clones are cheap).
    pub payload: Bytes,
    /// Sender's virtual clock when the message was injected, seconds.
    pub send_time: f64,
}

impl Envelope {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// Completion information for a receive, mirroring `MPI_Status`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Status {
    /// The rank the message actually came from (resolves `ANY_SOURCE`).
    pub source: Rank,
    /// The user tag of the message (resolves `ANY_TAG`).
    pub tag: Tag,
    /// Payload length in bytes.
    pub len: usize,
    /// Receiver's virtual clock at completion, seconds.
    pub completed_at: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Namespace;

    #[test]
    fn envelope_len() {
        let e = Envelope {
            src: Rank::new(1),
            wire_tag: Tag::new(3).wire(Namespace::User),
            payload: Bytes::from_static(b"abc"),
            send_time: 0.0,
        };
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
    }

    #[test]
    fn status_is_copy() {
        let s = Status { source: Rank::new(0), tag: Tag::new(1), len: 4, completed_at: 1.0 };
        let t = s;
        assert_eq!(s, t);
    }
}
