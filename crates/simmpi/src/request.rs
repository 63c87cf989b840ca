//! Non-blocking request handles: one type for every communicator layer.
//!
//! `isend` is eager (the message is already in flight when the call
//! returns), so a send request carries nothing. `irecv` defers matching to
//! `wait`: the request records the selectors, and the matching (plus the
//! virtual-time arithmetic) happens when the request is waited on. This
//! mirrors how the paper's apps use non-blocking MPI (post, then
//! `MPI_Wait`/`MPI_Waitall`). Because a request is only its selectors, an
//! interposing layer needs no request type of its own: the provided
//! [`Communicator`](crate::Communicator) methods complete a request through
//! the layer's own `recv_ns`.

use bytes::Bytes;

use crate::message::Status;
use crate::rank::RankSelector;
use crate::tag::TagSelector;

/// Outcome of a non-blocking completion test
/// ([`Communicator::test`](crate::Communicator::test)).
#[derive(Debug)]
pub enum TestOutcome {
    /// The operation completed; receives carry their payload.
    Completed(Option<(Bytes, Status)>),
    /// Not complete yet; the request is handed back for a later test or
    /// wait.
    Pending(Request),
}

impl TestOutcome {
    /// Whether the operation completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, TestOutcome::Completed(_))
    }
}

/// A pending non-blocking operation.
///
/// Obtained from [`Communicator::isend`](crate::Communicator::isend) /
/// [`Communicator::irecv`](crate::Communicator::irecv); consumed by
/// [`Communicator::wait`](crate::Communicator::wait) on the communicator it
/// was posted on. Requests are not `Clone`: each must be waited on exactly
/// once (dropping one without waiting is allowed and simply abandons the
/// receive).
#[derive(Debug)]
pub enum Request {
    /// An eager send: already complete.
    Send,
    /// A deferred user-namespace receive: matched at wait time.
    Recv {
        /// Source selector, in the rank numbering of the communicator the
        /// request was posted on.
        src: RankSelector,
        /// Tag selector.
        tag: TagSelector,
    },
}

impl Request {
    /// Whether this is a send request (completes without producing data).
    pub fn is_send(&self) -> bool {
        matches!(self, Request::Send)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::Rank;

    #[test]
    fn kind_predicates() {
        let s = Request::Send;
        assert!(s.is_send());
        let r = Request::Recv { src: RankSelector::Rank(Rank::new(0)), tag: TagSelector::Any };
        assert!(!r.is_send());
    }
}
