//! Message tags, tag selectors and the internal tag-space layout.
//!
//! The wire tag is a `u64` partitioned into namespaces so that user
//! messages, collective traffic, replication-protocol traffic and
//! checkpoint-protocol traffic can never be confused:
//!
//! ```text
//! bits 63..48   zero
//! bits 47..46   namespace: 0 = user, 1 = collective, 2 = protocol
//! bits 45..0    tag value (user tag or sequence number)
//! ```
//!
//! There is one communicator, the world, so the wire tag carries no
//! communicator id (ROADMAP aim 2: the same behaviour from the least
//! code). The namespaces and the replication layer's virtual↔physical map
//! isolate traffic inside it, as RedMPI does inside one `MPI_COMM_WORLD`.

use std::fmt;

/// Number of bits available to the in-namespace tag value.
pub const TAG_VALUE_BITS: u32 = 46;
/// Highest tag value a user may supply.
pub const MAX_USER_TAG: u64 = (1 << TAG_VALUE_BITS) - 1;

const NAMESPACE_SHIFT: u32 = TAG_VALUE_BITS;

/// Internal tag namespaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum Namespace {
    /// Application-supplied tags.
    User = 0,
    /// Collectives implemented over point-to-point messages.
    Collective = 1,
    /// Runtime-internal protocols (replication control, checkpoint
    /// coordination).
    Protocol = 2,
}

/// A message tag.
///
/// User code constructs tags from small integers (`Tag::from(7u64)` or
/// `7.into()`); the runtime derives namespaced wire tags internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tag(u64);

impl Tag {
    /// Creates a user-namespace tag.
    ///
    /// # Panics
    ///
    /// Panics if `value > MAX_USER_TAG`. Use [`Tag::try_new`] to handle the
    /// error instead.
    pub const fn new(value: u64) -> Self {
        // detlint::allow(R4, reason = "documented constructor contract: fails at tag-construction in setup code, never mid-protocol; Tag::try_new is the fallible path")
        Self::try_new(value).expect("tag exceeds MAX_USER_TAG")
    }

    /// Creates a user-namespace tag, failing when out of range.
    pub const fn try_new(value: u64) -> Option<Self> {
        if value <= MAX_USER_TAG {
            Some(Tag(value))
        } else {
            None
        }
    }

    /// Builds the wire tag of this tag in namespace `ns`.
    pub(crate) fn wire(self, ns: Namespace) -> WireTag {
        WireTag(((ns as u64) << NAMESPACE_SHIFT) | self.0)
    }

    /// The raw in-namespace tag value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Tag {
    fn from(v: u64) -> Self {
        Tag::new(v)
    }
}

impl From<u32> for Tag {
    fn from(v: u32) -> Self {
        Tag(v as u64)
    }
}

/// A fully-resolved tag as it appears on the wire (namespace + value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WireTag(pub(crate) u64);

impl WireTag {
    /// The in-namespace tag value.
    pub fn value(self) -> u64 {
        self.0 & MAX_USER_TAG
    }

    /// Recovers the user-facing [`Tag`].
    pub fn user_tag(self) -> Tag {
        Tag(self.value())
    }

    /// The namespace bits.
    pub fn namespace(self) -> u64 {
        (self.0 >> NAMESPACE_SHIFT) & 0b11
    }
}

/// Tag selector for receive operations: a specific tag or the wildcard
/// (`MPI_ANY_TAG`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagSelector {
    /// Match messages with this tag only.
    Tag(Tag),
    /// Match any tag (`MPI_ANY_TAG`) in the receive's namespace. A user
    /// receive is posted in the user namespace, so collective and protocol
    /// traffic is never visible to it.
    Any,
}

impl TagSelector {
    /// Whether this selector admits a message with tag value `value`: a
    /// specific tag compares the value, `Any` admits every value. The
    /// namespace is the matcher's to check (the mailbox compares it per
    /// receive; a checkpoint stash holds user messages only).
    pub fn matches(self, value: u64) -> bool {
        match self {
            TagSelector::Tag(t) => t.value() == value,
            TagSelector::Any => true,
        }
    }
}

impl From<Tag> for TagSelector {
    fn from(t: Tag) -> Self {
        TagSelector::Tag(t)
    }
}

impl From<u64> for TagSelector {
    fn from(v: u64) -> Self {
        TagSelector::Tag(Tag::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_layout_round_trips() {
        let t = Tag::new(12345);
        let wt = t.wire(Namespace::Collective);
        assert_eq!(wt.value(), 12345);
        assert_eq!(wt.namespace(), Namespace::Collective as u64);
        assert_eq!(wt.user_tag(), t);
    }

    #[test]
    fn max_user_tag_accepted_and_beyond_rejected() {
        assert!(Tag::try_new(MAX_USER_TAG).is_some());
        assert!(Tag::try_new(MAX_USER_TAG + 1).is_none());
    }

    #[test]
    #[should_panic(expected = "MAX_USER_TAG")]
    fn new_panics_beyond_range() {
        let _ = Tag::new(MAX_USER_TAG + 1);
    }

    #[test]
    fn namespaces_are_disjoint_for_same_value() {
        let a = Tag::new(9).wire(Namespace::User);
        let b = Tag::new(9).wire(Namespace::Protocol);
        assert_ne!(a, b);
    }
}
