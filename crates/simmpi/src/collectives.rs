//! Reduction operators and payload framing used by the collective
//! operations.
//!
//! All collectives are implemented *over point-to-point messages* with fixed
//! deterministic trees (see [`Communicator`](crate::Communicator)); this
//! matches the paper's observation that "all collective communication in MPI
//! is based on point-to-point MPI messages", which is what lets the
//! replication layer cover collectives by interposing only on point-to-point
//! calls.

use bytes::Bytes;

use crate::datatype::Word;
use crate::error::{MpiError, Result};

/// Commutative, associative reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise product.
    Prod,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    /// Element-wise in-place combination `acc[i] = op(acc[i], x[i])`.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::CollectiveMismatch`] when lengths differ.
    pub fn fold<T: Word>(self, acc: &mut [T], x: &[T]) -> Result<()> {
        if acc.len() != x.len() {
            return Err(MpiError::CollectiveMismatch { what: "reduce operand lengths differ" });
        }
        for (a, &b) in acc.iter_mut().zip(x) {
            *a = T::combine(self, *a, b);
        }
        Ok(())
    }

    /// [`fold`](Self::fold) straight out of a receive buffer, the operand
    /// still in its wire encoding: the reduction tree decodes no vector per
    /// round, and the combine order is the same.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::CollectiveMismatch`] when the encoded operand
    /// length differs from `acc`.
    pub fn fold_bytes<T: Word>(self, acc: &mut [T], bytes: &[u8]) -> Result<()> {
        if bytes.len() != acc.len() * 8 {
            return Err(MpiError::CollectiveMismatch { what: "reduce operand lengths differ" });
        }
        for (a, &w) in acc.iter_mut().zip(bytes.as_chunks::<8>().0) {
            *a = T::combine(self, *a, T::from_le(w));
        }
        Ok(())
    }
}

/// Frames a list of byte chunks into one buffer, header first:
/// `[count][len_0 … len_{n−1}][part_0 … part_{n−1}]`, every count and
/// length a little-endian `u64` (used by allgather: gather to root,
/// broadcast the framed buffer). The parts end up back to back, so a
/// reader can take them as one slice: see [`Gathered::concat`].
pub fn frame_parts(parts: &[Bytes]) -> Bytes {
    let total: usize = parts.iter().map(|p| 8 + p.len()).sum();
    let mut out = Vec::with_capacity(8 + total);
    out.extend_from_slice(&(parts.len() as u64).to_le_bytes());
    for p in parts {
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
    }
    for p in parts {
        out.extend_from_slice(p);
    }
    Bytes::from(out)
}

/// The parts of one [`frame_parts`] buffer, read in place: what
/// [`allgather`](crate::Communicator::allgather) returns. Every part is a
/// borrowed `&[u8]` into the one broadcast buffer, so reading n parts
/// allocates nothing and touches no reference count.
#[derive(Debug)]
pub struct Gathered {
    buf: Bytes,
    count: usize,
}

impl Gathered {
    /// Inverse of [`frame_parts`]: checks the frame once. The header's
    /// part count sizes nothing; a count whose lengths run past the buffer
    /// fails before any length is read.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::DecodeError`] on malformed framing.
    pub fn unframe(buf: Bytes) -> Result<Self> {
        let err = || MpiError::DecodeError { what: "framed parts" };
        let (count, rest) = buf.split_first_chunk::<8>().ok_or_else(err)?;
        let count = usize::try_from(u64::from_le_bytes(*count)).map_err(|_| err())?;
        let header = count.checked_mul(8).ok_or_else(err)?;
        let (lens, body) = rest.split_at_checked(header).ok_or_else(err)?;
        let mut total = 0usize;
        for len in lens.as_chunks::<8>().0 {
            let len = usize::try_from(u64::from_le_bytes(*len)).map_err(|_| err())?;
            total = total.checked_add(len).ok_or_else(err)?;
        }
        if total != body.len() {
            return Err(err());
        }
        Ok(Gathered { buf, count })
    }

    /// Number of parts (the communicator's size, for an allgather).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether there are no parts.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The parts, in rank order.
    pub fn iter(&self) -> Parts<'_> {
        let (lens, body) = self.buf[8..].split_at(8 * self.count);
        Parts { lens: lens.as_chunks::<8>().0, body }
    }

    /// Every part, in rank order, back to back as one slice: for an
    /// allgather of vector blocks, the whole vector in its wire encoding.
    pub fn concat(&self) -> &[u8] {
        &self.buf[8 + 8 * self.count..]
    }

    /// [`concat`](Self::concat) as 8-byte words, when every part is whole
    /// words: one pass over the header's lengths, not one per part.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::DecodeError`] if a part's length is not a
    /// multiple of 8, as [`datatype::words`](crate::datatype::words) of
    /// that part would.
    pub fn words(&self) -> Result<&[[u8; 8]]> {
        let lens = self.buf[8..8 + 8 * self.count].as_chunks::<8>().0;
        if lens.iter().fold(0, |or, len| or | u64::from_le_bytes(*len)) % 8 != 0 {
            return Err(MpiError::DecodeError { what: "8-byte word slice" });
        }
        crate::datatype::words(self.concat())
    }
}

impl<'a> IntoIterator for &'a Gathered {
    type Item = &'a [u8];
    type IntoIter = Parts<'a>;

    fn into_iter(self) -> Parts<'a> {
        self.iter()
    }
}

/// Iterator over the parts of a [`Gathered`].
#[derive(Debug, Clone)]
pub struct Parts<'a> {
    lens: &'a [[u8; 8]],
    body: &'a [u8],
}

impl<'a> Iterator for Parts<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (len, lens) = self.lens.split_first()?;
        // `Gathered::unframe` checked that the lengths sum to the body, so
        // this never fails.
        let len = usize::try_from(u64::from_le_bytes(*len)).ok()?;
        let (part, body) = self.body.split_at_checked(len)?;
        (self.lens, self.body) = (lens, body);
        Some(part)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.lens.len(), Some(self.lens.len()))
    }
}

impl ExactSizeIterator for Parts<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_f64_ops() {
        assert_eq!(f64::combine(ReduceOp::Sum, 2.0, 3.0), 5.0);
        assert_eq!(f64::combine(ReduceOp::Prod, 2.0, 3.0), 6.0);
        assert_eq!(f64::combine(ReduceOp::Min, 2.0, 3.0), 2.0);
        assert_eq!(f64::combine(ReduceOp::Max, 2.0, 3.0), 3.0);
    }

    #[test]
    fn combine_u64_saturates() {
        assert_eq!(u64::combine(ReduceOp::Sum, u64::MAX, 1), u64::MAX);
        assert_eq!(u64::combine(ReduceOp::Prod, u64::MAX, 2), u64::MAX);
    }

    #[test]
    fn fold_checks_lengths() {
        let mut acc = vec![1.0, 2.0];
        assert!(ReduceOp::Sum.fold(&mut acc, &[1.0]).is_err());
        ReduceOp::Sum.fold(&mut acc, &[10.0, 20.0]).unwrap();
        assert_eq!(acc, vec![11.0, 22.0]);
        assert!(ReduceOp::Sum.fold_bytes(&mut acc, &[0u8; 12]).is_err());
        assert!(ReduceOp::Sum.fold_bytes(&mut acc, &[0u8; 8]).is_err());
        let mut counts = vec![u64::MAX - 1, 5];
        ReduceOp::Sum.fold_bytes(&mut counts, &crate::datatype::encode(&[3u64, 4])).unwrap();
        assert_eq!(counts, vec![u64::MAX, 9]);
    }

    #[test]
    fn frame_round_trip() {
        let parts = vec![Bytes::from_static(b"a"), Bytes::new(), Bytes::from_static(b"hello")];
        let back = Gathered::unframe(frame_parts(&parts)).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.iter().len(), 3);
        assert!(back.iter().eq(parts.iter().map(|p| &p[..])));
    }

    #[test]
    fn frame_is_header_first() {
        let parts = [Bytes::from_static(b"ab"), Bytes::new(), Bytes::from_static(b"cde")];
        let frame = frame_parts(&parts);
        let header = [3u64, 2, 0, 3].map(u64::to_le_bytes).concat();
        assert_eq!(&frame[..32], header.as_slice());
        assert_eq!(&frame[32..], b"abcde");
        // The same total length as one 8-byte prefix per part.
        assert_eq!(frame.len(), 8 + parts.iter().map(|p| 8 + p.len()).sum::<usize>());
    }

    #[test]
    fn concat_is_the_parts_back_to_back() {
        let parts = [Bytes::from_static(b"ab"), Bytes::new(), Bytes::from_static(b"cde")];
        let back = Gathered::unframe(frame_parts(&parts)).unwrap();
        assert_eq!(back.concat(), parts.concat().as_slice());
        assert!(back.iter().eq(parts.iter().map(|p| &p[..])));
        assert!(back.into_iter().eq(parts.iter().map(|p| &p[..])));
        assert!(Gathered::unframe(frame_parts(&[])).unwrap().concat().is_empty());
    }

    #[test]
    fn frame_empty_list() {
        let back = Gathered::unframe(frame_parts(&[])).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.iter().next(), None);
    }

    #[test]
    fn words_need_every_part_whole() {
        let parts = [Bytes::from(vec![1u8; 16]), Bytes::new(), Bytes::from(vec![2u8; 8])];
        let back = Gathered::unframe(frame_parts(&parts)).unwrap();
        assert_eq!(back.words().unwrap().as_flattened(), back.concat());
        // 7 + 9 bytes are 16 in all, but neither part is whole words.
        let parts = [Bytes::from(vec![1u8; 7]), Bytes::from(vec![2u8; 9])];
        let back = Gathered::unframe(frame_parts(&parts)).unwrap();
        assert!(matches!(back.words(), Err(MpiError::DecodeError { .. })));
    }

    fn rejected(buf: Vec<u8>) -> bool {
        matches!(Gathered::unframe(Bytes::from(buf)), Err(MpiError::DecodeError { .. }))
    }

    /// A frame from its header words and body.
    fn frame_of(header: &[u64], body: &[u8]) -> Vec<u8> {
        [header.iter().flat_map(|w| w.to_le_bytes()).collect(), body.to_vec()].concat()
    }

    #[test]
    fn unframe_rejects_garbage() {
        assert!(rejected(b"abc".to_vec()));
        // Count says 1 part but no length follows.
        assert!(rejected(1u64.to_le_bytes().to_vec()));
        // Trailing junk.
        let mut buf = frame_parts(&[Bytes::from_static(b"x")]).to_vec();
        buf.push(0);
        assert!(rejected(buf));
        // A part longer than what is left.
        let mut buf = frame_parts(&[Bytes::from_static(b"xy")]).to_vec();
        buf.pop();
        assert!(rejected(buf));
        // A length no slice can have.
        assert!(rejected([1u64.to_le_bytes(), u64::MAX.to_le_bytes()].concat()));
        // Huge counts over an 8-byte body: the header of lengths runs past
        // the buffer. Nothing is reserved for the parts the header claims.
        for count in [1u64 << 20, u64::MAX] {
            assert!(rejected([count.to_le_bytes(), 0u64.to_le_bytes()].concat()), "count {count}");
        }
    }

    #[test]
    fn unframe_rejects_a_header_past_the_buffer() {
        // Two parts claimed, one length present; the body is not read as
        // the second length.
        assert!(rejected(frame_of(&[2, 0], &[0; 7])));
        // A count whose header length overflows, or would reserve far more
        // than any host has: nothing is sized from it.
        for count in [1u64 << 60, u64::MAX / 8 + 1, u64::MAX] {
            assert!(rejected(frame_of(&[count, 1], b"x")), "count {count}");
        }
    }

    #[test]
    fn unframe_rejects_lengths_that_miss_the_body() {
        // Sum below the body, sum above it, and the exact fit it must be.
        assert!(rejected(frame_of(&[2, 1, 1], b"abc")));
        assert!(rejected(frame_of(&[2, 2, 2], b"abc")));
        assert!(!rejected(frame_of(&[2, 1, 2], b"abc")));
        // Lengths whose sum overflows `usize` (each one alone fits).
        assert!(rejected(frame_of(&[2, u64::MAX, 1], b"")));
        assert!(rejected(frame_of(&[3, 1 << 63, 1 << 63, 0], b"")));
    }
}
