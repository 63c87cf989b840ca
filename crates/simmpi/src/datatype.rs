//! Typed payload encoding.
//!
//! Messages travel as raw bytes; this module provides the little-endian
//! encode/decode helpers used by the typed convenience methods on
//! [`Communicator`](crate::Communicator) and by the reduction collectives.
//! Encoding is fixed little-endian so that replicated processes produce
//! bitwise-identical messages regardless of host (a prerequisite for the
//! replication layer's message voting).

use bytes::Bytes;

use crate::collectives::ReduceOp;
use crate::error::{MpiError, Result};

mod sealed {
    pub trait Sealed {}
}

/// An element the typed sends and the reduction collectives carry: `f64`
/// or `u64`. On the wire it is 8 little-endian bytes; the trait is sealed,
/// so those two are the only ones.
pub trait Word: sealed::Sealed + Copy {
    /// The 8-byte little-endian wire form.
    fn to_le(self) -> [u8; 8];

    /// Inverse of [`to_le`](Self::to_le).
    fn from_le(bytes: [u8; 8]) -> Self;

    /// `op(a, b)`, the one combine rule of every reduction: IEEE
    /// arithmetic for `f64`, saturating sum and product for `u64`.
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;
}

/// Implements [`Word`] for `$t`, whose sum and product are `$sum`/`$prod`.
macro_rules! word {
    ($t:ty, $sum:expr, $prod:expr) => {
        impl sealed::Sealed for $t {}

        impl Word for $t {
            fn to_le(self) -> [u8; 8] {
                self.to_le_bytes()
            }

            fn from_le(bytes: [u8; 8]) -> Self {
                <$t>::from_le_bytes(bytes)
            }

            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => $sum(a, b),
                    ReduceOp::Prod => $prod(a, b),
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Max => a.max(b),
                }
            }
        }
    };
}

word!(f64, |a, b| a + b, |a, b| a * b);
word!(u64, u64::saturating_add, u64::saturating_mul);

/// Slices of up to this many 8-byte words encode through a stack buffer
/// straight into an inline [`Bytes`] — no heap allocation. Matches
/// [`bytes::INLINE_CAP`]; the scalar payloads of reduction collectives
/// (dot products, norms, counters) all fit.
const INLINE_WORDS: usize = bytes::INLINE_CAP / 8;

/// Encodes a slice of words as a message payload. Small slices
/// (≤ `INLINE_WORDS`) take an allocation-free inline path.
pub fn encode<T: Word>(values: &[T]) -> Bytes {
    if values.len() <= INLINE_WORDS {
        let mut buf = [0u8; INLINE_WORDS * 8];
        for (chunk, v) in buf.chunks_exact_mut(8).zip(values) {
            chunk.copy_from_slice(&v.to_le());
        }
        Bytes::copy_from_slice(&buf[..values.len() * 8])
    } else {
        let mut out = Vec::with_capacity(values.len() * 8);
        for v in values {
            out.extend_from_slice(&v.to_le());
        }
        Bytes::from(out)
    }
}

/// Decodes little-endian bytes as words.
///
/// # Errors
///
/// Returns [`MpiError::DecodeError`] if the length is not a multiple of 8.
pub fn decode<T: Word>(bytes: &[u8]) -> Result<Vec<T>> {
    Ok(words(bytes)?.iter().map(|&w| T::from_le(w)).collect())
}

/// The 8-byte words of `bytes`, read in place and still in their wire
/// encoding: what [`decode`] decodes, without the vector. CG runs its
/// matvec straight over the words of an allgather this way.
///
/// # Errors
///
/// Returns [`MpiError::DecodeError`] if the length is not a multiple of 8.
pub fn words(bytes: &[u8]) -> Result<&[[u8; 8]]> {
    match bytes.as_chunks::<8>() {
        (words, []) => Ok(words),
        _ => Err(MpiError::DecodeError { what: "8-byte word slice" }),
    }
}

/// Decodes a single `u64`.
///
/// # Errors
///
/// Returns [`MpiError::DecodeError`] unless the payload is exactly 8 bytes.
pub fn decode_u64(bytes: &[u8]) -> Result<u64> {
    let arr: [u8; 8] =
        bytes.try_into().map_err(|_| MpiError::DecodeError { what: "u64 scalar" })?;
    Ok(u64::from_le_bytes(arr))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference encoding: every word's bytes, in order.
    fn reference<T: Word>(values: &[T]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le()).collect()
    }

    #[test]
    fn f64_round_trip() {
        let xs = vec![0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, std::f64::consts::PI];
        assert_eq!(decode::<f64>(&encode(&xs)).unwrap(), xs);
    }

    #[test]
    fn u64_round_trip() {
        let xs = vec![0, 1, u64::MAX, 42];
        assert_eq!(decode::<u64>(&encode(&xs)).unwrap(), xs);
    }

    #[test]
    fn scalar_round_trip() {
        assert_eq!(decode_u64(&99u64.to_le_bytes()).unwrap(), 99);
    }

    #[test]
    fn misaligned_length_rejected() {
        assert!(decode::<f64>(&[0u8; 7]).is_err());
        assert!(decode::<u64>(&[0u8; 9]).is_err());
        assert!(decode_u64(&[0u8; 16]).is_err());
    }

    #[test]
    fn decode_and_words_take_whole_words_only() {
        let bytes = encode(&[2.0, 3.0]);
        assert_eq!(decode::<f64>(&bytes).unwrap(), vec![2.0, 3.0]);
        assert!(decode::<f64>(&[0u8; 12]).is_err());
        let ws = words(&bytes).unwrap();
        assert_eq!(ws, [2.0f64.to_le_bytes(), 3.0f64.to_le_bytes()]);
        assert!(std::ptr::eq(ws.as_ptr().cast::<u8>(), bytes.as_ptr()));
        assert!(words(&[0u8; 12]).is_err());
        assert!(words(&[]).unwrap().is_empty());
    }

    #[test]
    fn empty_slices_ok() {
        assert!(decode::<f64>(&[]).unwrap().is_empty());
        assert!(encode::<f64>(&[]).is_empty());
    }

    #[test]
    fn to_bytes_matches_encode() {
        // Inline-path (small) and heap-path (large) payloads must be
        // byte-identical to the word-by-word encoding: voting compares raw
        // bytes.
        let small = [1.5f64, -2.25, 3.0];
        assert_eq!(&encode(&small)[..], reference(&small).as_slice());
        let large: Vec<f64> = (0..64).map(f64::from).collect();
        assert_eq!(&encode(&large)[..], reference(&large).as_slice());
        let us = [7u64, u64::MAX];
        assert_eq!(&encode(&us)[..], reference(&us).as_slice());
        let ul: Vec<u64> = (0..64).collect();
        assert_eq!(&encode(&ul)[..], reference(&ul).as_slice());
    }

    #[test]
    fn nan_payloads_preserve_bits() {
        // Voting compares raw bytes; NaN payloads must round-trip bitwise.
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let dec = decode::<f64>(&encode(&[nan])).unwrap();
        assert_eq!(dec[0].to_bits(), nan.to_bits());
    }
}
