//! Typed payload encoding.
//!
//! Messages travel as raw bytes; this module provides the little-endian
//! encode/decode helpers used by the typed convenience methods on
//! [`Communicator`](crate::Communicator) and by the reduction collectives.
//! Encoding is fixed little-endian so that replicated processes produce
//! bitwise-identical messages regardless of host (a prerequisite for the
//! replication layer's message voting).

use bytes::Bytes;

use crate::error::{MpiError, Result};

/// Slices of up to this many 8-byte words encode through a stack buffer
/// straight into an inline [`Bytes`] — no heap allocation. Matches
/// [`bytes::INLINE_CAP`]; the scalar payloads of reduction collectives
/// (dot products, norms, counters) all fit.
const INLINE_WORDS: usize = bytes::INLINE_CAP / 8;

/// Encodes a slice of `f64` directly as a message payload. Small slices
/// (≤ `INLINE_WORDS`) take an allocation-free inline path.
pub fn f64s_to_bytes(values: &[f64]) -> Bytes {
    if values.len() <= INLINE_WORDS {
        let mut buf = [0u8; INLINE_WORDS * 8];
        for (chunk, v) in buf.chunks_exact_mut(8).zip(values) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        Bytes::copy_from_slice(&buf[..values.len() * 8])
    } else {
        Bytes::from(encode_f64s(values))
    }
}

/// Encodes a slice of `u64` directly as a message payload. Small slices
/// (≤ `INLINE_WORDS`) take an allocation-free inline path.
pub fn u64s_to_bytes(values: &[u64]) -> Bytes {
    if values.len() <= INLINE_WORDS {
        let mut buf = [0u8; INLINE_WORDS * 8];
        for (chunk, v) in buf.chunks_exact_mut(8).zip(values) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        Bytes::copy_from_slice(&buf[..values.len() * 8])
    } else {
        Bytes::from(encode_u64s(values))
    }
}

/// Encodes a slice of `f64` as little-endian bytes.
pub fn encode_f64s(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes little-endian bytes as `f64` values.
///
/// # Errors
///
/// Returns [`MpiError::DecodeError`] if the length is not a multiple of 8.
pub fn decode_f64s(bytes: &[u8]) -> Result<Vec<f64>> {
    let mut out = Vec::with_capacity(bytes.len() / 8);
    extend_f64s(&mut out, bytes)?;
    Ok(out)
}

/// [`decode_f64s`] appending to `out` instead of returning a new vector:
/// the decode-into counterpart of
/// [`ReduceOp::fold_f64_bytes`](crate::collectives::ReduceOp::fold_f64_bytes),
/// for assembling one vector from the parts of an allgather.
///
/// # Errors
///
/// Returns [`MpiError::DecodeError`] if the length is not a multiple of 8;
/// `out` is then unchanged.
pub fn extend_f64s(out: &mut Vec<f64>, bytes: &[u8]) -> Result<()> {
    if !bytes.len().is_multiple_of(8) {
        return Err(MpiError::DecodeError { what: "f64 slice" });
    }
    out.extend(
        bytes
            .chunks_exact(8)
            // detlint::allow(R4, reason = "infallible: chunks_exact(8) yields exactly 8-byte slices")
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8"))),
    );
    Ok(())
}

/// Encodes a slice of `u64` as little-endian bytes.
pub fn encode_u64s(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes little-endian bytes as `u64` values.
///
/// # Errors
///
/// Returns [`MpiError::DecodeError`] if the length is not a multiple of 8.
pub fn decode_u64s(bytes: &[u8]) -> Result<Vec<u64>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(MpiError::DecodeError { what: "u64 slice" });
    }
    Ok(bytes
        .chunks_exact(8)
        // detlint::allow(R4, reason = "infallible: chunks_exact(8) yields exactly 8-byte slices")
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect())
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

    #[test]
    fn f64_round_trip() {
        let xs = vec![0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, std::f64::consts::PI];
        assert_eq!(decode_f64s(&encode_f64s(&xs)).unwrap(), xs);
    }

    #[test]
    fn u64_round_trip() {
        let xs = vec![0, 1, u64::MAX, 42];
        assert_eq!(decode_u64s(&encode_u64s(&xs)).unwrap(), xs);
    }

    #[test]
    fn scalar_round_trip() {
        assert_eq!(decode_u64(&99u64.to_le_bytes()).unwrap(), 99);
    }

    #[test]
    fn misaligned_length_rejected() {
        assert!(decode_f64s(&[0u8; 7]).is_err());
        assert!(decode_u64s(&[0u8; 9]).is_err());
        assert!(decode_u64(&[0u8; 16]).is_err());
    }

    #[test]
    fn extend_appends_and_leaves_out_alone_on_error() {
        let mut out = vec![1.0];
        extend_f64s(&mut out, &encode_f64s(&[2.0, 3.0])).unwrap();
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
        assert!(extend_f64s(&mut out, &[0u8; 12]).is_err());
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_slices_ok() {
        assert!(decode_f64s(&[]).unwrap().is_empty());
        assert!(encode_f64s(&[]).is_empty());
    }

    #[test]
    fn to_bytes_matches_encode() {
        // Inline-path (small) and heap-path (large) payloads must be
        // byte-identical to the Vec encoders: voting compares raw bytes.
        let small = [1.5f64, -2.25, 3.0];
        assert_eq!(&f64s_to_bytes(&small)[..], encode_f64s(&small).as_slice());
        let large: Vec<f64> = (0..64).map(f64::from).collect();
        assert_eq!(&f64s_to_bytes(&large)[..], encode_f64s(&large).as_slice());
        let us = [7u64, u64::MAX];
        assert_eq!(&u64s_to_bytes(&us)[..], encode_u64s(&us).as_slice());
        let ul: Vec<u64> = (0..64).collect();
        assert_eq!(&u64s_to_bytes(&ul)[..], encode_u64s(&ul).as_slice());
    }

    #[test]
    fn nan_payloads_preserve_bits() {
        // Voting compares raw bytes; NaN payloads must round-trip bitwise.
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let enc = encode_f64s(&[nan]);
        let dec = decode_f64s(&enc).unwrap();
        assert_eq!(dec[0].to_bits(), nan.to_bits());
    }
}
