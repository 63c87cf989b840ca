//! The checkpoint wire format, written down once.
//!
//! Everything a process image stores goes through the [`Encode`] /
//! [`Decode`] pair below, and the rules are the whole format:
//!
//! * integers and floats are fixed-width little-endian;
//! * `bool` and the `Option` tag are one byte, `0` or `1`;
//! * a sequence or string is a `u64` element count followed by its
//!   elements (a string's elements are its UTF-8 bytes);
//! * a struct is its fields, back to back, in the order its
//!   [`codec_struct!`](crate::codec_struct) line lists them (a stored
//!   [`ProcessImage`](crate::ProcessImage) is the one hand-written layout,
//!   in `snapshot`).
//!
//! There are no field names, type tags, padding or version: the format is
//! not self-describing, and decoding requires the type that was encoded —
//! which is exactly the checkpoint/restore contract. The stored length is
//! in every checkpoint's trace event and prices a heal's state transfer,
//! so the layout is pinned by golden bytes (`tests/ckpt_codec.rs`).
//!
//! ```
//! #[derive(PartialEq, Debug)]
//! struct SolverState { iter: u64, residual: f64, x: Vec<f64> }
//! redcr_ckpt::codec_struct!(SolverState { iter, residual, x });
//!
//! # fn main() -> Result<(), redcr_ckpt::CkptError> {
//! let state = SolverState { iter: 7, residual: 1e-9, x: vec![1.0, 2.0] };
//! let bytes = redcr_ckpt::to_bytes(&state)?;
//! assert_eq!(bytes.len(), 8 + 8 + (8 + 2 * 8));
//! let back: SolverState = redcr_ckpt::from_bytes(&bytes)?;
//! assert_eq!(back, state);
//! # Ok(())
//! # }
//! ```

use crate::error::CkptError;
use crate::Result;

/// Encodes `value` in the checkpoint format.
///
/// # Errors
///
/// None: appending to a `Vec<u8>` cannot fail. The `Result` stays because
/// the signature is frozen: the benchmark under `crates/bench/src/bin/perf/`
/// (which a change measured by it may not edit) and every caller up to the
/// coordinator are written against it.
pub fn to_bytes<T: Encode>(value: &T) -> Result<Vec<u8>> {
    let len = value.encoded_len();
    let mut out = Vec::with_capacity(len);
    value.encode(&mut out);
    debug_assert_eq!(out.len(), len, "encoded_len disagrees with encode");
    Ok(out)
}

/// Decodes a `T` from bytes produced by [`to_bytes`].
///
/// The bytes are input from outside the program (a file, a peer): every
/// length prefix is checked against the bytes that remain before anything
/// is reserved for it.
///
/// # Errors
///
/// Returns [`CkptError::Codec`] on truncated input, a length prefix larger
/// than the input, a tag byte other than 0/1, invalid UTF-8, or trailing
/// bytes.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T> {
    let mut input = Reader { input: bytes };
    let value = T::decode(&mut input)?;
    if !input.input.is_empty() {
        return Err(CkptError::Codec(format!("{} trailing bytes", input.input.len())));
    }
    Ok(value)
}

/// A value with a checkpoint encoding.
pub trait Encode {
    /// Appends the value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// The number of bytes [`encode`](Self::encode) appends: what a writer
    /// reserves up front, so that its output is allocated once and never
    /// regrown.
    fn encoded_len(&self) -> usize;

    /// Appends the elements of a sequence (not its count). Fixed-width
    /// types override this to copy in bulk.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(out);
        }
    }
}

/// A value that can be read back from its checkpoint encoding.
pub trait Decode: Sized {
    /// The fewest bytes any value of the type encodes to: what a sequence's
    /// element count is checked against before anything is reserved.
    const MIN_SIZE: usize;

    /// Reads one value off the front of `input`.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Codec`] on truncated or malformed input.
    fn decode(input: &mut Reader<'_>) -> Result<Self>;

    /// Reads the `len` elements of a sequence whose count the caller has
    /// checked. This generic path reserves nothing and grows as elements
    /// arrive; fixed-width types override it with one exact reservation.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Codec`] on truncated or malformed input.
    fn decode_vec(len: usize, input: &mut Reader<'_>) -> Result<Vec<Self>> {
        (0..len).map(|_| Self::decode(input)).collect()
    }
}

/// The undecoded rest of an input. Opaque outside this module: a
/// [`Decode`] impl written by [`codec_struct!`](crate::codec_struct) (or
/// by hand, as `ProcessImage`'s is) only hands it on to its fields.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.input.len() < n {
            return Err(CkptError::Codec(format!(
                "unexpected end of input: need {n} bytes, have {}",
                self.input.len()
            )));
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned exactly N bytes"))
    }

    /// The one-byte tag of a `bool` or an `Option`.
    fn tag(&mut self, what: &str) -> Result<bool> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CkptError::Codec(format!("invalid {what} byte {other}"))),
        }
    }

    /// A sequence's element count, accepted only if that many elements of
    /// at least `min_size` bytes each can still be present.
    fn count(&mut self, min_size: usize) -> Result<usize> {
        let len = u64::from_le_bytes(self.array()?);
        let left = self.input.len();
        let fits = |n: &usize| n.checked_mul(min_size).is_some_and(|bytes| bytes <= left);
        usize::try_from(len).ok().filter(fits).ok_or_else(|| {
            CkptError::Codec(format!("length prefix {len} exceeds the {left} bytes that remain"))
        })
    }
}

/// Little-endian fixed-width numbers. A slice of them is converted 4 KiB at
/// a time in a stack buffer and appended from there: one write pass over
/// the output, with no per-element capacity check and no zero fill of the
/// output first (which a `resize` would cost on freshly mapped pages).
macro_rules! fixed_width {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$ty>()
            }

            fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
                const WIDTH: usize = std::mem::size_of::<$ty>();
                let mut stage = [0u8; 4096];
                out.reserve(std::mem::size_of_val(items));
                for chunk in items.chunks(4096 / WIDTH) {
                    let bytes = &mut stage[..chunk.len() * WIDTH];
                    for (slot, item) in bytes.chunks_exact_mut(WIDTH).zip(chunk) {
                        slot.copy_from_slice(&item.to_le_bytes());
                    }
                    out.extend_from_slice(bytes);
                }
            }
        }

        impl Decode for $ty {
            const MIN_SIZE: usize = std::mem::size_of::<$ty>();

            fn decode(input: &mut Reader<'_>) -> Result<Self> {
                Ok(Self::from_le_bytes(input.array()?))
            }

            fn decode_vec(len: usize, input: &mut Reader<'_>) -> Result<Vec<Self>> {
                let bytes = input.take(len.saturating_mul(Self::MIN_SIZE))?;
                let items = bytes.chunks_exact(Self::MIN_SIZE);
                Ok(items.map(|c| Self::from_le_bytes(c.try_into().expect("exact chunk"))).collect())
            }
        }
    )*};
}

fixed_width!(u32, u64, i64, f32, f64);

/// A byte is its own encoding, so a byte string moves as one copy.
impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn encoded_len(&self) -> usize {
        1
    }

    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
}

impl Decode for u8 {
    const MIN_SIZE: usize = 1;

    fn decode(input: &mut Reader<'_>) -> Result<Self> {
        Ok(input.take(1)?[0])
    }

    fn decode_vec(len: usize, input: &mut Reader<'_>) -> Result<Vec<Self>> {
        Ok(input.take(len)?.to_vec())
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    const MIN_SIZE: usize = 1;

    fn decode(input: &mut Reader<'_>) -> Result<Self> {
        input.tag("bool")
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.is_some()));
        if let Some(value) = self {
            value.encode(out);
        }
    }

    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, T::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    const MIN_SIZE: usize = 1;

    fn decode(input: &mut Reader<'_>) -> Result<Self> {
        if input.tag("option")? {
            T::decode(input).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        T::encode_slice(self, out);
    }

    fn encoded_len(&self) -> usize {
        8 + self.iter().map(T::encoded_len).sum::<usize>()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }

    fn encoded_len(&self) -> usize {
        self.as_slice().encoded_len()
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_SIZE: usize = 8;

    fn decode(input: &mut Reader<'_>) -> Result<Self> {
        // A count no input can back (elements of no bytes) would loop on
        // nothing; no such type exists, and none may be added.
        const { assert!(T::MIN_SIZE > 0) };
        let len = input.count(T::MIN_SIZE)?;
        T::decode_vec(len, input)
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_bytes().encode(out);
    }

    fn encoded_len(&self) -> usize {
        self.as_bytes().encoded_len()
    }
}

impl Decode for String {
    const MIN_SIZE: usize = 8;

    fn decode(input: &mut Reader<'_>) -> Result<Self> {
        String::from_utf8(Vec::<u8>::decode(input)?)
            .map_err(|e| CkptError::Codec(format!("invalid utf-8 string: {e}")))
    }
}

/// Encoding a reference is encoding what it points at (`&[f64]`, `&&T`).
impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }

    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

/// The smallest encoding of the field a projection returns: how
/// [`codec_struct!`](crate::codec_struct) sums [`Decode::MIN_SIZE`] over
/// fields it knows only by name.
#[doc(hidden)]
pub const fn min_size_of<S, T: Decode>(_field: fn(&S) -> &T) -> usize {
    T::MIN_SIZE
}

/// Gives a struct its checkpoint layout: the listed fields, in the listed
/// order, each through its own [`Encode`](crate::codec::Encode) /
/// [`Decode`](crate::codec::Decode). Write it directly under the type; a
/// field left out fails to compile.
#[macro_export]
macro_rules! codec_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Encode for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::codec::Encode::encode(&self.$field, out);)+
            }

            fn encoded_len(&self) -> usize {
                0 $(+ $crate::codec::Encode::encoded_len(&self.$field))+
            }
        }

        impl $crate::codec::Decode for $name {
            const MIN_SIZE: usize =
                0 $(+ $crate::codec::min_size_of(|s: &$name| &s.$field))+;

            fn decode(input: &mut $crate::codec::Reader<'_>) -> $crate::Result<Self> {
                Ok($name { $($field: $crate::codec::Decode::decode(input)?),+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value).unwrap();
        assert_eq!(value.encoded_len(), bytes.len(), "{value:?}");
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn primitives() {
        round_trip(true);
        round_trip(false);
        round_trip(42u8);
        round_trip(-1i64);
        round_trip(u64::MAX);
        round_trip(std::f64::consts::PI);
        round_trip(f32::NEG_INFINITY);
        round_trip(String::from("hello checkpoint"));
        round_trip(String::new());
    }

    #[test]
    fn containers() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<f64>::new());
        round_trip(Some(5u32));
        round_trip(Option::<u32>::None);
        round_trip(vec![vec![vec![1u8]]]);
    }

    #[derive(PartialEq, Debug)]
    struct Nested {
        name: String,
        values: Vec<f64>,
        flag: Option<bool>,
    }
    codec_struct!(Nested { name, values, flag });

    #[derive(PartialEq, Debug)]
    struct Image {
        rank: u32,
        nested: Nested,
        more: Vec<Nested>,
    }
    codec_struct!(Image { rank, nested, more });

    fn nested() -> Nested {
        Nested { name: "cg-state".into(), values: vec![0.5, -0.25, 1e300], flag: Some(true) }
    }

    #[test]
    fn derived_structs() {
        assert_eq!(Nested::MIN_SIZE, 8 + 8 + 1);
        assert_eq!(Image::MIN_SIZE, 4 + 17 + 8);
        round_trip(Image { rank: 17, nested: nested(), more: vec![nested(), nested()] });
    }

    #[test]
    fn layout_is_fields_in_listed_order_little_endian() {
        let bytes = to_bytes(&Nested { name: "é".into(), values: vec![1.0], flag: None }).unwrap();
        let mut want = vec![2, 0, 0, 0, 0, 0, 0, 0, 0xc3, 0xa9];
        want.extend([1, 0, 0, 0, 0, 0, 0, 0]);
        want.extend(1.0f64.to_le_bytes());
        want.push(0);
        assert_eq!(bytes, want);
        // A reference and a slice encode as the vector they view.
        let v = vec![1.5f64, -2.0];
        assert_eq!(to_bytes(&v.as_slice()).unwrap(), to_bytes(&v).unwrap());
        assert_eq!(to_bytes(&&v).unwrap(), to_bytes(&v).unwrap());
        // A slice longer than one staging buffer is its elements in order.
        let long: Vec<u32> = (0..3000).collect();
        let mut want = 3000u64.to_le_bytes().to_vec();
        want.extend(long.iter().flat_map(|x| x.to_le_bytes()));
        assert_eq!(to_bytes(&long).unwrap(), want);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = to_bytes(&vec![1u64, 2, 3]).unwrap();
        for cut in 0..bytes.len() {
            let err = from_bytes::<Vec<u64>>(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, CkptError::Codec(_)), "cut at {cut}");
        }
        let bytes = to_bytes(&nested()).unwrap();
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Nested>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = to_bytes(&7u32).unwrap();
        bytes.push(0);
        assert!(from_bytes::<u32>(&bytes).is_err());
    }

    #[test]
    fn invalid_bool_and_option_tags() {
        assert!(from_bytes::<bool>(&[2]).is_err());
        assert!(from_bytes::<Option<u8>>(&[9]).is_err());
        assert!(from_bytes::<Option<u8>>(&[1]).is_err());
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut bytes = to_bytes(&String::from("ab")).unwrap();
        bytes[8] = 0xff;
        assert!(matches!(from_bytes::<String>(&bytes), Err(CkptError::Codec(_))));
    }

    #[test]
    fn wrong_type_detected_via_structure() {
        // Encoding of a (short) Vec cannot decode as a String with absurd
        // length: it must error, not panic or allocate wildly.
        let bytes = to_bytes(&vec![u64::MAX]).unwrap();
        assert!(from_bytes::<String>(&bytes).is_err());
    }

    #[test]
    fn length_prefix_is_checked_against_the_remaining_bytes() {
        // 8 bytes of count, 8 bytes of payload: one f64, eight bytes, or
        // nothing larger — whatever the count claims.
        for len in [u64::MAX, 1 << 61, 1 << 40, 2] {
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.extend([0u8; 8]);
            assert!(from_bytes::<Vec<f64>>(&bytes).is_err(), "{len} f64s");
            assert!(from_bytes::<Vec<Nested>>(&bytes).is_err(), "{len} structs");
            assert!(from_bytes::<Vec<Vec<u8>>>(&bytes).is_err(), "{len} vectors");
        }
        let mut bytes = 9u64.to_le_bytes().to_vec();
        bytes.extend([0u8; 8]);
        assert!(from_bytes::<Vec<u8>>(&bytes).is_err());
        bytes[0] = 8;
        assert_eq!(from_bytes::<Vec<u8>>(&bytes).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn deterministic_encoding() {
        assert_eq!(to_bytes(&nested()).unwrap(), to_bytes(&nested()).unwrap());
    }

    #[test]
    fn nan_bits_preserved() {
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let bytes = to_bytes(&nan).unwrap();
        let back: f64 = from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
        let back: Vec<f64> = from_bytes(&to_bytes(&vec![nan, -0.0]).unwrap()).unwrap();
        assert_eq!(back[0].to_bits(), nan.to_bits());
        assert_eq!(back[1].to_bits(), (-0.0f64).to_bits());
    }
}
