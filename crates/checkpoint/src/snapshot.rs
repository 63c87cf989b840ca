//! Process images: what one rank contributes to a coordinated checkpoint.
//!
//! A stored image is, in order: the rank (`u32`), the virtual time of the
//! cut (`f64`), the application state as a length-prefixed byte string, the
//! channel state (a sequence of [`ChannelMessage`]s) and the compression
//! flag (`bool`). That layout is written in exactly one place,
//! `write_layout`, which [`ProcessImage::write`] (the checkpoint and heal
//! paths, straight from a live state) and
//! [`ProcessImage::to_stored_bytes`] (an image already in memory) share.

use crate::codec::{self, Decode, Encode, Reader};
use crate::compress;
use crate::exclusion::ExclusionSet;
use crate::Result;

/// A buffered in-flight message captured as channel state during
/// coordination (either drained by the bookmark protocol or recorded by
/// Chandy–Lamport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelMessage {
    /// Sending rank (communicator-level).
    pub src: u32,
    /// User tag value.
    pub tag: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}
crate::codec_struct!(ChannelMessage { src, tag, payload });

/// One rank's complete contribution to a coordinated checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessImage {
    /// The rank that produced this image (communicator-level).
    pub rank: u32,
    /// Virtual time of the cut, seconds.
    pub virtual_time: f64,
    /// Serialized application state (via [`crate::codec`]).
    pub app_state: Vec<u8>,
    /// In-flight messages owed to this rank at the cut.
    pub channel_state: Vec<ChannelMessage>,
    /// Whether `app_state` is RLE-compressed.
    pub compressed: bool,
}

impl ProcessImage {
    /// Builds an image from a serializable application state.
    ///
    /// # Errors
    ///
    /// Returns a codec error if the state cannot be serialized.
    pub fn capture<S: Encode>(rank: u32, virtual_time: f64, state: &S) -> Result<Self> {
        Ok(ProcessImage {
            rank,
            virtual_time,
            app_state: codec::to_bytes(state)?,
            channel_state: Vec::new(),
            compressed: false,
        })
    }

    /// The stored bytes of the image of `state` cut at `cut`, written in
    /// one pass: the state is encoded straight into the output, memory
    /// exclusion zeroes its excluded ranges there, and compression (when
    /// on) replaces it with its RLE form. Without compression the output is
    /// allocated once, at its exact length.
    ///
    /// [`from_stored_bytes`](Self::from_stored_bytes) reads back an image
    /// whose `app_state` is the state's encoding with `exclusions` zeroed,
    /// RLE-compressed if `compressed`, and whose channel state is `channel`.
    pub fn write<S: Encode>(
        rank: u32,
        cut: f64,
        state: &S,
        exclusions: &ExclusionSet,
        compressed: bool,
        channel: &[ChannelMessage],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        let encode_state = |out: &mut Vec<u8>| {
            let start = out.len();
            state.encode(out);
            exclusions.apply(&mut out[start..]);
            if compressed {
                let packed = compress::compress(&out[start..]);
                out.truncate(start);
                out.extend_from_slice(&packed);
            }
        };
        write_layout(&mut out, rank, cut, state.encoded_len(), encode_state, channel, compressed);
        out
    }

    /// Attaches drained channel state.
    pub fn with_channel_state(mut self, messages: Vec<ChannelMessage>) -> Self {
        self.channel_state = messages;
        self
    }

    /// Recovers the application state.
    ///
    /// # Errors
    ///
    /// Returns a codec error if the bytes do not decode as `S` (e.g. after
    /// memory exclusion zeroed a region the type needs — the application
    /// contract is that excluded regions are re-derivable scratch space).
    pub fn restore<S: Decode>(&self) -> Result<S> {
        if self.compressed {
            let bytes = compress::decompress(&self.app_state)?;
            codec::from_bytes(&bytes)
        } else {
            codec::from_bytes(&self.app_state)
        }
    }

    /// Serializes the whole image for stable storage, into one buffer of
    /// exactly the stored length.
    ///
    /// # Errors
    ///
    /// Returns a codec error on serialization failure.
    pub fn to_stored_bytes(&self) -> Result<Vec<u8>> {
        codec::to_bytes(self)
    }

    /// Deserializes an image previously produced by
    /// [`to_stored_bytes`](Self::to_stored_bytes) or
    /// [`write`](Self::write).
    ///
    /// # Errors
    ///
    /// Returns a codec error on malformed input.
    pub fn from_stored_bytes(bytes: &[u8]) -> Result<Self> {
        codec::from_bytes(bytes)
    }
}

/// The stored length of an image whose application state is `state_len`
/// bytes.
fn stored_len(state_len: usize, channel: &[ChannelMessage]) -> usize {
    4 + 8 + (8 + state_len) + channel.encoded_len() + 1
}

/// The stored layout, stated once. `state` appends the application state's
/// bytes (`state_len` is what to reserve for them; compression changes the
/// count): their length prefix is written as a placeholder before and
/// patched after, so they go straight into `out` instead of through a
/// buffer of their own.
fn write_layout(
    out: &mut Vec<u8>,
    rank: u32,
    cut: f64,
    state_len: usize,
    state: impl FnOnce(&mut Vec<u8>),
    channel: &[ChannelMessage],
    compressed: bool,
) {
    out.reserve(stored_len(state_len, channel));
    rank.encode(out);
    cut.encode(out);
    let prefix = out.len();
    0u64.encode(out);
    state(out);
    let len = (out.len() - prefix - 8) as u64;
    out[prefix..prefix + 8].copy_from_slice(&len.to_le_bytes());
    channel.encode(out);
    compressed.encode(out);
}

impl Encode for ProcessImage {
    fn encode(&self, out: &mut Vec<u8>) {
        let app_state = |out: &mut Vec<u8>| out.extend_from_slice(&self.app_state);
        let (rank, cut, len) = (self.rank, self.virtual_time, self.app_state.len());
        write_layout(out, rank, cut, len, app_state, &self.channel_state, self.compressed);
    }

    fn encoded_len(&self) -> usize {
        stored_len(self.app_state.len(), &self.channel_state)
    }
}

impl Decode for ProcessImage {
    const MIN_SIZE: usize = u32::MIN_SIZE
        + f64::MIN_SIZE
        + Vec::<u8>::MIN_SIZE
        + Vec::<ChannelMessage>::MIN_SIZE
        + bool::MIN_SIZE;

    fn decode(input: &mut Reader<'_>) -> Result<Self> {
        Ok(ProcessImage {
            rank: Decode::decode(input)?,
            virtual_time: Decode::decode(input)?,
            app_state: Decode::decode(input)?,
            channel_state: Decode::decode(input)?,
            compressed: Decode::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(PartialEq, Debug, Clone)]
    struct State {
        iter: u64,
        x: Vec<f64>,
        label: String,
    }
    crate::codec_struct!(State { iter, x, label });

    fn state() -> State {
        State { iter: 41, x: vec![1.5; 100], label: "solver".into() }
    }

    #[test]
    fn capture_restore_round_trip() {
        let img = ProcessImage::capture(3, 12.5, &state()).unwrap();
        assert_eq!(img.rank, 3);
        assert_eq!(img.virtual_time, 12.5);
        let back: State = img.restore().unwrap();
        assert_eq!(back, state());
    }

    #[test]
    fn stored_bytes_round_trip() {
        let img = ProcessImage::capture(1, 7.0, &state())
            .unwrap()
            .with_channel_state(vec![ChannelMessage { src: 0, tag: 9, payload: vec![1, 2] }]);
        let bytes = img.to_stored_bytes().unwrap();
        let back = ProcessImage::from_stored_bytes(&bytes).unwrap();
        assert_eq!(back, img);
        assert_eq!(back.channel_state.len(), 1);
        let written =
            ProcessImage::write(1, 7.0, &state(), &ExclusionSet::new(), false, &back.channel_state);
        assert_eq!(written, bytes);
    }

    /// The image [`ProcessImage::write`] stored, read back.
    fn written(state: &State, exclusions: &ExclusionSet, compressed: bool) -> ProcessImage {
        let bytes = ProcessImage::write(2, 1.0, state, exclusions, compressed, &[]);
        ProcessImage::from_stored_bytes(&bytes).unwrap()
    }

    #[test]
    fn compression_shrinks_repetitive_state() {
        let plain = ProcessImage::capture(0, 0.0, &state()).unwrap();
        let squeezed = written(&state(), &ExclusionSet::new(), true);
        assert!(squeezed.compressed);
        assert!(squeezed.app_state.len() < plain.app_state.len());
        let back: State = squeezed.restore().unwrap();
        assert_eq!(back, state());
    }

    #[test]
    fn exclusion_zeroes_region() {
        // Exclude the tail of the serialized vector: the floats there come
        // back as zero (re-derivable scratch), the rest survives.
        let s = state();
        let mut ex = ExclusionSet::new();
        // Serialized layout: iter (8) + len (8) + 100 f64 (800) + string.
        ex.exclude(16 + 400..16 + 800);
        let img = written(&s, &ex, false);
        let back: State = img.restore().unwrap();
        assert_eq!(back.iter, s.iter);
        assert_eq!(back.label, s.label);
        assert_eq!(&back.x[..50], &s.x[..50]);
        assert!(back.x[50..].iter().all(|v| *v == 0.0));
    }

    #[test]
    fn wrong_type_restore_fails() {
        let img = ProcessImage::capture(0, 0.0, &state()).unwrap();
        assert!(img.restore::<Vec<String>>().is_err());
    }
}
