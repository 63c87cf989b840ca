//! Process images: what one rank contributes to a coordinated checkpoint.
//!
//! A stored image is, in order: the rank (`u32`), the virtual time of the
//! cut (`f64`), the application state as a length-prefixed byte string, the
//! channel state (a sequence of [`ChannelMessage`]s) and one reserved byte,
//! always 0 (a reader refuses anything else). That layout is written in
//! exactly one place, `write_layout`, which [`ProcessImage::write`] (the
//! checkpoint and heal paths, straight from a live state) and
//! [`ProcessImage::to_stored_bytes`] (an image already in memory) share.

use crate::codec::{self, Decode, Encode, Reader};
use crate::error::CkptError;
use crate::Result;

/// A buffered in-flight message captured as channel state during
/// coordination (drained by the bookmark protocol).
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
        })
    }

    /// The stored bytes of the image of `state` cut at `cut`, written in
    /// one pass: the state is encoded straight into the output, which is
    /// allocated once, at its exact length.
    ///
    /// [`from_stored_bytes`](Self::from_stored_bytes) reads back an image
    /// whose `app_state` is the state's encoding and whose channel state is
    /// `channel`.
    pub fn write<S: Encode>(rank: u32, cut: f64, state: &S, channel: &[ChannelMessage]) -> Vec<u8> {
        let mut out = Vec::new();
        write_layout(&mut out, rank, cut, state.encoded_len(), |out| state.encode(out), channel);
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
    /// Returns a codec error if the bytes do not decode as `S`.
    pub fn restore<S: Decode>(&self) -> Result<S> {
        codec::from_bytes(&self.app_state)
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
    /// Returns a codec error on malformed input, including a nonzero
    /// reserved byte.
    pub fn from_stored_bytes(bytes: &[u8]) -> Result<Self> {
        codec::from_bytes(bytes)
    }
}

/// The stored length of an image whose application state is `state_len`
/// bytes.
fn stored_len(state_len: usize, channel: &[ChannelMessage]) -> usize {
    4 + 8 + (8 + state_len) + channel.encoded_len() + 1
}

/// The stored layout, stated once. `state` appends the `state_len` bytes
/// of the application state straight into `out`, after their length
/// prefix, instead of through a buffer of their own.
fn write_layout(
    out: &mut Vec<u8>,
    rank: u32,
    cut: f64,
    state_len: usize,
    state: impl FnOnce(&mut Vec<u8>),
    channel: &[ChannelMessage],
) {
    out.reserve(stored_len(state_len, channel));
    rank.encode(out);
    cut.encode(out);
    (state_len as u64).encode(out);
    let start = out.len();
    state(out);
    debug_assert_eq!(out.len() - start, state_len, "encoded_len disagrees with encode");
    channel.encode(out);
    0u8.encode(out);
}

impl Encode for ProcessImage {
    fn encode(&self, out: &mut Vec<u8>) {
        let app_state = |out: &mut Vec<u8>| out.extend_from_slice(&self.app_state);
        let (rank, cut, len) = (self.rank, self.virtual_time, self.app_state.len());
        write_layout(out, rank, cut, len, app_state, &self.channel_state);
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
        + u8::MIN_SIZE;

    fn decode(input: &mut Reader<'_>) -> Result<Self> {
        let image = ProcessImage {
            rank: Decode::decode(input)?,
            virtual_time: Decode::decode(input)?,
            app_state: Decode::decode(input)?,
            channel_state: Decode::decode(input)?,
        };
        match u8::decode(input)? {
            0 => Ok(image),
            other => Err(CkptError::Codec(format!("reserved image byte is {other}, not 0"))),
        }
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
        let written = ProcessImage::write(1, 7.0, &state(), &back.channel_state);
        assert_eq!(written, bytes);
    }

    #[test]
    fn wrong_type_restore_fails() {
        let img = ProcessImage::capture(0, 0.0, &state()).unwrap();
        assert!(img.restore::<Vec<String>>().is_err());
    }
}
