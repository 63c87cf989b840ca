//! Process images: what one rank contributes to a coordinated checkpoint.

use crate::codec::{self, Decode, Encode};
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
crate::codec_struct!(ProcessImage { rank, virtual_time, app_state, channel_state, compressed });

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

    /// Builds an image with memory exclusion and optional compression
    /// applied to the serialized state.
    ///
    /// # Errors
    ///
    /// Returns a codec error if the state cannot be serialized.
    pub fn capture_with<S: Encode>(
        rank: u32,
        virtual_time: f64,
        state: &S,
        exclusions: &ExclusionSet,
        compressed: bool,
    ) -> Result<Self> {
        let mut bytes = codec::to_bytes(state)?;
        exclusions.apply(&mut bytes);
        let app_state = if compressed { compress::compress(&bytes) } else { bytes };
        Ok(ProcessImage { rank, virtual_time, app_state, channel_state: Vec::new(), compressed })
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

    /// Serializes the whole image for stable storage.
    ///
    /// # Errors
    ///
    /// Returns a codec error on serialization failure.
    pub fn to_stored_bytes(&self) -> Result<Vec<u8>> {
        codec::to_bytes(self)
    }

    /// Deserializes an image previously produced by
    /// [`to_stored_bytes`](Self::to_stored_bytes).
    ///
    /// # Errors
    ///
    /// Returns a codec error on malformed input.
    pub fn from_stored_bytes(bytes: &[u8]) -> Result<Self> {
        codec::from_bytes(bytes)
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
    }

    #[test]
    fn compression_shrinks_repetitive_state() {
        let plain = ProcessImage::capture(0, 0.0, &state()).unwrap();
        let squeezed =
            ProcessImage::capture_with(0, 0.0, &state(), &ExclusionSet::new(), true).unwrap();
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
        let img = ProcessImage::capture_with(2, 1.0, &s, &ex, false).unwrap();
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
