//! Checkpoint compression (paper Section 2, "checkpoint compression"): a
//! way to cut checkpoint latency by shrinking process images before they
//! hit stable storage. The checkpoint path does not use it; stored images
//! hold the state uncompressed.
//!
//! The codec here is a byte-oriented run-length scheme tuned for process
//! images, which are dominated by long zero runs (untouched allocations).
//! Literal stretches are copied verbatim with a length prefix, so
//! incompressible data costs only ~1/127 overhead.
//!
//! Wire format: a sequence of blocks, each starting with a control byte
//! `c`: `c >= 0x80` ⇒ a run of `c - 0x7d` (3..=130) copies of the next
//! byte; `c < 0x80` ⇒ `c + 1` (1..=128) literal bytes follow.

use crate::error::CkptError;
use crate::Result;

const MIN_RUN: usize = 3;
const MAX_RUN: usize = 130;
const MAX_LITERAL: usize = 128;

/// Compresses `data` with run-length encoding.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    let mut i = 0;
    let mut literal_start = 0;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, data: &[u8]| {
        let mut start = from;
        while start < to {
            let chunk = (to - start).min(MAX_LITERAL);
            out.push((chunk - 1) as u8);
            out.extend_from_slice(&data[start..start + chunk]);
            start += chunk;
        }
    };

    while i < data.len() {
        // Measure the run starting at i.
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b && run < MAX_RUN {
            run += 1;
        }
        if run >= MIN_RUN {
            flush_literals(&mut out, literal_start, i, data);
            out.push((run - MIN_RUN + 0x80) as u8);
            out.push(b);
            i += run;
            literal_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(&mut out, literal_start, data.len(), data);
    out
}

/// Decompresses data produced by [`compress`].
///
/// # Errors
///
/// Returns [`CkptError::Codec`] on truncated or malformed input.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut i = 0;
    while i < data.len() {
        let c = data[i];
        i += 1;
        if c >= 0x80 {
            let run = (c - 0x80) as usize + MIN_RUN;
            let b = *data.get(i).ok_or_else(|| CkptError::Codec("rle: truncated run".into()))?;
            i += 1;
            out.resize(out.len() + run, b);
        } else {
            let len = c as usize + 1;
            let end = i + len;
            if end > data.len() {
                return Err(CkptError::Codec("rle: truncated literal block".into()));
            }
            out.extend_from_slice(&data[i..end]);
            i = end;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_small() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"aab");
        round_trip(b"aaab");
    }

    #[test]
    fn zero_heavy_images_shrink() {
        let mut img = vec![0u8; 100_000];
        img[5000] = 42;
        img[70_000..70_016].copy_from_slice(b"realdata12345678");
        let c = compress(&img);
        assert!(c.len() < img.len() / 50, "compressed {} of {}", c.len(), img.len());
        round_trip(&img);
    }

    #[test]
    fn incompressible_data_bounded_overhead() {
        // Pseudo-random bytes: no runs of length >= 3.
        let data: Vec<u8> =
            (0..10_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8 ^ (i as u8)).collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 100 + 16);
        round_trip(&data);
    }

    #[test]
    fn long_runs_split_correctly() {
        round_trip(&[7u8; MAX_RUN]);
        round_trip(&[7u8; MAX_RUN + 1]);
        round_trip(&vec![7u8; 3 * MAX_RUN + 2]);
        round_trip(&vec![0u8; 1 << 20]);
    }

    #[test]
    fn literal_blocks_split_correctly() {
        let data: Vec<u8> = (0..MAX_LITERAL as u16 * 3 + 5).map(|i| (i % 251) as u8).collect();
        round_trip(&data);
    }

    #[test]
    fn mixed_content() {
        let mut data = Vec::new();
        for i in 0..50 {
            data.extend_from_slice(&vec![i as u8; i % 7 + 1]);
            data.extend_from_slice(b"literal");
            data.extend_from_slice(&vec![0u8; i * 3]);
        }
        round_trip(&data);
    }

    #[test]
    fn truncated_inputs_rejected() {
        let c = compress(&[9u8; 100]);
        assert!(decompress(&c[..1]).is_err());
        assert!(decompress(&[0x05]).is_err()); // promises 6 literals, has none
    }
}
