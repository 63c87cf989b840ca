//! Incremental checkpointing (paper Section 2): save only the pages that
//! changed since the previous checkpoint, and reconstruct a full image at
//! restart by replaying the chain on top of the last full checkpoint.
//!
//! Real systems use the MMU dirty bit; here the engine keeps a 64-bit hash
//! per fixed-size page and diffs against the previous image — the
//! software analogue with identical externally-visible behaviour.

use crate::error::CkptError;
use crate::Result;

/// Default page granularity (4 KiB, like the MMU).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// One checkpoint produced by the [`IncrementalEngine`]: either a full
/// image or the dirty pages relative to the previous checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Increment {
    /// A complete image (the chain base).
    Full {
        /// The whole image.
        image: Vec<u8>,
    },
    /// Only the pages that changed since the previous checkpoint.
    Delta {
        /// Length of the full image this delta reconstructs to.
        image_len: u64,
        /// `(page index, page bytes)` for each dirty page.
        pages: Vec<(u64, Vec<u8>)>,
    },
}

impl Increment {
    /// Serialized payload size in bytes (what would hit stable storage).
    pub fn stored_bytes(&self) -> usize {
        match self {
            Increment::Full { image } => image.len(),
            Increment::Delta { pages, .. } => {
                pages.iter().map(|(_, p)| p.len() + 8).sum::<usize>() + 8
            }
        }
    }

    /// Whether this is a full (chain-base) checkpoint.
    pub fn is_full(&self) -> bool {
        matches!(self, Increment::Full { .. })
    }
}

/// Tracks page hashes between checkpoints and emits [`Increment`]s.
#[derive(Debug, Clone)]
pub struct IncrementalEngine {
    page_size: usize,
    /// Page hashes of the image at the last checkpoint, or `None` before
    /// the first one.
    last_hashes: Option<Vec<u64>>,
    last_len: usize,
}

impl IncrementalEngine {
    /// An engine with the default 4 KiB page size.
    pub fn new() -> Self {
        Self::with_page_size(DEFAULT_PAGE_SIZE)
    }

    /// An engine with a custom page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size == 0`.
    pub fn with_page_size(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        IncrementalEngine { page_size, last_hashes: None, last_len: 0 }
    }

    /// The page granularity.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Produces the next checkpoint for `image`. The first call (and any
    /// call after [`reset`](Self::reset), or when the image length changes)
    /// emits a full image; later calls emit deltas.
    pub fn checkpoint(&mut self, image: &[u8]) -> Increment {
        let hashes: Vec<u64> = image.chunks(self.page_size).map(page_hash).collect();
        let delta_ok = match &self.last_hashes {
            Some(last) => self.last_len == image.len() && last.len() == hashes.len(),
            None => false,
        };
        let inc = if delta_ok {
            let last = self.last_hashes.as_ref().expect("delta_ok implies last");
            let mut pages = Vec::new();
            for (i, chunk) in image.chunks(self.page_size).enumerate() {
                if last[i] != hashes[i] {
                    pages.push((i as u64, chunk.to_vec()));
                }
            }
            Increment::Delta { image_len: image.len() as u64, pages }
        } else {
            Increment::Full { image: image.to_vec() }
        };
        self.last_hashes = Some(hashes);
        self.last_len = image.len();
        inc
    }

    /// Forgets the chain: the next checkpoint will be full.
    pub fn reset(&mut self) {
        self.last_hashes = None;
        self.last_len = 0;
    }
}

impl Default for IncrementalEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over a page — the software stand-in for the MMU dirty bit.
fn page_hash(page: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    for &b in page {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Reconstructs the full image from a chain `[full, delta, delta, …]`
/// (oldest first), applying each delta at page granularity `page_size`.
///
/// # Errors
///
/// Returns [`CkptError::BrokenChain`] if the chain does not start with a
/// full image, a delta's length disagrees, or a page index is out of range.
pub fn reconstruct(chain: &[Increment], page_size: usize) -> Result<Vec<u8>> {
    let mut iter = chain.iter();
    let mut image = match iter.next() {
        Some(Increment::Full { image }) => image.clone(),
        Some(Increment::Delta { .. }) => {
            return Err(CkptError::BrokenChain { what: "chain must start with a full image" })
        }
        None => return Err(CkptError::BrokenChain { what: "empty chain" }),
    };
    for inc in iter {
        match inc {
            Increment::Full { image: full } => image = full.clone(),
            Increment::Delta { image_len, pages } => {
                if *image_len as usize != image.len() {
                    return Err(CkptError::BrokenChain {
                        what: "delta image length disagrees with base",
                    });
                }
                for (idx, page) in pages {
                    let start = (*idx as usize) * page_size;
                    let end = start + page.len();
                    if end > image.len() || page.len() > page_size {
                        return Err(CkptError::BrokenChain { what: "page out of range" });
                    }
                    image[start..end].copy_from_slice(page);
                }
            }
        }
    }
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_checkpoint_is_full() {
        let mut eng = IncrementalEngine::with_page_size(8);
        let inc = eng.checkpoint(&[1u8; 32]);
        assert!(inc.is_full());
    }

    #[test]
    fn unchanged_image_emits_empty_delta() {
        let mut eng = IncrementalEngine::with_page_size(8);
        let img = vec![5u8; 64];
        eng.checkpoint(&img);
        match eng.checkpoint(&img) {
            Increment::Delta { pages, .. } => assert!(pages.is_empty()),
            _ => panic!("expected delta"),
        }
    }

    #[test]
    fn only_dirty_pages_captured() {
        let mut eng = IncrementalEngine::with_page_size(8);
        let mut img = vec![0u8; 64];
        eng.checkpoint(&img);
        img[17] = 1; // page 2
        img[63] = 2; // page 7
        match eng.checkpoint(&img) {
            Increment::Delta { pages, .. } => {
                let indices: Vec<u64> = pages.iter().map(|(i, _)| *i).collect();
                assert_eq!(indices, vec![2, 7]);
            }
            _ => panic!("expected delta"),
        }
    }

    #[test]
    fn chain_reconstructs_exactly() {
        let mut eng = IncrementalEngine::with_page_size(16);
        let mut chain = Vec::new();
        let mut img: Vec<u8> = (0..200u8).collect();
        chain.push(eng.checkpoint(&img));
        for step in 0..5 {
            img[step * 13 % 200] = step as u8 ^ 0xAA;
            img[(step * 91 + 7) % 200] = step as u8;
            chain.push(eng.checkpoint(&img));
        }
        let rebuilt = reconstruct(&chain, 16).unwrap();
        assert_eq!(rebuilt, img);
    }

    #[test]
    fn length_change_falls_back_to_full() {
        let mut eng = IncrementalEngine::with_page_size(8);
        eng.checkpoint(&[0u8; 32]);
        let inc = eng.checkpoint(&[0u8; 40]);
        assert!(inc.is_full(), "resized image must re-base the chain");
    }

    #[test]
    fn reset_forces_full() {
        let mut eng = IncrementalEngine::with_page_size(8);
        let img = vec![0u8; 32];
        eng.checkpoint(&img);
        eng.reset();
        assert!(eng.checkpoint(&img).is_full());
    }

    #[test]
    fn broken_chains_detected() {
        assert!(reconstruct(&[], 8).is_err());
        let delta = Increment::Delta { image_len: 8, pages: vec![] };
        assert!(reconstruct(std::slice::from_ref(&delta), 8).is_err());
        let full = Increment::Full { image: vec![0; 8] };
        let bad_len = Increment::Delta { image_len: 16, pages: vec![] };
        assert!(reconstruct(&[full.clone(), bad_len], 8).is_err());
        let bad_page = Increment::Delta { image_len: 8, pages: vec![(5, vec![0u8; 8])] };
        assert!(reconstruct(&[full, bad_page], 8).is_err());
    }

    #[test]
    fn delta_much_smaller_than_full() {
        let mut eng = IncrementalEngine::new();
        let mut img = vec![0u8; 1 << 20];
        let full = eng.checkpoint(&img);
        img[123_456] ^= 0xFF;
        let delta = eng.checkpoint(&img);
        assert!(delta.stored_bytes() < full.stored_bytes() / 100);
    }

    #[test]
    fn stored_bytes_accounting() {
        let full = Increment::Full { image: vec![0; 100] };
        assert_eq!(full.stored_bytes(), 100);
        let delta = Increment::Delta { image_len: 100, pages: vec![(0, vec![0; 10])] };
        assert_eq!(delta.stored_bytes(), 10 + 8 + 8);
    }
}
