//! A process image is written once: the stored bytes of a 512 KiB state
//! are one allocation of exactly the stored length, not a buffer for the
//! state, a second for the framed image and a third when that one grows.
//!
//! One test in this binary, so nothing else allocates while it counts.

use redcr::apps::jacobi::JacobiState;
use redcr::ckpt::snapshot::{ChannelMessage, ProcessImage};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{last_large_request, requested, Counting, MMAP_THRESHOLD};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the number of requests above
/// [`MMAP_THRESHOLD`] it made.
fn large_requests<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = requested().1;
    let out = f();
    (out, requested().1 - before)
}

#[test]
fn a_stored_image_is_one_allocation_of_its_stored_length() {
    // The per-rank state of `jacobi_ckpt_faulty_w1`: 65 536 points.
    let state = JacobiState { iteration: 3, u: (0..65_536).map(f64::from).collect() };
    let channel = vec![ChannelMessage { src: 1, tag: 7, payload: vec![9; 16] }];

    let (written, large) = large_requests(|| ProcessImage::write(5, 2.5, &state, &channel));
    assert!(written.len() > MMAP_THRESHOLD);
    assert_eq!(large, 1, "the writer made {large} requests above {MMAP_THRESHOLD} B");
    assert_eq!(last_large_request(), written.len() as u64, "sized to the stored length");

    // An image already in memory re-frames the same way: one exact buffer.
    let image = ProcessImage::from_stored_bytes(&written).unwrap();
    let (stored, large) = large_requests(|| image.to_stored_bytes().unwrap());
    assert_eq!(large, 1, "to_stored_bytes made {large} requests above {MMAP_THRESHOLD} B");
    assert_eq!(last_large_request(), stored.len() as u64);
    assert_eq!(stored, written);
}
