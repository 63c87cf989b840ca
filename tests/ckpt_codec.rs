//! The checkpoint codec from the outside: the bytes it writes are pinned,
//! and the bytes it reads are hostile.
//!
//! *Pinned*: stored length is what the storage cost model charges as the
//! paper's `c` and `R`, so it feeds every virtual-time constant the
//! determinism gates hold. The goldens below (length + FNV-1a 64) were
//! captured from the derive-based codec `redcr_ckpt::codec` replaced (PR 20);
//! a layout change has to change them on purpose.
//!
//! *Hostile*: a stored image is input from outside the program. Arbitrary
//! bytes, every proper prefix of a valid image and one-byte mutations of
//! one decode to `Ok` or `CkptError::Codec` — never a panic — and a length
//! prefix is checked against the bytes that remain before anything is
//! reserved for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use redcr::apps::cg::CgState;
use redcr::apps::ep::EpState;
use redcr::apps::jacobi::JacobiState;
use redcr::ckpt::snapshot::{ChannelMessage, ProcessImage};
use redcr::ckpt::{from_bytes, to_bytes, CkptError};
use redcr::sweep::spec::fnv1a;

thread_local! {
    /// The largest single allocation this thread requested since armed.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Watching;

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().map(|seen| seen.max(size))));
}

// SAFETY: defers every request to `System` unchanged; `note` touches only
// a const-initialized thread-local `Cell` with no destructor, so it never
// allocates or re-enters.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Runs `f` and returns its result with the largest single allocation it
/// requested on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(Some(0)));
    let out = f();
    (out, LARGEST.with(|l| l.take()).expect("armed above"))
}

fn cg() -> CgState {
    CgState {
        iteration: 7,
        x: (0..100).map(|i| f64::from(i) * 0.5).collect(),
        r: vec![-0.0, f64::NAN, 1e300],
        p: vec![],
        rho: 3.25,
    }
}

fn image() -> ProcessImage {
    ProcessImage::capture(3, 12.5, &cg()).unwrap().with_channel_state(vec![
        ChannelMessage { src: 1, tag: 99, payload: vec![1, 2, 3] },
        ChannelMessage { src: 2, tag: u64::MAX, payload: vec![] },
    ])
}

#[test]
fn the_format_did_not_move() {
    let golden = |what: &str, bytes: Vec<u8>, len: usize, fnv: u64| {
        assert_eq!(bytes.len(), len, "{what}: stored length");
        assert_eq!(fnv1a(&bytes), fnv, "{what}: {:016x}", fnv1a(&bytes));
    };
    golden("CgState", to_bytes(&cg()).unwrap(), 864, 0xfd38_5023_2825_3ce5);
    let jacobi = JacobiState { iteration: 9, u: vec![1.0; 33] };
    golden("JacobiState", to_bytes(&jacobi).unwrap(), 280, 0x9658_5662_e3d2_6e50);
    let ep = EpState { batch: 1, inside: 2, total: 3 };
    golden("EpState", to_bytes(&ep).unwrap(), 24, 0xda2b_fb22_5e0d_1f05);
    golden("Vec<CgState>", to_bytes(&vec![cg(), cg()]).unwrap(), 1736, 0x34b5_4116_a628_957f);
    golden("u64", to_bytes(&42u64).unwrap(), 8, 0xff3a_dd6b_3789_daef);
    golden("ProcessImage", image().to_stored_bytes().unwrap(), 936, 0x4b07_be9b_2214_f99b);
}

/// `channel` → the stored length and FNV-1a of the image of [`cg`] at
/// rank 3 and cut 12.5, with the two messages of [`image`] or none.
/// Captured from the capture-then-frame path `ProcessImage::write` replaced
/// (`capture_with(..).with_channel_state(..).to_stored_bytes()`).
const WRITER_GOLDENS: [(bool, usize, u64); 2] =
    [(false, 893, 0xf6c1_313c_7985_b72a), (true, 936, 0x4b07_be9b_2214_f99b)];

#[test]
fn the_image_writer_writes_the_old_bytes() {
    for (with_channel, len, fnv) in WRITER_GOLDENS {
        let channel = if with_channel { image().channel_state } else { Vec::new() };
        let what = format!("channel {with_channel}");
        let written = ProcessImage::write(3, 12.5, &cg(), &channel);
        assert_eq!(written.len(), len, "{what}: stored length");
        assert_eq!(fnv1a(&written), fnv, "{what}: {:016x}", fnv1a(&written));
        // An image read back re-frames to the same bytes.
        let back = ProcessImage::from_stored_bytes(&written).unwrap();
        assert_eq!(back.to_stored_bytes().unwrap(), written, "{what}");
    }
}

/// Overwrites the count at `at` with two absurd values and with
/// `too_many`, the first that cannot fit: each must be refused, and nothing
/// larger than the input reserved on the way.
fn refuses_counts(input: &[u8], at: usize, too_many: u64, decode: fn(&[u8]) -> Option<CkptError>) {
    for count in [u64::MAX, 1 << 40, too_many] {
        let mut bytes = input.to_vec();
        bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
        let (error, largest) = largest_allocation(|| decode(&bytes));
        assert!(matches!(error, Some(CkptError::Codec(_))), "{count} at {at}: {error:?}");
        // Fields decoded before the count, and the error message.
        assert!(largest <= input.len().max(256), "{count} at {at}: {largest} B requested");
    }
}

#[test]
fn an_absurd_length_prefix_is_an_error_before_anything_is_reserved() {
    // Sixteen bytes: a count and room for one f64.
    refuses_counts(&[0u8; 16], 0, 2, |b| from_bytes::<Vec<f64>>(b).err());
    // A stored image keeps the length of its state at 12 and the number of
    // its messages after the state; 44 bytes follow that, and the smallest
    // message is 20.
    let stored = image().to_stored_bytes().unwrap();
    let image_error = |b: &[u8]| ProcessImage::from_stored_bytes(b).err();
    refuses_counts(&stored, 12, (stored.len() - 20) as u64 + 1, image_error);
    refuses_counts(&stored, 20 + image().app_state.len(), 3, image_error);
    // A valid vector is one reservation of exactly its size.
    let bytes = to_bytes(&vec![1.5f64; 1000]).unwrap();
    let (decoded, largest) = largest_allocation(|| from_bytes::<Vec<f64>>(&bytes));
    assert_eq!(decoded.unwrap(), vec![1.5f64; 1000]);
    assert_eq!(largest, 8000);
}

#[test]
fn every_proper_prefix_of_a_stored_image_is_a_codec_error() {
    let stored = image().to_stored_bytes().unwrap();
    for cut in 0..stored.len() {
        let decoded = ProcessImage::from_stored_bytes(&stored[..cut]);
        assert!(matches!(decoded, Err(CkptError::Codec(_))), "cut at {cut}: {decoded:?}");
    }
    let state = to_bytes(&cg()).unwrap();
    for cut in 0..state.len() {
        assert!(matches!(from_bytes::<CgState>(&state[..cut]), Err(CkptError::Codec(_))));
    }
}

/// `Ok`, or the one decode error: returning at all is the property.
fn ok_or_codec<T>(decoded: Result<T, CkptError>) -> Result<(), TestCaseError> {
    match decoded {
        Ok(_) | Err(CkptError::Codec(_)) => Ok(()),
        Err(other) => Err(TestCaseError::fail(format!("not a codec error: {other}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
        ok_or_codec(from_bytes::<CgState>(&bytes))?;
        ok_or_codec(from_bytes::<Vec<f64>>(&bytes))?;
        if let Ok(image) = ProcessImage::from_stored_bytes(&bytes) {
            ok_or_codec(image.restore::<CgState>())?;
        }
    }

    /// One byte of a valid image overwritten, dropped or doubled: a count
    /// that now overstates what follows must be refused, not trusted.
    #[test]
    fn mutated_images_never_panic(
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
        op in 0u8..3,
    ) {
        let mut stored = image().to_stored_bytes().unwrap();
        let i = at.index(stored.len());
        match op {
            0 => stored[i] = byte,
            1 => drop(stored.remove(i)),
            _ => stored.insert(i, byte),
        }
        let (decoded, largest) = largest_allocation(|| ProcessImage::from_stored_bytes(&stored));
        prop_assert!(largest <= stored.len().max(256), "a {}-byte allocation", largest);
        if let Ok(image) = &decoded {
            ok_or_codec(image.restore::<CgState>())?;
        }
        ok_or_codec(decoded)?;
        let mut state = to_bytes(&cg()).unwrap();
        let i = at.index(state.len());
        state[i] = byte;
        ok_or_codec(from_bytes::<CgState>(&state))?;
        ok_or_codec(from_bytes::<Vec<f64>>(&state))?;
    }
}

/// The last byte of a stored image is reserved: written as 0, and anything
/// else is refused rather than read as a flag.
#[test]
fn a_nonzero_reserved_byte_is_a_codec_error() {
    for reserved in [1, 0xff] {
        let mut stored = image().to_stored_bytes().unwrap();
        *stored.last_mut().unwrap() = reserved;
        let decoded = ProcessImage::from_stored_bytes(&stored);
        assert!(matches!(decoded, Err(CkptError::Codec(_))), "{reserved}: {decoded:?}");
    }
}
