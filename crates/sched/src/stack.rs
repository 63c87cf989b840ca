//! Heap-allocated coroutine stacks.
//!
//! Plain `alloc`-backed slabs, 16-byte aligned, with a canary word at the
//! low end. There are no guard pages (the workspace is `std`-only, no
//! libc mmap), so overflow detection is best-effort: the canary is
//! checked every time a task parks or finishes, and a clobbered canary
//! aborts the process immediately — continuing after an overflow would
//! corrupt an adjacent allocation and silently break the determinism
//! contract, which is strictly worse than dying loudly.
//!
//! Builds with `debug_assertions` also measure what the slabs are for:
//! `Stack::new` paints the slab with one byte value, and
//! [`Stack::high_water`] finds the deepest byte that no longer holds it
//! once the task is done. The pool reports the maximum as the profiler's
//! `stack_high_water` counter. Release builds neither paint nor scan.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};

const CANARY: usize = 0x5ed0_c0de_dead_57ac;
const ALIGN: usize = 16;

/// The byte a fresh slab is painted with in debug builds.
#[cfg(debug_assertions)]
const PAINT: u8 = 0xa5;

/// Minimum stack we will ever hand a task, however `REDCR_STACK_KB` is set:
/// 64 KiB, above the deepest use measured in a debug build (48 920 B).
pub(crate) const MIN_STACK_BYTES: usize = 64 * 1024;

/// Default per-task stack: 128 KiB. The deepest stack the tests measure
/// (the profiler's `stack_high_water`, debug builds) was 48 920 B, and a
/// release build of the same probe read 15 244 B: a margin of about 2.7×
/// and 8.6×. `tests/profiler_gate.rs` fails if the gate scenario's
/// high-water reaches half of this. Keeping the default this small lets
/// a 4096-rank world fit its stacks in half a GiB. Deep-stack experiments
/// can raise it with `REDCR_STACK_KB=1024`. Note the failure mode if this
/// is ever set too low: a canary *abort* on park/exit (best-effort, after
/// the fact) — not a guard-page fault at the overflowing write, because
/// these are plain heap slabs.
pub const DEFAULT_STACK_BYTES: usize = 128 * 1024;

/// One owned coroutine stack.
#[derive(Debug)]
pub(crate) struct Stack {
    base: *mut u8,
    layout: Layout,
}

// The stack is exclusively owned by its task; the pool moves tasks across
// worker threads only while no frame on the stack is live on any other
// thread (the task is frozen inside `redcr_ctx_switch`).
unsafe impl Send for Stack {}
unsafe impl Sync for Stack {}

impl Stack {
    pub(crate) fn new(bytes: usize) -> Stack {
        let size = bytes.max(MIN_STACK_BYTES) & !(ALIGN - 1);
        let layout = match Layout::from_size_align(size, ALIGN) {
            Ok(l) => l,
            // Unreachable: `size` is a multiple of ALIGN and callers keep it
            // at most isize::MAX (`stack_bytes_from_kb` rejects larger).
            Err(_) => std::process::abort(),
        };
        let base = unsafe { alloc(layout) };
        if base.is_null() {
            handle_alloc_error(layout);
        }
        // SAFETY: `base` is a fresh allocation of `size` bytes.
        #[cfg(debug_assertions)]
        unsafe {
            base.write_bytes(PAINT, size)
        };
        unsafe { (base as *mut usize).write(CANARY) };
        Stack { base, layout }
    }

    /// One-past-the-end address; stacks grow downward from here.
    pub(crate) fn top(&self) -> *mut u8 {
        unsafe { self.base.add(self.layout.size()) }
    }

    /// Aborts the process if the low-end canary was overwritten, i.e. the
    /// task's frames grew past the end of its slab.
    pub(crate) fn check_canary(&self) {
        let live = unsafe { (self.base as *const usize).read() };
        if live != CANARY {
            eprintln!(
                "redcr-sched: coroutine stack overflow detected ({} KiB slab); \
                 raise REDCR_STACK_KB",
                self.layout.size() / 1024
            );
            std::process::abort();
        }
    }

    /// Bytes of the slab the task wrote: from the top down to the deepest
    /// byte that no longer holds the paint. Call it once the task is done
    /// (no frame of it is live); a write of the paint value itself goes
    /// unseen, so the figure can fall short by a few bytes.
    #[cfg(debug_assertions)]
    pub(crate) fn high_water(&self) -> usize {
        const CHUNK: usize = 512;
        let size = self.layout.size();
        let canary = std::mem::size_of::<usize>();
        // SAFETY: the slab is `size` initialized bytes (painted at `new`),
        // and the finished task no longer writes to it.
        let slab = unsafe { std::slice::from_raw_parts(self.base.add(canary), size - canary) };
        let painted = [PAINT; CHUNK];
        // Whole chunks first (a `memcmp` each), then bytes in the first
        // chunk that differs.
        let deepest = slab
            .chunks(CHUNK)
            .enumerate()
            .find(|(_, c)| *c != &painted[..c.len()])
            .and_then(|(k, c)| c.iter().position(|&b| b != PAINT).map(|i| k * CHUNK + i));
        deepest.map_or(0, |offset| size - canary - offset)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        unsafe { dealloc(self.base, self.layout) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_is_aligned_and_canaried() {
        let s = Stack::new(64 * 1024);
        assert_eq!(s.top() as usize % ALIGN, 0);
        assert_eq!(s.top() as usize - s.base as usize, 64 * 1024);
        s.check_canary();
    }

    #[test]
    fn tiny_request_is_clamped_to_minimum() {
        let s = Stack::new(1);
        assert_eq!(s.top() as usize - s.base as usize, MIN_STACK_BYTES);
        assert_eq!(MIN_STACK_BYTES, 64 * 1024);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn high_water_is_the_deepest_byte_written() {
        let s = Stack::new(64 * 1024);
        assert_eq!(s.high_water(), 0, "a fresh slab is all paint");
        // SAFETY: 1 and 3000 bytes below the top of a 64 KiB slab are
        // inside it, above the canary, and nothing else uses the slab.
        unsafe { s.top().sub(1).write(0) };
        assert_eq!(s.high_water(), 1);
        // SAFETY: as above.
        unsafe { s.top().sub(3000).write(!PAINT) };
        assert_eq!(s.high_water(), 3000);
        s.check_canary();
    }
}
