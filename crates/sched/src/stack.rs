//! Heap-allocated coroutine stacks.
//!
//! Plain `alloc`-backed slabs, 16-byte aligned, with a canary word at the
//! low end. There are no guard pages (the workspace is `std`-only, no
//! libc mmap), so overflow detection is best-effort: the canary is
//! checked every time a task parks or finishes, and a clobbered canary
//! aborts the process immediately — continuing after an overflow would
//! corrupt an adjacent allocation and silently break the determinism
//! contract, which is strictly worse than dying loudly.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};

const CANARY: usize = 0x5ed0_c0de_dead_57ac;
const ALIGN: usize = 16;

/// Minimum stack we will ever hand a task, however `REDCR_STACK_KB` is set.
pub(crate) const MIN_STACK_BYTES: usize = 32 * 1024;

/// Default per-task stack: 128 KiB. detlint's R9 pass bounds every
/// coroutine root's deepest call chain at under 8 KiB of *estimated*
/// frames, but the deepest stack actually written (a probe filling each
/// slab with a pattern and finding the deepest overwritten byte at drop)
/// was 15 244 B in a release build and 48 920 B in a debug one: a margin
/// of about 8.6× and 2.7×. Keeping the default this small lets a
/// 4096-rank world fit its stacks in half a GiB. Deep-stack
/// experiments can restore the old default with `REDCR_STACK_KB=1024`.
/// Note the failure mode if this is ever set too low: a canary *abort*
/// on park/exit (best-effort, after the fact) — not a guard-page fault
/// at the overflowing write, because these are plain heap slabs.
pub(crate) const DEFAULT_STACK_BYTES: usize = 128 * 1024;

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
        assert!(s.top() as usize - s.base as usize >= MIN_STACK_BYTES);
    }
}
