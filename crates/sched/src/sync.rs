//! The workspace's two blocking primitives: a [`Mutex`] and a [`Condvar`]
//! that do not poison, and that check how they are used.
//!
//! Every lock in the workspace goes through this module — `clippy.toml`
//! bans the std lock calls everywhere but in `redcr-prof`, which sits
//! below this crate — so whoever wants to interpose on acquire,
//! release, wait and notify (a seeded schedule chooser, a sanitizer
//! annotation) has one file to change. A rank closure that panics while
//! holding a lock is reported as that rank's `Err`, and the other ranks
//! must still be able to take the lock to drain out — every structure
//! guarded here is valid between any two statements that mutate it, so
//! the data behind a poisoned lock is safe to keep using.
//!
//! # The lock discipline, checked
//!
//! Every lock is a leaf: a thread holds at most one at a time, and a
//! scheduler task holds none when it parks or yields. In builds with
//! `debug_assertions` (every `cargo test` that is not `--release`) both
//! are assertions. [`Mutex::lock`] records the class of the lock it takes
//! — the type it guards, `std::any::type_name::<T>()` — in a thread-local
//! cell that the guard's drop clears; a second `lock` while the cell is
//! set panics and names both classes, before it could block on either;
//! and `park_current` / `yield_now` panic if the cell is set. The
//! thread-local cell is enough because a task moves to another worker
//! thread only by parking or yielding. [`Condvar::wait`] also panics when
//! its caller is a coroutine task: the wait would block the worker thread
//! and every task queued on it. A threads-backend task and an idle worker
//! own their thread and may wait. Release builds keep none of this: the
//! guard is the `std` guard and nothing else.
//!
//! Calls into `std` are spelled with their full path: the wrappers share
//! their names and method names with what they wrap, and the path says
//! which one is meant.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

use crate::pool::assert_not_on_coroutine;

#[cfg(debug_assertions)]
thread_local! {
    /// The class of the lock this thread holds, if any.
    static HELD: std::cell::Cell<Option<&'static str>> = const { std::cell::Cell::new(None) };
}

/// Reads this thread's held-lock cell. Never inlined, for the reason
/// `pool::context` is not: a task can resume on another thread after a
/// park, and a caller must not reuse the first thread's TLS address.
#[cfg(debug_assertions)]
#[inline(never)]
fn held() -> Option<&'static str> {
    HELD.with(std::cell::Cell::get)
}

#[cfg(debug_assertions)]
#[inline(never)]
fn set_held(class: Option<&'static str>) {
    HELD.with(|cell| cell.set(class));
}

/// Panics if this thread holds a lock; `what` names the operation that
/// must not happen under one. A no-op in release builds.
pub(crate) fn assert_unlocked(what: &str) {
    #[cfg(debug_assertions)]
    {
        let class = held();
        assert!(
            class.is_none(),
            "redcr-sched: {what} while holding a `{}` lock",
            class.unwrap_or_default()
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = what;
}

/// A guard's claim on this thread's held-lock cell: taken by `lock`,
/// given back when the guard drops. A unit value in release builds.
struct Held;

impl Held {
    fn take(class: &'static str) -> Held {
        #[cfg(debug_assertions)]
        {
            let outer = held();
            assert!(
                outer.is_none(),
                "redcr-sched: nested lock: `{class}` taken while `{}` is held \
                 (every workspace lock is a leaf)",
                outer.unwrap_or_default()
            );
            set_held(Some(class));
        }
        #[cfg(not(debug_assertions))]
        let _ = class;
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        set_held(None);
    }
}

/// The guard [`Mutex::lock`] returns; the lock is released when it drops.
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A mutual-exclusion lock whose `lock` always succeeds.
#[derive(Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates an unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Blocks until the lock is held. A panic in an earlier holder is
    /// ignored (see the module docs).
    ///
    /// # Panics
    ///
    /// In debug builds, when this thread already holds a lock of this
    /// module (see the module docs).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = Held::take(std::any::type_name::<T>());
        #[expect(clippy::disallowed_methods, reason = "the one std lock call: this is the wrapper")]
        let inner = std::sync::Mutex::lock(&self.0).unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, _held: held }
    }

    /// Consumes the mutex and returns the value.
    pub fn into_inner(self) -> T {
        std::sync::Mutex::into_inner(self.0).unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A condition variable for guards of [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a condition variable with no waiters.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Releases `guard`'s lock, sleeps until notified, and returns with the
    /// lock held again. Wakeups may be spurious: call it in a loop that
    /// re-checks the awaited condition. The thread counts as holding the
    /// lock throughout: it runs nothing else while it sleeps.
    ///
    /// # Panics
    ///
    /// In debug builds, when the caller is a coroutine task: the wait
    /// would block its worker thread and every task queued there. A task
    /// parks on its [`crate::Waker`] instead; a threads-backend task and
    /// an idle worker own their thread and may wait.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        assert_not_on_coroutine("Condvar::wait");
        let MutexGuard { inner, _held } = guard;
        #[expect(
            clippy::disallowed_methods,
            reason = "the one std wait call: this is the wrapper, and the line above refuses a coroutine caller"
        )]
        let inner =
            std::sync::Condvar::wait(&self.0, inner).unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, _held }
    }

    /// Wakes one waiter, if any.
    pub fn notify_one(&self) {
        std::sync::Condvar::notify_one(&self.0);
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        std::sync::Condvar::notify_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicked_holder_does_not_poison() {
        let m = Mutex::new(1);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = m.lock();
                panic!("holder dies");
            })
            .join()
        });
        assert!(panicked.is_err());
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn wait_returns_once_the_condition_holds() {
        let (m, cv) = (Mutex::new(false), Condvar::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                *m.lock() = true;
                cv.notify_all();
            });
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
        });
        assert!(*m.lock());
    }

    /// The text of a caught panic.
    #[cfg(debug_assertions)]
    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast::<&str>().map(|s| (*s).to_owned()).unwrap_or_default(),
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_nested_lock_panics_and_names_both_classes() {
        struct Outer;
        struct Inner;
        let (outer, inner) = (Mutex::new(Outer), Mutex::new(Inner));
        let payload = std::panic::catch_unwind(|| {
            let _o = outer.lock();
            let _i = inner.lock();
        })
        .expect_err("a nested lock must panic");
        let text = message(payload);
        assert!(text.contains("nested lock"), "{text}");
        assert!(text.contains("::Inner` taken while `"), "{text}");
        assert!(text.contains("::Outer` is held"), "{text}");
        // The unwind dropped the outer guard, and with it the claim: both
        // locks can be taken again, one after the other.
        drop(outer.lock());
        drop(inner.lock());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_guard_kept_across_a_wait_still_counts_and_is_released_once() {
        let (m, cv) = (Mutex::new(0u8), Condvar::new());
        let g = m.lock();
        assert!(std::panic::catch_unwind(|| assert_unlocked("a check")).is_err());
        drop(g);
        assert_unlocked("a check");
        std::thread::scope(|s| {
            s.spawn(|| {
                *m.lock() = 1;
                cv.notify_all();
            });
            let mut g = m.lock();
            while *g == 0 {
                g = cv.wait(g);
            }
            assert!(std::panic::catch_unwind(|| assert_unlocked("a check")).is_err());
        });
        assert_unlocked("after the wait's guard dropped");
    }
}
