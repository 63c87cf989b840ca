//! The workspace's two blocking primitives: a [`Mutex`] and a [`Condvar`]
//! that do not poison.
//!
//! Every lock in `sched`, `simmpi`, `trace`, `metrics` and `checkpoint`
//! goes through this module, so whoever wants to interpose on acquire,
//! release, wait and notify (a seeded schedule chooser, a sanitizer
//! annotation) has one file to change. Today it is `std::sync` minus
//! poisoning: a rank closure that panics while holding a lock is reported
//! as that rank's `Err`, and the other ranks must still be able to take
//! the lock to drain out — every structure guarded here is valid between
//! any two statements that mutate it, so the data behind a poisoned lock
//! is safe to keep using.
//!
//! Calls into `std` are spelled with their full path: the wrappers share
//! their names and method names with what they wrap, and the path says
//! which one is meant — to the reader and to detlint's call graph, which
//! resolves `Type::method` by name.

use std::fmt;
use std::sync::PoisonError;

/// The guard [`Mutex::lock`] returns; the lock is released when it drops.
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

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
    pub fn lock(&self) -> MutexGuard<'_, T> {
        std::sync::Mutex::lock(&self.0).unwrap_or_else(PoisonError::into_inner)
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
    /// re-checks the awaited condition.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        std::sync::Condvar::wait(&self.0, guard).unwrap_or_else(PoisonError::into_inner)
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
}
