//! The engine's one mutex type.
//!
//! A pipeline thread that panics poisons every `std::sync::Mutex` it held.
//! The engine reports that failure through its own poison flag (set by the
//! service's panic guard, and checked by every waiter) and keeps tearing
//! down, so a lock taken during that unwind must still hand out its guard:
//! an `.unwrap()` there would panic within the panic and abort the
//! process. [`Lock`] makes the recovery the only way in — its `lock`
//! returns the guard itself, so there is no `Result` to unwrap — and
//! clippy's `disallowed_types` (`clippy.toml`) rejects a bare
//! `std::sync::Mutex` or `RwLock` anywhere else in the workspace.

#![allow(
    clippy::disallowed_types,
    reason = "the one sanctioned wrapper around std::sync::Mutex"
)]

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A mutex whose guard survives poisoning.
#[derive(Debug)]
pub(crate) struct Lock<T>(Mutex<T>);

impl<T> Lock<T> {
    pub(crate) fn new(value: T) -> Lock<T> {
        Lock(Mutex::new(value))
    }

    /// Locks, recovering the guard if another thread panicked holding it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks on `ready` with `guard` released, and returns the guard
    /// re-taken, recovered from poisoning like [`Lock::lock`].
    pub(crate) fn wait<'a>(&self, ready: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        ready.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Lock::wait`], parked no later than `deadline` if there is one.
    pub(crate) fn wait_until<'a>(
        &self,
        ready: &Condvar,
        guard: MutexGuard<'a, T>,
        deadline: Option<Instant>,
    ) -> MutexGuard<'a, T> {
        let Some(at) = deadline else {
            return self.wait(ready, guard);
        };
        let timeout = at.saturating_duration_since(Instant::now());
        ready
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn a_poisoned_lock_still_locks_and_waits() {
        let lock = Arc::new(Lock::new(0u32));
        let panicked = std::panic::catch_unwind(|| {
            *lock.lock() = 1;
            let _held = lock.lock();
            panic!("poison the lock while holding its guard");
        });
        assert!(panicked.is_err(), "the holder panicked");
        assert!(lock.0.is_poisoned());

        let mut value = lock.lock();
        assert_eq!(*value, 1, "the panicking holder's write survives");
        // The condvar wait hands the guard back through the poison too.
        let ready = Arc::new(Condvar::new());
        let waker = {
            let (lock, ready) = (Arc::clone(&lock), Arc::clone(&ready));
            thread::spawn(move || {
                *lock.lock() = 2;
                ready.notify_all();
            })
        };
        while *value != 2 {
            value = lock.wait(&ready, value);
        }
        drop(value);
        assert!(waker.join().is_ok());
    }
}
