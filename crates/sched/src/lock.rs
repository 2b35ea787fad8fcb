//! The engine's mutexes. Teardown keeps locking while a panicking thread
//! unwinds, so [`Lock`] and [`Leaf`] hand out the guard recovered from
//! poisoning: there is no `Result` to unwrap, and no panic within a panic.
//!
//! A [`Guard`] mutably borrows its thread's [`Unlocked`] token while it
//! lives, and the only blocking helpers, [`sleep`] and [`join_all`], take
//! the token too: a guard alive at either is E0499. A guard parks only in
//! [`Lock::wait`], which releases the lock. `crates/sched/clippy.toml`
//! disallows the std calls the helpers wrap, `Receiver::recv`, and
//! [`Unlocked::mint`] outside sanctioned sites. [`Leaf`], the trace ring's
//! lock, is recorded into under the state guard, so it takes no token; its
//! guard never leaves [`Leaf::with`]'s closure.

#![allow(clippy::disallowed_types, reason = "the sanctioned Mutex wrappers")]

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Proof that this thread holds no [`Guard`]. Zero-sized, not `Clone`.
pub struct Unlocked(());

impl Unlocked {
    /// A token for a thread that provably holds no guard.
    pub fn mint() -> Unlocked {
        Unlocked(())
    }
}

/// A mutex whose guard survives poisoning and borrows the thread's token.
#[derive(Debug)]
pub struct Lock<T>(Mutex<T>);

/// A held [`Lock`]: it borrows the thread's [`Unlocked`] token until dropped.
pub struct Guard<'a, T>(MutexGuard<'a, T>, PhantomData<&'a mut Unlocked>);

impl<T> Deref for Guard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T> Lock<T> {
    pub fn new(value: T) -> Lock<T> {
        Lock(Mutex::new(value))
    }

    /// Locks, recovering the guard if another thread panicked holding it.
    /// Teardown joining the pool with the guard alive does not compile, and
    /// does once the guard is dropped:
    ///
    /// ```compile_fail
    /// # use megis_sched::lock::{join_all, Lock, Unlocked};
    /// let (lock, mut token) = (Lock::new(false), Unlocked::mint());
    /// let stopping = lock.lock(&mut token);
    /// join_all(&mut token, [std::thread::spawn(|| ())]);
    /// ```
    ///
    /// ```
    /// # use megis_sched::lock::{join_all, Lock, Unlocked};
    /// let (lock, mut token) = (Lock::new(false), Unlocked::mint());
    /// let stopping = lock.lock(&mut token);
    /// drop(stopping);
    /// join_all(&mut token, [std::thread::spawn(|| ())]);
    /// ```
    ///
    /// Nor does a dwell's sleep, until the drop:
    ///
    /// ```compile_fail
    /// # use megis_sched::lock::{sleep, Lock, Unlocked};
    /// let (lock, mut token) = (Lock::new(0), Unlocked::mint());
    /// let state = lock.lock(&mut token);
    /// sleep(&mut token, std::time::Duration::from_millis(1));
    /// ```
    ///
    /// ```
    /// # use megis_sched::lock::{sleep, Lock, Unlocked};
    /// let (lock, mut token) = (Lock::new(0), Unlocked::mint());
    /// let state = lock.lock(&mut token);
    /// drop(state);
    /// sleep(&mut token, std::time::Duration::from_millis(1));
    /// ```
    pub fn lock<'a>(&'a self, _token: &'a mut Unlocked) -> Guard<'a, T> {
        let inner = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        Guard(inner, PhantomData)
    }

    /// Parks on `ready` with the lock released, and returns the guard
    /// re-taken, recovered from poisoning like [`Lock::lock`].
    pub fn wait<'a>(&self, ready: &Condvar, guard: Guard<'a, T>) -> Guard<'a, T> {
        self.wait_until(ready, guard, None)
    }

    /// [`Lock::wait`], parked no later than `deadline` if there is one.
    pub fn wait_until<'a>(
        &self,
        ready: &Condvar,
        guard: Guard<'a, T>,
        deadline: Option<Instant>,
    ) -> Guard<'a, T> {
        let inner = match deadline {
            None => ready.wait(guard.0).unwrap_or_else(PoisonError::into_inner),
            Some(at) => {
                let timeout = at.saturating_duration_since(Instant::now());
                let waited = ready.wait_timeout(guard.0, timeout);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
        };
        Guard(inner, guard.1)
    }
}

/// Blocks this thread, which holds no guard, for `duration`.
#[expect(clippy::disallowed_methods, reason = "the token-checked sleep")]
pub fn sleep(_token: &mut Unlocked, duration: Duration) {
    thread::sleep(duration);
}

/// Joins `handles` in order, from a thread that holds no guard.
#[expect(clippy::disallowed_methods, reason = "the token-checked join")]
pub fn join_all<T>(
    _token: &mut Unlocked,
    handles: impl IntoIterator<Item = JoinHandle<T>>,
) -> Vec<thread::Result<T>> {
    handles.into_iter().map(JoinHandle::join).collect()
}

/// A mutex whose guard lives only inside [`Leaf::with`]'s closure, and
/// survives poisoning like [`Lock`]'s.
#[derive(Debug)]
pub struct Leaf<T>(Mutex<T>);

impl<T> Leaf<T> {
    pub fn new(value: T) -> Leaf<T> {
        Leaf(Mutex::new(value))
    }

    /// Runs `f` on the locked value.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A test thread's token: a test starts holding no guard.
#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "a test starts with no guard")]
pub(crate) fn test_token() -> Unlocked {
    Unlocked::mint()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_poisoned_lock_still_locks_and_waits() {
        let lock = Arc::new(Lock::new(0u32));
        let panicked = std::panic::catch_unwind(|| {
            let mut token = test_token();
            *lock.lock(&mut token) = 1;
            let _held = lock.lock(&mut token);
            panic!("poison the lock while holding its guard");
        });
        assert!(panicked.is_err(), "the holder panicked");
        assert!(lock.0.is_poisoned());

        let mut token = test_token();
        let mut value = lock.lock(&mut token);
        assert_eq!(*value, 1, "the panicking holder's write survives");
        // The condvar wait hands the guard back through the poison too.
        let ready = Arc::new(Condvar::new());
        let waker = {
            let (lock, ready) = (Arc::clone(&lock), Arc::clone(&ready));
            thread::spawn(move || {
                *lock.lock(&mut test_token()) = 2;
                ready.notify_all();
            })
        };
        while *value != 2 {
            value = lock.wait(&ready, value);
        }
        drop(value);
        assert!(join_all(&mut token, [waker]).iter().all(Result::is_ok));

        // The trace ring's leaf lock recovers the same way.
        let leaf = Leaf::new(0u32);
        let panicked = std::panic::catch_unwind(|| {
            leaf.with(|value| {
                *value = 1;
                panic!("poison the leaf inside its closure");
            })
        });
        assert!(panicked.is_err(), "the closure panicked");
        assert!(leaf.0.is_poisoned());
        assert_eq!(leaf.with(|value| *value), 1, "the write survives");
    }

    #[test]
    fn the_crate_clippy_file_repeats_the_root_one() {
        // Clippy reads only the nearest clippy.toml, so an entry of the
        // root file missing here is a check megis-sched silently loses.
        let root = include_str!("../../../clippy.toml");
        let local = include_str!("../clippy.toml");
        let paths = |file: &'static str| -> Vec<&'static str> {
            file.split("path = \"")
                .skip(1)
                .filter_map(|rest| rest.split('"').next())
                .collect()
        };
        let test_keys = |file: &'static str| -> Vec<&'static str> {
            file.lines()
                .map(str::trim)
                .filter(|line| line.starts_with("allow-") && line.contains("-in-tests"))
                .collect()
        };
        let (root_paths, root_keys) = (paths(root), test_keys(root));
        assert!(
            root_paths.len() >= 3 && root_keys.len() >= 3,
            "parsed the root file"
        );
        for path in root_paths {
            assert!(paths(local).contains(&path), "{path} is missing here");
        }
        for key in root_keys {
            assert!(test_keys(local).contains(&key), "{key} is missing here");
        }
        assert!(paths(local).contains(&"megis_sched::lock::Unlocked::mint"));
    }
}
