//! Single-flight memoization: the lookup loop shared by the compile
//! cache and the simulation-result cache.

use std::collections::HashSet;
use std::sync::{Condvar, Mutex, PoisonError};

use ccr_core::telemetry::Counter;

/// A mutex-guarded store `S` plus the set of keys some thread is
/// currently computing. A lookup that misses marks its key pending and
/// computes outside the lock; concurrent lookups of a pending key
/// block until it lands and then count as hits. So each key computes
/// once no matter how many threads want it, and the hit/miss totals
/// are deterministic. Errors are never stored: waiters on a failed
/// (or panicked) computation retry with their own.
#[derive(Default)]
pub(crate) struct SingleFlight<S> {
    state: Mutex<Flight<S>>,
    cv: Condvar,
    hits: Counter,
    misses: Counter,
}

#[derive(Default)]
struct Flight<S> {
    store: S,
    pending: HashSet<String>,
}

impl<S> SingleFlight<S> {
    /// Lookups served from the store, including those that waited out
    /// another thread's computation.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that had to compute.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Runs `f` on the store under the lock.
    pub(crate) fn with_store<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.state.lock().expect("single-flight lock").store)
    }

    /// Returns `lookup`'s hit for `key`, else runs `compute` (once
    /// across all concurrent callers of `key`) and hands a successful
    /// value to `insert` before returning it.
    ///
    /// # Errors
    ///
    /// Returns `compute`'s error without storing it.
    pub(crate) fn get_or_run<T, E>(
        &self,
        key: &str,
        mut lookup: impl FnMut(&mut S) -> Option<T>,
        compute: impl FnOnce() -> Result<T, E>,
        insert: impl FnOnce(&mut S, &T),
    ) -> Result<T, E> {
        let mut state = self.state.lock().expect("single-flight lock");
        loop {
            if let Some(hit) = lookup(&mut state.store) {
                self.hits.inc();
                return Ok(hit);
            }
            if !state.pending.contains(key) {
                break;
            }
            state = self.cv.wait(state).expect("single-flight lock");
        }
        state.pending.insert(key.to_string());
        self.misses.inc();
        drop(state);
        let _pending = Pending { flight: self, key };
        let result = compute();
        if let Ok(value) = &result {
            insert(
                &mut self.state.lock().expect("single-flight lock").store,
                value,
            );
        }
        result
    }
}

/// Clears a pending key and wakes its waiters when dropped — after the
/// value is stored, after an error, and during unwinding if the
/// computation panicked, so a panic cannot leave waiters blocked
/// forever.
struct Pending<'a, S> {
    flight: &'a SingleFlight<S>,
    key: &'a str,
}

impl<S> Drop for Pending<'_, S> {
    fn drop(&mut self) {
        // Removing a key leaves the set valid whatever state a
        // poisoning panic interrupted, and `Drop` must not panic.
        let mut state = self
            .flight
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.pending.remove(self.key);
        drop(state);
        self.flight.cv.notify_all();
    }
}
