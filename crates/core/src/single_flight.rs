//! Single-flight memoization: the one lookup loop behind every memo
//! of the program — compile units, value profiles and reiteration
//! trials ([`crate::compile::TrainProfile`]), and the simulation
//! results and reuse-potential studies of `ccr-bench`'s engine.

use std::collections::HashSet;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use ccr_telemetry::Counter;

/// A mutex-guarded store `S` plus the set of keys some thread is
/// currently computing. A lookup that misses marks its key pending and
/// computes outside the lock; concurrent lookups of a pending key
/// block until it lands and then count as hits. So each key computes
/// once no matter how many threads want it, and the hit/miss totals
/// are deterministic. Errors are never stored: waiters on a failed
/// (or panicked) computation retry with their own.
#[derive(Default)]
pub struct SingleFlight<S> {
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
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Runs `f` on the store under the lock.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.state.lock().expect("single-flight lock").store)
    }

    /// Returns `lookup`'s hit for `key`, else runs `compute` (once
    /// across all concurrent callers of `key`) and hands a successful
    /// value to `insert` before returning it.
    ///
    /// # Errors
    ///
    /// Returns `compute`'s error without storing it.
    pub fn get_or_run<T, E>(
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
        let pending = self.claim(state, key);
        let result = compute();
        if let Ok(value) = &result {
            pending.store(|s| insert(s, value));
        }
        result
    }

    /// The non-blocking half of [`SingleFlight::get_or_run`], for a
    /// caller that computes several keys at once: `lookup`'s hit for
    /// `key` (a hit), else the key marked pending for this caller (a
    /// miss), else [`Claim::Busy`] when another caller is computing it
    /// (counted neither way: the caller looks it up again once its own
    /// claims are released, so it never waits while holding one).
    pub fn try_claim<'a, T>(
        &'a self,
        key: &'a str,
        lookup: impl FnOnce(&mut S) -> Option<T>,
    ) -> Claim<'a, S, T> {
        let mut state = self.state.lock().expect("single-flight lock");
        if let Some(hit) = lookup(&mut state.store) {
            self.hits.inc();
            return Claim::Ready(hit);
        }
        if state.pending.contains(key) {
            return Claim::Busy;
        }
        Claim::Mine(self.claim(state, key))
    }

    /// Marks `key` pending for the caller and counts the miss.
    fn claim<'a>(&'a self, mut state: MutexGuard<'_, Flight<S>>, key: &'a str) -> Pending<'a, S> {
        state.pending.insert(key.to_string());
        self.misses.inc();
        Pending { flight: self, key }
    }
}

/// What [`SingleFlight::try_claim`] found.
pub enum Claim<'a, S, T> {
    /// The key's stored value.
    Ready(T),
    /// The key is now pending for this caller.
    Mine(Pending<'a, S>),
    /// Another caller is computing the key.
    Busy,
}

/// Clears a pending key and wakes its waiters when dropped — after the
/// value is stored, after an error, and during unwinding if the
/// computation panicked, so a panic cannot leave waiters blocked
/// forever.
pub struct Pending<'a, S> {
    flight: &'a SingleFlight<S>,
    key: &'a str,
}

impl<S> Pending<'_, S> {
    /// Stores the computed value with `insert`, then releases the key.
    pub fn store(self, insert: impl FnOnce(&mut S)) {
        insert(&mut self.flight.state.lock().expect("single-flight lock").store);
    }
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
