//! Streaming determinism fingerprints.
//!
//! A fingerprint is an incremental FNV-1a hash folded over the
//! complete simulated state — architectural (emulator memory, call
//! stack, register files) plus microarchitectural (pipeline scoreboard,
//! caches, BTB, reuse buffer) — every `window` cycles. The running
//! hash never resets, so the value sealed at each window boundary
//! *chains*: two runs agree on window `i` only if they agreed on every
//! window before it, which is what lets `ccr_analyze`'s digest
//! comparison bisect a divergence to the first bad window.
//!
//! The fold definition is fixed by [`Fold::push`]: starting from the
//! FNV-1a 64-bit offset basis, each state word `w` updates the hash as
//! `h = (h ^ w) * FNV_PRIME (mod 2^64)`. Component `fold_state`
//! methods define the word streams; changing any of them changes every
//! fingerprint and requires regenerating the committed goldens.

/// FNV-1a 64-bit offset basis (the hash of an empty stream).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Default fingerprint window in cycles.
pub const DEFAULT_FINGERPRINT_WINDOW: u64 = 65_536;

/// Incremental FNV-1a over a stream of `u64` words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fold(pub u64);

impl Fold {
    /// A fold of the empty stream.
    pub fn new() -> Fold {
        Fold(FNV_OFFSET)
    }

    /// Absorbs one word.
    #[inline]
    pub fn push(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }
}

impl Default for Fold {
    fn default() -> Fold {
        Fold::new()
    }
}

/// The hash chain value sealed at one window boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowDigest {
    /// Zero-based window index.
    pub index: u64,
    /// The cycle boundary the window was sealed at: `(index + 1) *
    /// window`. Run-invariant: boundaries depend only on the window
    /// size, never on when the observer happened to look.
    pub cycle: u64,
    /// Running chain hash after folding the full state at this
    /// boundary.
    pub hash: u64,
}

/// The per-run fingerprint stream: a running [`Fold`] plus the chain
/// of sealed [`WindowDigest`]s.
///
/// Drive it with [`FingerprintStream::observe`] after every simulated
/// step; it folds the state once per crossed window boundary (state is
/// observed at the first step on or past the boundary, which both a
/// cold run and a replay reach at the same dynamic instruction, so the
/// chains match bit for bit). Seal the run with
/// [`FingerprintStream::finalize`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FingerprintStream {
    window: u64,
    next_boundary: u64,
    fold: Fold,
    windows: Vec<WindowDigest>,
}

impl FingerprintStream {
    /// Creates a stream sealing a window every `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero.
    pub fn new(window: u64) -> FingerprintStream {
        assert!(window > 0, "fingerprint window must be nonzero");
        FingerprintStream {
            window,
            next_boundary: window,
            fold: Fold::new(),
            windows: Vec::new(),
        }
    }

    /// Rebuilds a mid-run stream from snapshot state.
    ///
    /// # Errors
    ///
    /// Returns a one-line description when the window is zero or the
    /// digest chain is not the contiguous prefix a real run produces.
    pub fn restore(
        window: u64,
        hash: u64,
        windows: Vec<WindowDigest>,
    ) -> Result<FingerprintStream, String> {
        if window == 0 {
            return Err("fingerprint window must be nonzero".to_string());
        }
        for (i, d) in windows.iter().enumerate() {
            let expect_cycle = (i as u64 + 1) * window;
            if d.index != i as u64 || d.cycle != expect_cycle {
                return Err(format!(
                    "fingerprint window {i} has index {} cycle {}, expected index {i} cycle {expect_cycle}",
                    d.index, d.cycle
                ));
            }
        }
        if let Some(last) = windows.last() {
            if last.hash != hash {
                return Err(format!(
                    "fingerprint hash {:016x} does not match last window {:016x}",
                    hash, last.hash
                ));
            }
        }
        Ok(FingerprintStream {
            window,
            next_boundary: (windows.len() as u64 + 1) * window,
            fold: Fold(hash),
            windows,
        })
    }

    /// The window size in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The running chain hash (the last sealed value, or the FNV
    /// offset basis before the first window).
    pub fn hash(&self) -> u64 {
        self.fold.0
    }

    /// The sealed window chain so far.
    pub fn windows(&self) -> &[WindowDigest] {
        &self.windows
    }

    /// True when `cycle` has reached the next unsealed boundary —
    /// cheap pre-check so callers skip the fold closure entirely on
    /// the (vastly common) non-boundary step.
    #[inline]
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.next_boundary
    }

    /// Seals every window boundary at or below `cycle`: for each one,
    /// `fold_state` is invoked to push the full state word stream into
    /// the running fold, and the resulting chain value is recorded.
    pub fn observe(&mut self, cycle: u64, mut fold_state: impl FnMut(&mut dyn FnMut(u64))) {
        while cycle >= self.next_boundary {
            let boundary = self.next_boundary;
            let mut fold = self.fold;
            fold_state(&mut |w| fold.push(w));
            self.fold = fold;
            self.windows.push(WindowDigest {
                index: self.windows.len() as u64,
                cycle: boundary,
                hash: fold.0,
            });
            self.next_boundary += self.window;
        }
    }

    /// Folds the final state once (no window is sealed — the run ended
    /// between boundaries) and returns the final chain hash.
    pub fn finalize(&mut self, fold_state: impl FnOnce(&mut dyn FnMut(u64))) -> u64 {
        let mut fold = self.fold;
        fold_state(&mut |w| fold.push(w));
        self.fold = fold;
        self.fold.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_matches_reference_fnv1a() {
        let mut f = Fold::new();
        assert_eq!(f.0, FNV_OFFSET);
        f.push(0);
        assert_eq!(f.0, FNV_OFFSET.wrapping_mul(FNV_PRIME));
        let mut g = Fold::new();
        for w in [1u64, u64::MAX, 42] {
            g.push(w);
        }
        let mut h = FNV_OFFSET;
        for w in [1u64, u64::MAX, 42] {
            h = (h ^ w).wrapping_mul(FNV_PRIME);
        }
        assert_eq!(g.0, h);
    }

    #[test]
    fn boundaries_are_run_invariant() {
        // Two observers with different step granularities seal the
        // same chain as long as they see the same states at each
        // boundary crossing.
        let state = |push: &mut dyn FnMut(u64)| push(7);
        let mut a = FingerprintStream::new(10);
        for c in 0..35 {
            a.observe(c, state);
        }
        let mut b = FingerprintStream::new(10);
        b.observe(34, state); // jumps three boundaries at once
        assert_eq!(a.windows(), b.windows());
        assert_eq!(a.windows().len(), 3);
        assert_eq!(a.windows()[2].cycle, 30);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn chain_detects_any_prefix_change() {
        let mut a = FingerprintStream::new(5);
        let mut b = FingerprintStream::new(5);
        a.observe(5, |push| push(1));
        b.observe(5, |push| push(2));
        a.observe(10, |push| push(3));
        b.observe(10, |push| push(3));
        // Same state in window 1, but the chains differ forever after
        // the window-0 divergence.
        assert_ne!(a.windows()[1].hash, b.windows()[1].hash);
    }

    #[test]
    fn restore_resumes_the_chain() {
        let mut cold = FingerprintStream::new(8);
        cold.observe(8, |push| push(11));
        let resumed = FingerprintStream::restore(8, cold.hash(), cold.windows().to_vec()).unwrap();
        let mut cold2 = cold.clone();
        let mut warm = resumed;
        cold2.observe(16, |push| push(13));
        warm.observe(16, |push| push(13));
        assert_eq!(cold2.windows(), warm.windows());
        assert_eq!(
            cold2.finalize(|push| push(99)),
            warm.finalize(|push| push(99))
        );
    }

    #[test]
    fn restore_rejects_inconsistent_chains() {
        let bad = vec![WindowDigest {
            index: 0,
            cycle: 9,
            hash: 1,
        }];
        let err = FingerprintStream::restore(8, 1, bad).unwrap_err();
        assert!(err.contains("expected index 0 cycle 8"), "{err}");
        let err = FingerprintStream::restore(0, FNV_OFFSET, Vec::new()).unwrap_err();
        assert!(err.contains("nonzero"), "{err}");
        let chain = vec![WindowDigest {
            index: 0,
            cycle: 8,
            hash: 5,
        }];
        let err = FingerprintStream::restore(8, 6, chain).unwrap_err();
        assert!(err.contains("does not match last window"), "{err}");
    }

    #[test]
    fn finalize_differs_from_last_window() {
        let mut s = FingerprintStream::new(4);
        s.observe(4, |push| push(1));
        let sealed = s.hash();
        let fin = s.finalize(|push| push(1));
        assert_ne!(sealed, fin, "final fold must extend the chain");
    }
}
