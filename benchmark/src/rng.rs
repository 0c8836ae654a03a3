//! Seeded draws. Every random choice the benchmark makes comes from a
//! [`Rng`] built from `--seed` and a per-workload salt, so one seed
//! always yields the same inputs.

/// SplitMix64: tiny, fast, and good enough for picking inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `salt` (the workload
    /// name) so two workloads with the same seed draw differently.
    pub fn new(seed: u64, salt: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in salt.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Index drawn in proportion to `weights` (not all zero).
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights
            .iter()
            .rposition(|w| *w > 0.0)
            .expect("some weight is positive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> Vec<u64> {
        let mut r = Rng::new(seed, "design-space");
        (0..16).map(|_| r.next_u64()).collect()
    }

    #[test]
    fn draws_repeat_for_a_seed_and_change_with_it() {
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
        let mut a = Rng::new(1, "serve");
        let mut b = Rng::new(1, "compile-grid");
        assert_ne!(a.next_u64(), b.next_u64(), "salts decorrelate workloads");
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut r = Rng::new(7, "t");
        let mut v: Vec<usize> = (0..10).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        for _ in 0..1000 {
            assert!(r.below(3) < 3);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert_eq!(r.weighted(&[0.0, 1.0, 0.0]), 1);
        }
    }
}
