//! Deterministic pseudo-random number generators.
//!
//! Every stochastic decision in the simulator (weight initialisation, data
//! generation, client sampling, bandwidth draws, mini-batch shuffling) flows
//! through these generators so that a single `u64` experiment seed fully
//! determines the run.

/// Minimal RNG interface used by the rest of the workspace.
pub trait Rng {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    fn next_f32(&mut self) -> f32 {
        // A draw within 2^-25 of 1 rounds up to 1.0 in `f32`; keep it below.
        (self.next_f64() as f32).min(1.0 - f32::EPSILON / 2.0)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    fn next_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_below(0) is undefined");
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // ranges used here (n << 2^64) and determinism matters more.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    fn next_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi > lo, "empty range");
        lo + self.next_below(hi - lo)
    }

    /// Bernoulli draw with probability `p`.
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` without replacement
    /// (partial Fisher–Yates). Panics if `k > n`.
    fn sample_without_replacement(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} items from a population of {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.next_range(i, n);
            idx.swap(i, j);
        }
        idx.truncate(k);
        // Truncation keeps the O(n) capacity; callers store the draw long
        // term (round records hold the selected cohort), so hand back a
        // buffer sized to k rather than to the whole population.
        idx.shrink_to_fit();
        idx
    }
}

/// SplitMix64 — tiny, fast generator; also used to seed [`Xoshiro256`].
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** — the workhorse generator for data and simulation sampling.
///
/// `PartialEq` compares the full generator state: two equal streams produce
/// the same draw sequence forever (used by the session roster's stream
/// handback tests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed the generator; internal state is expanded with SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is invalid for xoshiro.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Derive an independent child generator (used to give every simulated
    /// client its own stream).
    pub fn fork(&mut self, stream: u64) -> Xoshiro256 {
        let a = self.next_u64();
        Xoshiro256::new(a ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

impl Rng for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 0 from the reference implementation.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn determinism_same_seed() {
        let mut a = Xoshiro256::new(123);
        let mut b = Xoshiro256::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f32_stays_below_one_at_the_top_word() {
        struct Top;
        impl Rng for Top {
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        assert_eq!(Top.next_f64(), 1.0 - f64::EPSILON / 2.0);
        let x = Top.next_f32();
        assert!(x < 1.0, "{x}");
        assert_eq!(x, 1.0 - f32::EPSILON / 2.0);
        // Every other value keeps its bits.
        let mut r = Xoshiro256::new(7);
        let mut s = r.clone();
        for _ in 0..10_000 {
            assert_eq!(r.next_f32().to_bits(), (s.next_f64() as f32).to_bits());
        }
    }

    #[test]
    fn next_below_uniformish() {
        let mut r = Xoshiro256::new(11);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.next_below(10)] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Xoshiro256::new(5);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_without_replacement_distinct() {
        let mut r = Xoshiro256::new(9);
        let s = r.sample_without_replacement(20, 10);
        assert_eq!(s.len(), 10);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        assert!(s.iter().all(|&x| x < 20));
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = Xoshiro256::new(77);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    #[should_panic]
    fn next_below_zero_panics() {
        let mut r = SplitMix64::new(0);
        r.next_below(0);
    }
}
