//! Deterministic random-number generation.
//!
//! Every stochastic component of the simulator (workload address streams,
//! per-bank retention variation) draws from a [`DeterministicRng`] seeded from
//! the experiment configuration, so that runs are exactly reproducible and
//! independent streams can be derived per thread / per component without
//! correlation.
//!
//! The generator is a self-contained xoshiro256++ (public-domain algorithm by
//! Blackman & Vigna) whose 256-bit state is expanded from the 64-bit seed
//! with SplitMix64, so the crate carries no external dependencies.

/// A seedable, deterministic random-number generator.
///
/// Independent sub-streams are derived with [`DeterministicRng::fork`], which
/// mixes a label into the seed so components do not share sequences.
///
/// # Example
///
/// ```
/// use refrint_engine::rng::DeterministicRng;
/// let mut a = DeterministicRng::from_seed(42);
/// let mut b = DeterministicRng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64 step: advances `x` and returns the next output.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut x = seed;
        let mut state = [0u64; 4];
        for s in &mut state {
            *s = splitmix64(&mut x);
        }
        // xoshiro256++ must not start from the all-zero state.
        if state == [0; 4] {
            state = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
        }
        DeterministicRng { state, seed }
    }

    /// The seed this generator was created with.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for a labelled sub-component.
    ///
    /// The same `(seed, label)` pair always produces the same stream, and
    /// different labels produce de-correlated streams.
    #[must_use]
    pub fn fork(&self, label: u64) -> DeterministicRng {
        // SplitMix64-style mixing of seed and label.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(label.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        DeterministicRng::from_seed(z)
    }

    /// The next `u64` from the stream (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// A uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Lemire's multiply-shift reduction: deterministic, unbiased enough
        // for simulation workloads, no division on the hot path.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.unit() < p
    }

    /// A geometrically distributed value with success probability `p`,
    /// truncated at `max`. Used for compute-gap and burst-length draws.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn geometric(&mut self, p: f64, max: u64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric p must be in (0,1]");
        let mut n = 0;
        while n < max && !self.chance(p) {
            n += 1;
        }
        n
    }

    /// Picks an index in `[0, weights.len())` with probability proportional
    /// to the weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut target = self.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::from_seed(7);
        let mut b = DeterministicRng::from_seed(7);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DeterministicRng::from_seed(1);
        let mut b = DeterministicRng::from_seed(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = DeterministicRng::from_seed(0);
        let values: Vec<u64> = (0..16).map(|_| r.next_u64()).collect();
        assert!(values.iter().any(|&v| v != 0));
    }

    #[test]
    fn forked_streams_are_deterministic_and_distinct() {
        let root = DeterministicRng::from_seed(99);
        let mut f1a = root.fork(1);
        let mut f1b = root.fork(1);
        let mut f2 = root.fork(2);
        assert_eq!(f1a.next_u64(), f1b.next_u64());
        assert_ne!(root.fork(1).next_u64(), f2.next_u64());
    }

    #[test]
    fn below_and_range_respect_bounds() {
        let mut r = DeterministicRng::from_seed(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.range(100, 200);
            assert!((100..200).contains(&v));
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = DeterministicRng::from_seed(12);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[r.below(8) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "bucket {i} count {c}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DeterministicRng::from_seed(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn geometric_truncates_at_max() {
        let mut r = DeterministicRng::from_seed(5);
        for _ in 0..200 {
            assert!(r.geometric(0.01, 16) <= 16);
        }
        // p = 1 means always zero.
        assert_eq!(r.geometric(1.0, 100), 0);
    }

    #[test]
    fn weighted_index_prefers_heavy_weight() {
        let mut r = DeterministicRng::from_seed(6);
        let mut counts = [0u32; 3];
        for _ in 0..3000 {
            counts[r.weighted_index(&[0.1, 0.1, 0.8])] += 1;
        }
        assert!(counts[2] > counts[0] + counts[1]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn weighted_index_empty_panics() {
        let mut r = DeterministicRng::from_seed(8);
        let _ = r.weighted_index(&[]);
    }
}
