//! Deterministic random number generation.
//!
//! Every stochastic component in the simulation draws from a [`SimRng`]
//! seeded through a hierarchical derivation scheme: a single experiment seed
//! fans out into independent per-component streams via [`SimRng::fork`] and
//! [`SimRng::fork_labeled`]. Re-running an experiment with the same seed
//! reproduces the exact same data center, hosts, noise, and placement
//! decisions.
//!
//! The generator is `xoshiro256**`-style built on top of SplitMix64 seeding —
//! implemented locally so the only external dependency is the `rand` trait
//! surface.

use rand::{Error, RngCore, SeedableRng};

/// SplitMix64 step; used for seeding and label mixing.
const fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a string label into the 64-bit key [`SimRng::fork_labeled`]
/// XORs into its child's seed (FNV-1a, then SplitMix64 finish).
///
/// A `const fn`, so a label fixed at compile time becomes a constant key
/// and forking under it costs one draw and an XOR
/// ([`SimRng::fork_seed`]).
pub const fn label_key(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut rest = label.as_bytes();
    while let Some((&b, tail)) = rest.split_first() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
        rest = tail;
    }
    splitmix64(&mut h)
}

/// A deterministic, forkable pseudo-random number generator
/// (xoshiro256** core).
///
/// # Examples
///
/// ```
/// use eaao_simcore::rng::SimRng;
/// use rand::Rng;
///
/// let mut root = SimRng::seed_from(7);
/// let mut hosts = root.fork_labeled("hosts");
/// let mut noise = root.fork_labeled("noise");
/// // Independent streams: the draws don't interleave.
/// let a: u64 = hosts.gen();
/// let b: u64 = noise.gen();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4], // tidy:allow(fork-coverage) -- `fork` detaches by reseeding through `seed_from(self.next_u64())`; it never copies `s`, so no per-field mention exists to find.
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator.
    ///
    /// The child's stream is decorrelated from the parent's future output;
    /// forking advances the parent.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }

    /// Derives an independent child generator bound to a label.
    ///
    /// Two forks with different labels from the same parent state produce
    /// different streams, and the same label always maps to the same stream
    /// for a given parent state — useful for wiring components by name.
    pub fn fork_labeled(&mut self, label: &str) -> SimRng {
        SimRng::seed_from(self.fork_seed(label_key(label)))
    }

    /// The seed [`SimRng::fork_labeled`] builds its child from, for a
    /// label already mixed into `key` by [`label_key`]: one draw and an
    /// XOR. The parent advances exactly as it does under `fork_labeled`,
    /// and `SimRng::seed_from` of the result is the child, so a caller
    /// may keep the 8-byte seed and defer the 32-byte stream to first use.
    pub fn fork_seed(&mut self, key: u64) -> u64 {
        self.next_u64() ^ key
    }

    /// Derives the keyed stream `(base, key)` — an *order-free* sibling of
    /// [`SimRng::fork_labeled`].
    ///
    /// The returned generator is a pure function of its two arguments: no
    /// parent state advances, so the stream for key `k` is the same whether
    /// it is derived first, last, or never for the other keys. This is what
    /// makes lazily materialized populations byte-identical to eagerly
    /// generated ones — draw one `base` up front, then give element `i` the
    /// stream `keyed(base, i)` whenever (if ever) it is first touched.
    ///
    /// Distinct keys map to distinct streams (the key mixing is a
    /// bijection), and keys do not collide with plain `seed_from` seeding
    /// of the same base.
    pub fn keyed(base: u64, key: u64) -> SimRng {
        let mut sm = key;
        SimRng::seed_from(base ^ splitmix64(&mut sm))
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range"
        );
        lo + (hi - lo) * self.unit_f64()
    }

    /// Uniform integer draw in `[0, n)` via Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Unbiased multiply-shift rejection sampling.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "Lemire's method keeps the low 64 bits of the 128-bit product on purpose"
            )]
            let low = m as u64;
            if low >= n {
                return (m >> 64) as u64;
            }
            // Rejection zone: threshold = 2^64 mod n.
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw with probability `p`.
    ///
    /// `p <= 0` always yields `false`; `p >= 1` always yields `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Fisher–Yates shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "below(i + 1) is at most a usize index, so it fits a usize"
            )]
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        // xoshiro256**
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

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for SimRng {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        SimRng::seed_from(u64::from_le_bytes(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn labeled_forks_are_reproducible() {
        let mut p1 = SimRng::seed_from(9);
        let mut p2 = SimRng::seed_from(9);
        let mut a = p1.fork_labeled("hosts");
        let mut b = p2.fork_labeled("hosts");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut p3 = SimRng::seed_from(9);
        let mut c = p3.fork_labeled("noise");
        let mut d = SimRng::seed_from(9).fork_labeled("hosts");
        assert_ne!(c.next_u64(), d.next_u64());
    }

    /// The label mix as an iterator loop, written independently of
    /// `label_key`'s const-evaluable form: the reference it must match.
    fn runtime_label_mix(label: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        splitmix64(&mut h)
    }

    #[test]
    fn the_const_label_mix_equals_the_runtime_mix() {
        const GEN1_CLOCK: u64 = label_key("gen1-clock");
        const GEN2_CLOCK: u64 = label_key("gen2-clock");
        assert_eq!(GEN1_CLOCK, runtime_label_mix("gen1-clock"));
        assert_eq!(GEN2_CLOCK, runtime_label_mix("gen2-clock"));
        assert_ne!(GEN1_CLOCK, GEN2_CLOCK);
        for label in ["", "datacenter", "policy", "refine"] {
            assert_eq!(
                label_key(std::hint::black_box(label)),
                runtime_label_mix(label)
            );
        }
    }

    #[test]
    fn seeding_from_the_forked_seed_reproduces_fork_labeled() {
        for label in ["gen1-clock", "gen2-clock"] {
            let mut labeled_parent = SimRng::seed_from(11);
            let mut seeded_parent = SimRng::seed_from(11);
            let mut labeled = labeled_parent.fork_labeled(label);
            let mut seeded = SimRng::seed_from(seeded_parent.fork_seed(label_key(label)));
            for _ in 0..32 {
                assert_eq!(labeled.next_u64(), seeded.next_u64(), "{label}");
            }
            // Both parents advanced by the same one draw.
            assert_eq!(labeled_parent.next_u64(), seeded_parent.next_u64());
        }
    }

    #[test]
    fn keyed_streams_are_order_free_and_distinct() {
        // Pure function of (base, key): derivation order is irrelevant.
        let mut a = SimRng::keyed(99, 3);
        let _ = SimRng::keyed(99, 1);
        let mut b = SimRng::keyed(99, 3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Distinct keys (and distinct bases) give decorrelated streams.
        let mut c = SimRng::keyed(99, 4);
        let mut d = SimRng::keyed(98, 3);
        let mut a = SimRng::keyed(99, 3);
        let same_key = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        assert_eq!(same_key, 0);
        let mut a = SimRng::keyed(99, 3);
        let same_base = (0..64).filter(|_| a.next_u64() == d.next_u64()).count();
        assert_eq!(same_base, 0);
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn unit_f64_is_roughly_uniform() {
        let mut rng = SimRng::seed_from(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.unit_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = SimRng::seed_from(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let x = rng.below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "below(0) is meaningless")]
    fn below_zero_panics() {
        SimRng::seed_from(0).below(0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(6);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(7);
        let mut v: Vec<u32> = (0..100).collect();
        let orig = v.clone();
        rng.shuffle(&mut v);
        assert_ne!(v, orig, "shuffle of 100 items left order unchanged");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle must be a permutation");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SimRng::seed_from(8);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        assert!(rng.try_fill_bytes(&mut buf).is_ok());
    }

    #[test]
    fn seedable_from_seed() {
        let a = SimRng::from_seed(7u64.to_le_bytes());
        let b = SimRng::seed_from(7);
        assert_eq!(a.clone().next_u64(), b.clone().next_u64());
    }
}
