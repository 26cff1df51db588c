//! Deterministic, splittable random-number streams.
//!
//! Reproducibility rule: every random choice in an experiment must be
//! derived from the experiment's single master seed. [`SimRng`] wraps a
//! fast non-cryptographic generator (xoshiro256++, implemented locally so
//! the kernel stays dependency-free) and adds **labelled stream
//! derivation**: `rng.derive("relay-bandwidths")` yields an independent
//! child generator whose seed depends only on the parent seed and the
//! label. Components can therefore draw randomness in any order — adding
//! a new consumer never perturbs the streams of existing ones, which
//! keeps results comparable across code revisions.

/// FNV-1a, 64-bit. Tiny, stable, and good enough for seed derivation —
/// this is *not* used for anything security-relevant. A `const fn`, so a
/// literal label inlined through [`SimRng::derive`] hashes at compile
/// time.
#[inline]
const fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    hash
}

/// SplitMix64 finalizer: scrambles a 64-bit value; used so that similar
/// (seed, label) pairs yield very different child seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ core (Blackman & Vigna). Public-domain algorithm,
/// implemented here so `simcore` carries no external dependencies.
#[derive(Clone, Debug)]
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Expands a 64-bit seed through SplitMix64, as the xoshiro authors
    /// recommend, guaranteeing a non-zero state.
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(sm.wrapping_sub(0x9E37_79B9_7F4A_7C15))
        };
        Xoshiro256PlusPlus {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
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

/// A deterministic random stream tied to a seed.
///
/// # Examples
///
/// ```
/// use simcore::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.u64(), b.u64()); // same seed, same stream
///
/// let mut child = a.derive("relay-bandwidths");
/// let x = child.range_f64(10.0, 100.0);
/// assert!((10.0..100.0).contains(&x));
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    seed: u64,
    inner: Xoshiro256PlusPlus,
}

impl SimRng {
    /// Creates a stream from a master seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            seed,
            inner: Xoshiro256PlusPlus::seed_from_u64(splitmix64(seed)),
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// Derivation is a pure function of `(self.seed, label)`: it does not
    /// consume randomness from, and is unaffected by, draws on `self`.
    #[inline]
    pub fn derive(&self, label: &str) -> SimRng {
        let child_seed = splitmix64(self.seed ^ fnv1a(label.as_bytes()));
        SimRng::seed_from(child_seed)
    }

    /// Derives an independent child stream identified by a label and an
    /// index (convenient for per-node / per-circuit streams).
    #[inline]
    pub fn derive_indexed(&self, label: &str, index: u64) -> SimRng {
        let child_seed = splitmix64(self.seed ^ fnv1a(label.as_bytes()) ^ splitmix64(index));
        SimRng::seed_from(child_seed)
    }

    /// Uniform `f64` in `[0, 1)` (53 random mantissa bits).
    pub fn f64(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` over the full range.
    pub fn u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform `u32` over the full range.
    pub fn u32(&mut self) -> u32 {
        (self.inner.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.inner.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Uniform integer in `[low, high)`, free of modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn range_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(
            low < high,
            "range_u64 requires low < high, got [{low}, {high})"
        );
        let span = high - low;
        // Reject the top 2^64 mod span values so every residue is
        // equally likely. span.wrapping_neg() % span == 2^64 mod span.
        let rem = span.wrapping_neg() % span;
        let mut v = self.inner.next_u64();
        while v > u64::MAX - rem {
            v = self.inner.next_u64();
        }
        low + v % span
    }

    /// Uniform integer in `[low, high)` for indexing.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn range_usize(&mut self, low: usize, high: usize) -> usize {
        usize::try_from(self.range_u64(low as u64, high as u64)).expect("usize range")
    }

    /// Uniform float in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or either bound is not finite.
    #[inline]
    pub fn range_f64(&mut self, low: f64, high: f64) -> f64 {
        assert!(
            low < high && low.is_finite() && high.is_finite(),
            "range_f64 requires finite low < high, got [{low}, {high})"
        );
        let v = low + self.f64() * (high - low);
        // Floating-point rounding can land exactly on `high`; keep the
        // half-open contract.
        if v >= high {
            high.next_down().max(low)
        } else {
            v
        }
    }

    /// Fisher–Yates shuffle of a slice, deterministic given the stream
    /// state.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(0, i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (uniformly, order
    /// unspecified but deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        let mut all: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: shuffle only the first k positions.
        for i in 0..k {
            let j = self.range_usize(i, n);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(8);
        let same = (0..100).filter(|_| a.u64() == b.u64()).count();
        assert!(same < 3, "streams from different seeds should diverge");
    }

    #[test]
    fn derive_is_pure_and_order_independent() {
        let parent = SimRng::seed_from(99);
        let mut c1 = parent.derive("alpha");
        // Draw from a *copy* of the parent first; derivation must not care.
        let mut parent2 = SimRng::seed_from(99);
        let _ = parent2.u64();
        let _ = parent2.u64();
        let mut c2 = parent2.derive("alpha");
        for _ in 0..20 {
            assert_eq!(c1.u64(), c2.u64());
        }
    }

    #[test]
    fn derive_labels_independent() {
        let parent = SimRng::seed_from(99);
        let mut a = parent.derive("alpha");
        let mut b = parent.derive("beta");
        let same = (0..100).filter(|_| a.u64() == b.u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn derive_indexed_distinct() {
        let parent = SimRng::seed_from(5);
        let mut a = parent.derive_indexed("relay", 0);
        let mut b = parent.derive_indexed("relay", 1);
        assert_ne!(a.u64(), b.u64());
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = rng.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
            let u = rng.f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_u64_covers_whole_range() {
        let mut rng = SimRng::seed_from(6);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.range_u64(0, 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "range_u64 requires")]
    fn range_u64_rejects_empty() {
        let mut rng = SimRng::seed_from(1);
        let _ = rng.range_u64(5, 5);
    }

    #[test]
    fn shuffle_is_permutation_and_deterministic() {
        let mut rng1 = SimRng::seed_from(3);
        let mut rng2 = SimRng::seed_from(3);
        let mut a: Vec<u32> = (0..50).collect();
        let mut b: Vec<u32> = (0..50).collect();
        rng1.shuffle(&mut a);
        rng2.shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            a, sorted,
            "a 50-element shuffle is virtually never the identity"
        );
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = SimRng::seed_from(4);
        for _ in 0..50 {
            let sample = rng.sample_distinct(10, 3);
            assert_eq!(sample.len(), 3);
            let mut s = sample.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 3, "sample must be distinct");
            assert!(sample.iter().all(|&i| i < 10));
        }
    }

    #[test]
    fn sample_distinct_full_range() {
        let mut rng = SimRng::seed_from(4);
        let mut sample = rng.sample_distinct(5, 5);
        sample.sort_unstable();
        assert_eq!(sample, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_distinct_rejects_oversize() {
        let mut rng = SimRng::seed_from(4);
        let _ = rng.sample_distinct(3, 4);
    }

    #[test]
    fn fill_bytes_deterministic_and_nonzero() {
        let mut a = SimRng::seed_from(11);
        let mut b = SimRng::seed_from(11);
        let mut buf_a = [0u8; 23];
        let mut buf_b = [0u8; 23];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
        assert_ne!(buf_a, [0u8; 23]);
    }

    #[test]
    fn f64_has_53_bit_resolution() {
        // Many draws should produce values with long mantissas — a crude
        // check that we are not truncating to a coarse grid.
        let mut rng = SimRng::seed_from(12);
        let distinct: std::collections::BTreeSet<u64> =
            (0..1000).map(|_| rng.f64().to_bits()).collect();
        assert!(
            distinct.len() > 990,
            "draws should essentially never repeat"
        );
    }
}
