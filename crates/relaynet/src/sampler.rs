//! Incremental weighted sampling: the draw engine behind path selection.
//!
//! Every weighted [`crate::selection::PathSelection`] policy reduces to
//! the same primitive — draw `path_len` distinct relay indices with
//! probability proportional to per-relay weights — and at consensus
//! scale (~7k relays) that primitive is the hot path, not a setup step.
//! Two implementations sit behind one `match`-dispatching enum, chosen
//! by [`SamplerKind`] (compare `QueueKind`/`EventQueue` in `simcore`):
//!
//! * [`FenwickSampler`] — a Fenwick (binary indexed) tree over the
//!   weights: O(log n) draw and O(log n) point update, fed incrementally
//!   by the load ledger instead of rebuilt per selection. Every world
//!   places through it.
//! * [`LinearSampler`] — the O(n)-per-draw subtraction scan, the
//!   obviously-correct oracle the Fenwick tree is differentially tested
//!   against, and the sampler behind the from-scratch
//!   [`crate::selection::select`] the tests use as their reference.
//!
//! # The integer-weight exactness contract
//!
//! Both samplers accept only **integer-valued** `f64` weights whose
//! total stays below 2⁵³ ([`MAX_EXACT_TOTAL`]). Under that contract
//! every partial sum, running-total decrement, and tree-node sum is
//! exact (each intermediate value is an integer below 2⁵³, hence
//! representable), which buys two load-bearing properties:
//!
//! 1. **Pick equivalence.** A draw takes `x = rng.range_f64(0, total)`
//!    and returns the largest index `p` with `prefix(p) <= x`. The
//!    linear scan computes the prefix sums by running subtraction; the
//!    Fenwick descent computes them from tree nodes. With exact integer
//!    arithmetic both see the *same* prefix sums and the *same* total —
//!    so they consume identical randomness and return bit-identical
//!    picks, at any directory size. The pinned selection constants in
//!    `tests/path_selection.rs` therefore hold under either sampler.
//! 2. **Drift-free increments.** A point update (`set`) adjusts the
//!    total and tree nodes by the exact integer delta, so a sampler
//!    maintained incrementally across thousands of load changes is
//!    bit-identical to one rebuilt from scratch — asserted by the
//!    differential suite.
//!
//! Policies enforce the contract by quantizing their weights with
//! `round()` (bandwidths are already integer bit/s).

use simcore::rng::SimRng;

/// Largest weight total for which every intermediate sum is exactly
/// representable as `f64` (2⁵³). A 7k-relay directory of 1e12-max
/// latency weights totals 7e15 < 9.007e15, so the contract holds with
/// headroom; exceeding it is a policy bug and panics.
pub const MAX_EXACT_TOTAL: f64 = 9_007_199_254_740_992.0; // 2^53

/// Which weighted-sampler implementation a [`Sampler`] is built over.
/// Pick equivalence (module docs) makes the choice unobservable in
/// experiment outcomes; worlds always use `Fenwick`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplerKind {
    /// The O(n) linear scan (the differential oracle).
    Linear,
    /// The O(log n) Fenwick tree (every world's placement).
    Fenwick,
}

fn validate_weight(w: f64) {
    assert!(
        w >= 0.0 && w.is_finite(),
        "selection weights must be finite and non-negative"
    );
    assert!(
        w == w.trunc() && w <= MAX_EXACT_TOTAL,
        "sampler weights must be integer-valued below 2^53 (quantize the policy weight), got {w}"
    );
}

/// The weighted-draw engine as the selection layer consumes it: either
/// implementation behind one dispatch point, so a
/// [`crate::selection::SelectionEngine`] carries "a sampler" without
/// committing to a representation.
#[derive(Clone, Debug)]
pub enum Sampler {
    /// The O(n) linear scan.
    Linear(LinearSampler),
    /// The O(log n) Fenwick tree.
    Fenwick(FenwickSampler),
}

impl Sampler {
    /// Builds a `kind` sampler over `weights`.
    pub fn build(kind: SamplerKind, weights: &[f64]) -> Sampler {
        match kind {
            SamplerKind::Linear => Sampler::Linear(LinearSampler::new(weights)),
            SamplerKind::Fenwick => Sampler::Fenwick(FenwickSampler::new(weights)),
        }
    }

    /// Number of weights (relays).
    pub fn len(&self) -> usize {
        match self {
            Sampler::Linear(s) => s.len(),
            Sampler::Fenwick(s) => s.len(),
        }
    }

    /// Whether the sampler holds no weights. Construction rejects empty
    /// weight sets, so this is always `false`; kept for the standard
    /// `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current weight of index `i`.
    pub fn weight(&self, i: usize) -> f64 {
        match self {
            Sampler::Linear(s) => s.weight(i),
            Sampler::Fenwick(s) => s.weight(i),
        }
    }

    /// Sum of all weights (exact, by the integer contract).
    pub fn total(&self) -> f64 {
        match self {
            Sampler::Linear(s) => s.total(),
            Sampler::Fenwick(s) => s.total(),
        }
    }

    /// Number of indices with positive weight — maintained incrementally,
    /// so the selectable-count check is O(1) instead of an O(n) scan.
    pub fn selectable(&self) -> usize {
        match self {
            Sampler::Linear(s) => s.selectable(),
            Sampler::Fenwick(s) => s.selectable(),
        }
    }

    /// Point update: index `i` now weighs `w` (O(1) linear, O(log n)
    /// Fenwick). This is how the load ledger feeds the sampler.
    pub fn set(&mut self, i: usize, w: f64) {
        match self {
            Sampler::Linear(s) => s.set(i, w),
            Sampler::Fenwick(s) => s.set(i, w),
        }
    }

    /// Draws `k` distinct indices without replacement into `out`
    /// (cleared first), leaving the weights as they were on entry.
    pub fn draw_distinct(&mut self, rng: &mut SimRng, k: usize, out: &mut Vec<usize>) {
        match self {
            Sampler::Linear(s) => s.draw_distinct(rng, k, out),
            Sampler::Fenwick(s) => s.draw_distinct(rng, k, out),
        }
    }

    /// Capacity of the internal draw-undo scratch buffer, which
    /// `selection`'s unit tests assert stays flat after warm-up.
    #[cfg(test)]
    pub(crate) fn scratch_capacity(&self) -> usize {
        match self {
            Sampler::Linear(s) => s.undo.capacity(),
            Sampler::Fenwick(s) => s.undo.capacity(),
        }
    }
}

/// The reference weighted draw: per draw, one uniform variate scanned
/// against the weights with running subtraction. O(n) per draw, O(1)
/// point update — the oracle the Fenwick implementation is
/// differentially tested against.
#[derive(Clone, Debug)]
pub struct LinearSampler {
    weights: Vec<f64>,
    total: f64,
    positive: usize,
    /// Draw-without-replacement scratch: picks zeroed during a
    /// `draw_distinct` and restored afterwards (LIFO).
    undo: Vec<(usize, f64)>,
}

impl LinearSampler {
    /// Builds over initial weights (validated per the integer contract).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, any weight violates the contract,
    /// or the total exceeds [`MAX_EXACT_TOTAL`].
    pub fn new(weights: &[f64]) -> LinearSampler {
        assert!(!weights.is_empty(), "a sampler needs at least one weight");
        for &w in weights {
            validate_weight(w);
        }
        let total: f64 = weights.iter().sum();
        assert!(
            total <= MAX_EXACT_TOTAL,
            "sampler weight total {total} exceeds the exact-integer range"
        );
        let positive = weights.iter().filter(|&&w| w > 0.0).count();
        LinearSampler {
            weights: weights.to_vec(),
            total,
            positive,
            undo: Vec::new(),
        }
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Always `false` (construction rejects empty weight sets).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Current weight of index `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of positive weights.
    pub fn selectable(&self) -> usize {
        self.positive
    }

    /// Point update (O(1)).
    pub fn set(&mut self, i: usize, w: f64) {
        validate_weight(w);
        let old = self.weights[i];
        if old > 0.0 {
            self.positive -= 1;
        }
        if w > 0.0 {
            self.positive += 1;
        }
        // Integer-exact: old and w are integers below 2^53, so the
        // delta and the new total are exactly representable.
        self.total = self.total - old + w;
        assert!(
            self.total <= MAX_EXACT_TOTAL,
            "sampler weight total {} exceeds the exact-integer range",
            self.total
        );
        self.weights[i] = w;
    }

    fn draw(&self, rng: &mut SimRng) -> usize {
        debug_assert!(self.total > 0.0);
        let mut x = rng.range_f64(0.0, self.total);
        // `pick` tracks the last positive-weight index visited, so a
        // floating-point overrun of `x` past the running total would
        // still land on a selectable index. Under the integer contract
        // the arithmetic is exact and the fallback never fires.
        let mut pick = usize::MAX;
        for (i, &w) in self.weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            pick = i;
            if x < w {
                break;
            }
            x -= w;
        }
        debug_assert!(pick != usize::MAX, "some weight must remain positive");
        pick
    }

    /// Draws `k` distinct indices without replacement into `out`
    /// (cleared first). Picks are zeroed during the draw and restored
    /// before returning, so the sampler's state is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` weights are positive.
    pub fn draw_distinct(&mut self, rng: &mut SimRng, k: usize, out: &mut Vec<usize>) {
        assert!(
            self.positive >= k,
            "only {} of {} weights are positive, cannot draw {k} distinct",
            self.positive,
            self.weights.len()
        );
        out.clear();
        for _ in 0..k {
            let pick = self.draw(rng);
            out.push(pick);
            let w = self.weights[pick];
            self.undo.push((pick, w));
            self.total -= w;
            self.weights[pick] = 0.0; // without replacement
            self.positive -= 1;
        }
        while let Some((i, w)) = self.undo.pop() {
            self.weights[i] = w;
            self.total += w;
            self.positive += 1;
        }
    }
}

/// A Fenwick (binary indexed) tree over the weights: node `j` (1-based)
/// holds the exact sum of the leaf range `(j - lowbit(j), j]`, so a
/// prefix sum is O(log n) and a point update touches O(log n) nodes.
/// A draw descends the implicit tree from the highest power of two,
/// locating the largest prefix `p` with `prefix(p) <= x` — the same
/// index the linear scan returns (module docs), in O(log n).
#[derive(Clone, Debug)]
pub struct FenwickSampler {
    /// 1-based tree nodes; `tree[0]` is unused.
    tree: Vec<f64>,
    /// Leaf weights (0-based), kept for O(1) reads and exact deltas.
    leaf: Vec<f64>,
    total: f64,
    positive: usize,
    /// Highest power of two `<= len` — the descent's starting stride.
    top_bit: usize,
    /// Draw-without-replacement scratch (see [`LinearSampler::undo`]).
    undo: Vec<(usize, f64)>,
}

impl FenwickSampler {
    /// Builds over initial weights in O(n).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, any weight violates the integer
    /// contract, or the total exceeds [`MAX_EXACT_TOTAL`].
    pub fn new(weights: &[f64]) -> FenwickSampler {
        assert!(!weights.is_empty(), "a sampler needs at least one weight");
        for &w in weights {
            validate_weight(w);
        }
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        assert!(
            total <= MAX_EXACT_TOTAL,
            "sampler weight total {total} exceeds the exact-integer range"
        );
        let positive = weights.iter().filter(|&&w| w > 0.0).count();
        // O(n) build: seed each node with its leaf, then push each
        // node's sum into its parent.
        let mut tree = vec![0.0; n + 1];
        tree[1..].copy_from_slice(weights);
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[i];
            }
        }
        let mut top_bit = 1usize;
        while top_bit * 2 <= n {
            top_bit *= 2;
        }
        FenwickSampler {
            tree,
            leaf: weights.to_vec(),
            total,
            positive,
            top_bit,
            undo: Vec::new(),
        }
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.leaf.len()
    }

    /// Always `false` (construction rejects empty weight sets).
    pub fn is_empty(&self) -> bool {
        self.leaf.is_empty()
    }

    /// Current weight of index `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.leaf[i]
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of positive weights.
    pub fn selectable(&self) -> usize {
        self.positive
    }

    /// Point update (O(log n)).
    pub fn set(&mut self, i: usize, w: f64) {
        validate_weight(w);
        self.apply(i, w);
        assert!(
            self.total <= MAX_EXACT_TOTAL,
            "sampler weight total {} exceeds the exact-integer range",
            self.total
        );
    }

    /// The update core, shared with the draw path's zero/restore (which
    /// re-applies already-validated weights).
    fn apply(&mut self, i: usize, w: f64) {
        let old = self.leaf[i];
        if old == w {
            return;
        }
        if old > 0.0 {
            self.positive -= 1;
        }
        if w > 0.0 {
            self.positive += 1;
        }
        // delta is a difference of integers below 2^53: exact, and every
        // touched node's new value is again an exact integer sum.
        let delta = w - old;
        self.leaf[i] = w;
        self.total += delta;
        let n = self.leaf.len();
        let mut j = i + 1;
        while j <= n {
            self.tree[j] += delta;
            j += j & j.wrapping_neg();
        }
    }

    fn draw(&self, rng: &mut SimRng) -> usize {
        debug_assert!(self.total > 0.0);
        let mut x = rng.range_f64(0.0, self.total);
        // Descend the implicit tree: after the loop, `idx` is the
        // largest position with prefix(idx) <= x, i.e. the 0-based pick.
        let n = self.leaf.len();
        let mut idx = 0usize;
        let mut bit = self.top_bit;
        while bit > 0 {
            let next = idx + bit;
            if next <= n && self.tree[next] <= x {
                x -= self.tree[next];
                idx = next;
            }
            bit >>= 1;
        }
        debug_assert!(
            idx < n && self.leaf[idx] > 0.0,
            "descent must land on a positive leaf"
        );
        idx
    }

    /// Draws `k` distinct indices without replacement into `out`
    /// (cleared first); state is unchanged on return (see
    /// [`LinearSampler::draw_distinct`]).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` weights are positive.
    pub fn draw_distinct(&mut self, rng: &mut SimRng, k: usize, out: &mut Vec<usize>) {
        assert!(
            self.positive >= k,
            "only {} of {} weights are positive, cannot draw {k} distinct",
            self.positive,
            self.leaf.len()
        );
        out.clear();
        for _ in 0..k {
            let pick = self.draw(rng);
            out.push(pick);
            self.undo.push((pick, self.leaf[pick]));
            self.apply(pick, 0.0); // without replacement
        }
        while let Some((i, w)) = self.undo.pop() {
            self.apply(i, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{Directory, DirectoryConfig};

    fn rng() -> SimRng {
        SimRng::seed_from(42)
    }

    /// `k` distinct draws from a fresh [`LinearSampler`] over `weights`.
    fn linear_draw(weights: &[f64], rng: &mut SimRng, k: usize) -> Vec<usize> {
        let mut out = Vec::new();
        LinearSampler::new(weights).draw_distinct(rng, k, &mut out);
        out
    }

    #[test]
    fn fenwick_prefix_structure_is_exact() {
        let weights = [3.0, 0.0, 5.0, 2.0, 0.0, 7.0, 1.0];
        let s = FenwickSampler::new(&weights);
        assert_eq!(s.total(), 18.0);
        assert_eq!(s.selectable(), 5);
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(s.weight(i), w);
        }
    }

    #[test]
    fn draws_restore_state() {
        let weights = [4.0, 0.0, 6.0, 2.0];
        for kind in [SamplerKind::Linear, SamplerKind::Fenwick] {
            let mut s = Sampler::build(kind, &weights);
            let mut out = Vec::new();
            let mut r = rng();
            for _ in 0..50 {
                s.draw_distinct(&mut r, 3, &mut out);
                assert_eq!(out.len(), 3);
                assert!(out.iter().all(|&i| weights[i] > 0.0));
                assert_eq!(s.total(), 12.0, "{kind:?}");
                assert_eq!(s.selectable(), 3, "{kind:?}");
                for (i, &w) in weights.iter().enumerate() {
                    assert_eq!(s.weight(i), w, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn set_updates_total_and_selectable() {
        for kind in [SamplerKind::Linear, SamplerKind::Fenwick] {
            let mut s = Sampler::build(kind, &[1.0, 2.0, 3.0]);
            s.set(1, 0.0);
            assert_eq!(s.total(), 4.0);
            assert_eq!(s.selectable(), 2);
            s.set(1, 10.0);
            assert_eq!(s.total(), 14.0);
            assert_eq!(s.selectable(), 3);
            s.set(1, 10.0); // no-op update
            assert_eq!(s.total(), 14.0);
            assert_eq!(s.selectable(), 3);
        }
    }

    #[test]
    fn single_weight_directory_draws_it() {
        for kind in [SamplerKind::Linear, SamplerKind::Fenwick] {
            let mut s = Sampler::build(kind, &[5.0]);
            let mut out = Vec::new();
            s.draw_distinct(&mut rng(), 1, &mut out);
            assert_eq!(out, [0]);
        }
    }

    #[test]
    fn zeroed_prefix_draws_land_past_it() {
        // Leading zeros exercise the descent's skip-over behaviour.
        for kind in [SamplerKind::Linear, SamplerKind::Fenwick] {
            let mut s = Sampler::build(kind, &[0.0, 0.0, 0.0, 1.0, 1.0]);
            let mut out = Vec::new();
            let mut r = rng();
            for _ in 0..20 {
                s.draw_distinct(&mut r, 2, &mut out);
                out.sort_unstable();
                assert_eq!(out, [3, 4], "{kind:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "integer-valued")]
    fn fractional_weight_rejected() {
        let _ = LinearSampler::new(&[1.5]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_rejected() {
        let _ = FenwickSampler::new(&[-1.0]);
    }

    #[test]
    #[should_panic(expected = "exact-integer range")]
    fn overflowing_total_rejected() {
        let half = (MAX_EXACT_TOTAL / 2.0).trunc();
        let _ = LinearSampler::new(&[half, half, half]);
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn too_many_draws_panic() {
        let mut out = Vec::new();
        Sampler::build(SamplerKind::Fenwick, &[1.0, 0.0, 1.0]).draw_distinct(
            &mut rng(),
            3,
            &mut out,
        );
    }

    #[test]
    fn draw_without_replacement_exhausts_exactly() {
        // k == positive: the last draw runs on a single positive weight.
        for kind in [SamplerKind::Linear, SamplerKind::Fenwick] {
            let mut s = Sampler::build(kind, &[2.0, 0.0, 3.0, 4.0]);
            let mut out = Vec::new();
            s.draw_distinct(&mut rng(), 3, &mut out);
            out.sort_unstable();
            assert_eq!(out, [0, 2, 3]);
            assert_eq!(s.total(), 9.0, "weights restored");
        }
    }

    #[test]
    fn weighted_draw_sequence_matches_naive_resummation() {
        // The running-total scan must reproduce a recompute-the-sum
        // implementation draw for draw (exact, because bandwidth weights
        // are integers below 2^53).
        fn naive(weights: &mut [f64], rng: &mut SimRng, k: usize) -> Vec<usize> {
            let mut chosen = Vec::with_capacity(k);
            for _ in 0..k {
                let total: f64 = weights.iter().sum();
                let mut x = rng.range_f64(0.0, total);
                let mut pick = weights.len() - 1;
                for (i, &w) in weights.iter().enumerate() {
                    if w > 0.0 && x < w {
                        pick = i;
                        break;
                    }
                    x -= w;
                }
                chosen.push(pick);
                weights[pick] = 0.0;
            }
            chosen
        }
        for seed in [1u64, 9, 33, 71] {
            let dir = Directory::generate(
                &DirectoryConfig {
                    relays: 40,
                    ..DirectoryConfig::default()
                },
                &SimRng::seed_from(seed),
            );
            let weights: Vec<f64> = dir.bandwidths_bps().iter().map(|&bps| bps as f64).collect();
            let mut a = SimRng::seed_from(seed ^ 0xABCD);
            let mut b = a.clone();
            for _ in 0..200 {
                let fast = linear_draw(&weights, &mut a, 5);
                let slow = naive(&mut weights.clone(), &mut b, 5);
                assert_eq!(fast, slow, "seed {seed}: draw sequences diverged");
            }
        }
    }

    #[test]
    fn zero_weight_relays_are_skipped_not_fatal() {
        // A weight vector containing dead relays (zero weight — a
        // zero-consensus-bandwidth entry, a dark or excluded relay) must
        // draw around them, never trip an everything-positive check.
        let weights = [5.0e6, 0.0, 3.0e6, 0.0, 2.0e6, 1.0e6];
        let mut r = rng();
        for _ in 0..300 {
            let picks = linear_draw(&weights, &mut r, 3);
            assert_eq!(picks.len(), 3);
            assert!(
                picks.iter().all(|&i| weights[i] > 0.0),
                "picked a zero-weight relay: {picks:?}"
            );
            let mut dedup = picks.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "repeated a relay: {picks:?}");
        }
    }

    #[test]
    fn zero_weights_leave_the_draw_sequence_unchanged() {
        // Dead relays contribute exactly 0.0 to every partial sum, so a
        // directory with them interleaved must reproduce the dense
        // directory's draw sequence bit for bit (with indices remapped).
        let dense = [5.0e6, 3.0e6, 2.0e6, 7.0e6];
        let sparse = [5.0e6, 0.0, 3.0e6, 2.0e6, 0.0, 7.0e6];
        // sparse index -> dense index for the positive entries.
        let remap = [0usize, usize::MAX, 1, 2, usize::MAX, 3];
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            let d = linear_draw(&dense, &mut a, 2);
            let s = linear_draw(&sparse, &mut b, 2);
            let s_mapped: Vec<usize> = s.iter().map(|&i| remap[i]).collect();
            assert_eq!(d, s_mapped, "zero weights perturbed the draws");
        }
    }

    #[test]
    #[should_panic(expected = "only 1 of 3 weights are positive")]
    fn too_few_selectable_relays_panics_clearly() {
        // Three relays, two of them dead: a 3-relay path is impossible
        // and must fail loudly with the shortfall named.
        let _ = linear_draw(&[0.0, 4.0e6, 0.0], &mut rng(), 3);
    }
}
