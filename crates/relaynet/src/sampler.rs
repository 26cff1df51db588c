//! Incremental weighted sampling: the draw engine behind path selection.
//!
//! Every weighted [`crate::selection::PathSelection`] policy reduces to
//! the same primitive — draw `path_len` distinct relay indices with
//! probability proportional to per-relay weights — and at consensus
//! scale (~7k relays) that primitive is the hot path, not a setup step.
//! This module provides it behind a seam, mirroring the
//! `QueueKind`/`EventQueue` pattern in `simcore` (a kind enum and one
//! `match`-dispatching enum over the implementations):
//!
//! * [`LinearSampler`] — the historical O(n)-per-draw scan, kept as the
//!   differential oracle and as the default for small directories where
//!   the scan's cache behaviour beats tree bookkeeping.
//! * [`FenwickSampler`] — a Fenwick (binary indexed) tree over the
//!   weights: O(log n) draw and O(log n) point update, fed incrementally
//!   by the load ledger instead of rebuilt per selection.
//! * [`SamplerKind`] — the scenario-level switch, with an `Auto` mode
//!   that crosses over at [`FENWICK_CROSSOVER`] relays.
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
//!    `tests/path_selection.rs` therefore hold under either sampler,
//!    and the `Auto` crossover is purely a performance decision.
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

/// Directory size at which [`SamplerKind::Auto`] switches from the
/// linear scan to the Fenwick tree. Below this the O(n) scan's simple
/// sequential pass is at least as fast as O(log n) tree hops, and the
/// legacy code path stays exercised by every small scenario.
pub const FENWICK_CROSSOVER: usize = 64;

/// Which weighted-sampler implementation placement uses — the sampler
/// seam's scenario-level switch (compare `simcore::event::QueueKind`).
/// Pick equivalence (module docs) makes the choice unobservable in
/// experiment outcomes; it only changes selection cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SamplerKind {
    /// Linear below [`FENWICK_CROSSOVER`] relays, Fenwick at or above.
    #[default]
    Auto,
    /// Always the O(n) linear scan (the differential oracle).
    Linear,
    /// Always the O(log n) Fenwick tree.
    Fenwick,
}

impl SamplerKind {
    /// Resolves `Auto` against a directory size.
    pub fn resolve(self, relays: usize) -> SamplerKind {
        match self {
            SamplerKind::Auto => {
                if relays >= FENWICK_CROSSOVER {
                    SamplerKind::Fenwick
                } else {
                    SamplerKind::Linear
                }
            }
            other => other,
        }
    }
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
/// implementation behind one dispatch point, so `PlacementState` carries
/// "a sampler" without committing to a representation.
#[derive(Clone, Debug)]
pub enum Sampler {
    /// The O(n) linear scan.
    Linear(LinearSampler),
    /// The O(log n) Fenwick tree.
    Fenwick(FenwickSampler),
}

impl Sampler {
    /// Builds the sampler `kind` resolves to for `weights.len()` relays.
    pub fn build(kind: SamplerKind, weights: &[f64]) -> Sampler {
        match kind.resolve(weights.len()) {
            SamplerKind::Linear => Sampler::Linear(LinearSampler::new(weights)),
            SamplerKind::Fenwick => Sampler::Fenwick(FenwickSampler::new(weights)),
            SamplerKind::Auto => unreachable!("resolve() never returns Auto"),
        }
    }

    /// Implementation name for experiment labels and bench keys.
    pub fn name(&self) -> &'static str {
        match self {
            Sampler::Linear(_) => "linear",
            Sampler::Fenwick(_) => "fenwick",
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

/// The historical weighted draw: per draw, one uniform variate scanned
/// against the weights with running subtraction. O(n) per draw, O(1)
/// point update, zero setup — the right shape for small directories and
/// the oracle the Fenwick implementation is differentially tested
/// against.
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
        // the arithmetic is exact and the fallback never fires, but the
        // shape is kept identical to the legacy scan it replaces.
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

    fn rng() -> SimRng {
        SimRng::seed_from(42)
    }

    #[test]
    fn kinds_resolve_at_the_crossover() {
        assert_eq!(SamplerKind::Auto.resolve(1), SamplerKind::Linear);
        assert_eq!(
            SamplerKind::Auto.resolve(FENWICK_CROSSOVER - 1),
            SamplerKind::Linear
        );
        assert_eq!(
            SamplerKind::Auto.resolve(FENWICK_CROSSOVER),
            SamplerKind::Fenwick
        );
        assert_eq!(SamplerKind::Linear.resolve(100_000), SamplerKind::Linear);
        assert_eq!(SamplerKind::Fenwick.resolve(2), SamplerKind::Fenwick);
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
                assert_eq!(s.total(), 12.0, "{}", s.name());
                assert_eq!(s.selectable(), 3, "{}", s.name());
                for (i, &w) in weights.iter().enumerate() {
                    assert_eq!(s.weight(i), w, "{}", s.name());
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
                assert_eq!(out, [3, 4], "{}", s.name());
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
}
