//! Pluggable path selection: the policy seam between the relay
//! directory and circuit placement.
//!
//! Which relays a circuit crosses determines which relays become
//! bottlenecks — and therefore how much a slow start helps — so
//! selection is an experimental axis, not a hard-wired rule. Scenarios
//! carry a [`SelectionPolicy`] (a shared [`PathSelection`] trait object;
//! policies are stateless, so a forked world shares one), the network
//! calls it for every placement, and experiments swap policies without
//! touching protocol code.
//!
//! A policy sees a [`DirectoryView`]: the SoA relay store
//! ([`crate::directory::Directory`] — bandwidth, access delay, liveness
//! columns) **plus live load telemetry** — the number of circuits
//! currently routed through each relay, kept by the network's placement
//! (`network/placement.rs`, its one owner) as circuits are placed and
//! torn down.
//! Initial placement therefore already feeds back (each circuit sees its
//! predecessors), and churn rebuilds re-select under the load left by
//! the surviving circuits. Dark (non-live) relays weigh zero and are
//! never selected.
//!
//! # One draw
//!
//! A policy only *weighs* relays ([`PathSelection::relay_weight`]); it
//! never draws. Every placement is drawn by a [`SelectionEngine`]: a
//! [`Sampler`] fed *incrementally* by load-ledger and liveness changes
//! (O(log n) per update with the Fenwick tree) plus reusable scratch
//! buffers, so a steady-state selection allocates nothing. The draws
//! consume randomness only from the [`SimRng`] passed in (the network's
//! dedicated placement stream) and are a pure function of
//! `(view, rng state, path_len)`. See DESIGN.md §9.
//!
//! [`select`] is the from-scratch form of the same draw — a fresh
//! engine over the [`SamplerKind::Linear`] oracle, drawn once — which
//! the tests compare the network's incremental Fenwick engine against.
//!
//! # Weights are integer-valued
//!
//! [`PathSelection::relay_weight`] must return integer-valued `f64`
//! weights (quantize with `round()`), keeping every draw exact and
//! therefore identical between the linear and Fenwick samplers and
//! between incremental updates and full rebuilds — the contract
//! [`crate::sampler`] documents and asserts.
//!
//! # Shipped policies
//!
//! | policy | weight of relay `i` | models |
//! |---|---|---|
//! | [`Uniform`] | 1 | unweighted sampling |
//! | [`BandwidthWeighted`] | `bw_i` | Tor's consensus-bandwidth weighting |
//! | [`LatencyAware`] | `round(1 / delay_i²)` | ShorTor-style latency-driven choice |
//! | [`CongestionAware`] | `round(bw_i / (1 + load_i))` | Imani et al.-style congestion avoidance |

use std::sync::Arc;

use simcore::rng::SimRng;
use simcore::time::SimDuration;

use crate::directory::Directory;
use crate::sampler::{Sampler, SamplerKind};

/// A selection policy as scenarios carry it: shared, cheaply cloneable,
/// usable both at build time and by the network's churn rebuilds.
pub type SelectionPolicy = Arc<dyn PathSelection>;

/// Every shipped policy, in canonical order — the single source of
/// truth for harnesses ("run each policy") so adding a policy extends
/// every sweep, bench, and differential test at once.
pub fn all_policies() -> [SelectionPolicy; 4] {
    [
        Arc::new(Uniform),
        Arc::new(BandwidthWeighted),
        Arc::new(LatencyAware),
        Arc::new(CongestionAware),
    ]
}

/// What a policy sees when asked to place a circuit: the relay store's
/// columns plus a snapshot of live load. The snapshot is taken at call
/// time — a policy must not assume it stays valid across calls (churn
/// changes it between placements).
#[derive(Clone, Copy, Debug)]
pub struct DirectoryView<'a> {
    directory: &'a Directory,
    load: &'a [u32],
    /// Client-side exclusion column (relays blamed for circuit
    /// timeouts); `None` means nothing is excluded. Orthogonal to the
    /// store's liveness column, which consensus epochs own.
    excluded: Option<&'a [bool]>,
}

impl<'a> DirectoryView<'a> {
    /// Pairs the relay store with its live circuit counts.
    ///
    /// # Panics
    ///
    /// Panics if `load` does not hold one counter per relay.
    pub fn new(directory: &'a Directory, load: &'a [u32]) -> DirectoryView<'a> {
        assert_eq!(
            directory.len(),
            load.len(),
            "one load counter per relay spec"
        );
        DirectoryView {
            directory,
            load,
            excluded: None,
        }
    }

    /// [`DirectoryView::new`] plus a blame-driven exclusion column:
    /// excluded relays weigh zero exactly like dark ones. An all-`false`
    /// column is behaviourally identical to [`DirectoryView::new`], so
    /// fault-free runs stay bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `load` or `excluded` do not hold one entry per relay.
    pub fn with_exclusions(
        directory: &'a Directory,
        load: &'a [u32],
        excluded: &'a [bool],
    ) -> DirectoryView<'a> {
        assert_eq!(
            directory.len(),
            load.len(),
            "one load counter per relay spec"
        );
        assert_eq!(
            directory.len(),
            excluded.len(),
            "one exclusion flag per relay spec"
        );
        DirectoryView {
            directory,
            load,
            excluded: Some(excluded),
        }
    }

    /// Number of relays in the provisioned universe.
    #[inline]
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Whether the view holds no relays. Always `false` for a
    /// constructed view (directories reject empty relay sets), kept
    /// for the standard `len`/`is_empty` pairing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// One relay's access-link rate, bit/s (column read).
    #[inline]
    pub fn bandwidth_bps(&self, relay: usize) -> u64 {
        self.directory.bandwidths_bps()[relay]
    }

    /// One relay's one-way access delay (column read).
    #[inline]
    pub fn delay(&self, relay: usize) -> SimDuration {
        self.directory.delays()[relay]
    }

    /// Whether `relay` carries a blame-driven exclusion.
    #[inline]
    pub fn is_excluded(&self, relay: usize) -> bool {
        self.excluded.is_some_and(|e| e[relay])
    }

    /// Whether `relay` may be selected at all: live and not excluded.
    /// This is the gate every weight computation uses.
    #[inline]
    pub fn is_selectable(&self, relay: usize) -> bool {
        self.directory.is_live(relay) && !self.is_excluded(relay)
    }

    /// Circuits currently routed through one relay.
    #[inline]
    pub fn load(&self, relay: usize) -> u32 {
        self.load[relay]
    }
}

/// The path-selection seam: a policy is its **per-relay weight**
/// ([`PathSelection::relay_weight`], integer-valued — see the module
/// docs). It does not draw: [`SelectionEngine`] turns the weights into
/// `path_len` distinct relay indices (in path order, client side first).
pub trait PathSelection: std::fmt::Debug + Send + Sync {
    /// Stable identifier used in experiment labels and bench keys.
    fn name(&self) -> &'static str;

    /// The selection weight of one **live** relay (the caller zeroes
    /// dark relays). Must be finite, non-negative, and integer-valued.
    fn relay_weight(&self, view: &DirectoryView<'_>, relay: usize) -> f64;

    /// Whether the weight depends on the live load view. Load-ledger
    /// changes only propagate into a [`SelectionEngine`]'s sampler for
    /// policies that return `true` — the others skip the per-relay
    /// update entirely.
    fn load_sensitive(&self) -> bool {
        false
    }

    /// Whether all live relays weigh the same, enabling the
    /// allocation-free Fisher–Yates fast path (which reproduces
    /// [`SimRng::sample_distinct`] pick for pick).
    fn draws_uniform(&self) -> bool {
        false
    }
}

/// Draws `path_len` distinct relay indices for `policy` from scratch: a
/// fresh [`SelectionEngine`] over the [`SamplerKind::Linear`] oracle,
/// drawn once. The reference the tests compare the network's
/// incremental Fenwick engine against; placement never calls it.
///
/// # Panics
///
/// Panics if fewer than `path_len` relays are selectable (live with
/// positive weight).
pub fn select(
    policy: &dyn PathSelection,
    view: &DirectoryView<'_>,
    rng: &mut SimRng,
    path_len: usize,
) -> Vec<usize> {
    SelectionEngine::new(policy, view, SamplerKind::Linear)
        .select(policy, view, rng, path_len)
        .to_vec()
}

fn assert_path_fits(view: &DirectoryView<'_>, path_len: usize) {
    assert!(
        path_len <= view.len(),
        "cannot pick {path_len} distinct relays from {}",
        view.len()
    );
}

fn assert_selectable(selectable: usize, relays: usize, path_len: usize) {
    assert!(
        selectable >= path_len,
        "only {selectable} of {relays} relays are selectable (positive weight), \
         but the path needs {path_len} distinct relays"
    );
}

/// The one selection path: a [`Sampler`] maintained incrementally plus
/// reusable scratch buffers, owned by the network's placement
/// (`network/placement.rs`). One engine serves one `(policy, directory)`
/// pair; the caller routes load-ledger and liveness changes through
/// [`SelectionEngine::load_changed`] / [`SelectionEngine::relay_changed`]
/// so the sampler's weights always mirror what the policy would compute
/// from scratch.
///
/// Steady-state [`SelectionEngine::select`] calls allocate nothing: the
/// uniform fast path permutes a persistent identity buffer and undoes
/// its swaps (reproducing [`SimRng::sample_distinct`] pick for pick),
/// and the weighted path draws from the sampler into a reusable pick
/// buffer; `selection`'s unit tests assert the buffer capacities stay
/// flat after warm-up.
#[derive(Clone, Debug)]
pub struct SelectionEngine {
    sampler: Sampler,
    load_sensitive: bool,
    uniform_fast: bool,
    /// Persistent `0..n` buffer for the uniform Fisher–Yates fast path;
    /// empty for a weighted policy, which never takes it.
    identity: Vec<usize>,
    /// Swap log of the current uniform draw, undone after each select.
    swaps: Vec<(usize, usize)>,
    /// Reusable output buffer.
    picks: Vec<usize>,
}

impl SelectionEngine {
    /// Builds the engine for `policy` over the current view, seeding the
    /// sampler with the policy's weights (dark relays weigh zero).
    pub fn new(
        policy: &dyn PathSelection,
        view: &DirectoryView<'_>,
        kind: SamplerKind,
    ) -> SelectionEngine {
        let weights: Vec<f64> = (0..view.len())
            .map(|i| effective_weight(policy, view, i))
            .collect();
        let uniform_fast = policy.draws_uniform();
        SelectionEngine {
            sampler: Sampler::build(kind, &weights),
            load_sensitive: policy.load_sensitive(),
            uniform_fast,
            identity: if uniform_fast {
                (0..view.len()).collect()
            } else {
                Vec::new()
            },
            swaps: Vec::new(),
            picks: Vec::new(),
        }
    }

    /// Number of relays with positive weight (O(1)).
    pub fn selectable(&self) -> usize {
        self.sampler.selectable()
    }

    /// Re-derives one relay's weight after *any* change (liveness flip,
    /// load change on a load-sensitive policy) and point-updates the
    /// sampler — O(log n) with the Fenwick tree.
    pub fn relay_changed(
        &mut self,
        policy: &dyn PathSelection,
        view: &DirectoryView<'_>,
        relay: usize,
    ) {
        self.sampler
            .set(relay, effective_weight(policy, view, relay));
    }

    /// Routes a load-ledger change: only load-sensitive policies have
    /// load in their weight, so everyone else skips the update.
    pub fn load_changed(
        &mut self,
        policy: &dyn PathSelection,
        view: &DirectoryView<'_>,
        relay: usize,
    ) {
        if self.load_sensitive {
            self.relay_changed(policy, view, relay);
        }
    }

    /// Selects `path_len` distinct relay indices — the same picks a
    /// fresh engine ([`select`]) would return (exactly: the two consume
    /// identical randomness), without rebuilding weights or allocating.
    /// The returned slice borrows the engine's pick buffer. The sampler
    /// already carries the policy's weights, so `_policy` only names
    /// which policy the engine was built for.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `path_len` relays are selectable.
    pub fn select(
        &mut self,
        _policy: &dyn PathSelection,
        view: &DirectoryView<'_>,
        rng: &mut SimRng,
        path_len: usize,
    ) -> &[usize] {
        // A uniform policy weighs every selectable relay 1, so the
        // sampler counts every relay exactly when all are selectable.
        if self.uniform_fast && self.sampler.selectable() == view.len() {
            assert_path_fits(view, path_len);
            // `SimRng::sample_distinct` without its O(n) allocation:
            // the same `range_usize(i, n)` swap sequence on the
            // persistent identity buffer, undone afterwards (a swap is
            // its own inverse, so reversing the log restores 0..n).
            let n = view.len();
            self.picks.clear();
            for i in 0..path_len {
                let j = rng.range_usize(i, n);
                self.identity.swap(i, j);
                self.swaps.push((i, j));
            }
            self.picks.extend_from_slice(&self.identity[..path_len]);
            while let Some((i, j)) = self.swaps.pop() {
                self.identity.swap(i, j);
            }
        } else {
            assert_selectable(self.sampler.selectable(), view.len(), path_len);
            self.sampler.draw_distinct(rng, path_len, &mut self.picks);
        }
        &self.picks
    }

    /// Scratch-buffer capacities `(picks, swaps, sampler undo)`: after
    /// warm-up these must not grow, or the "zero-alloc fast path" has
    /// silently regressed to per-call allocation.
    #[cfg(test)]
    fn scratch_footprint(&self) -> (usize, usize, usize) {
        (
            self.picks.capacity(),
            self.swaps.capacity(),
            self.sampler.scratch_capacity(),
        )
    }
}

/// The weight the sampler must carry for `relay` right now: the
/// policy's weight for selectable relays, zero for dark or excluded
/// ones.
fn effective_weight(policy: &dyn PathSelection, view: &DirectoryView<'_>, relay: usize) -> f64 {
    if view.is_selectable(relay) {
        policy.relay_weight(view, relay)
    } else {
        0.0
    }
}

/// Every relay is equally likely — the paper's default placement.
#[derive(Clone, Copy, Debug, Default)]
pub struct Uniform;

impl PathSelection for Uniform {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn relay_weight(&self, _view: &DirectoryView<'_>, _relay: usize) -> f64 {
        1.0
    }

    fn draws_uniform(&self) -> bool {
        true
    }
}

/// Probability proportional to access bandwidth — Tor's consensus-
/// bandwidth weighting, the baseline the paper's star evaluation models.
#[derive(Clone, Copy, Debug, Default)]
pub struct BandwidthWeighted;

impl PathSelection for BandwidthWeighted {
    fn name(&self) -> &'static str {
        "bandwidth"
    }

    fn relay_weight(&self, view: &DirectoryView<'_>, relay: usize) -> f64 {
        // Bit/s rates are integers below 2^53: already quantized.
        view.bandwidth_bps(relay) as f64
    }
}

/// Prefer low access-delay relays (cf. ShorTor's latency-driven routing
/// in PAPERS.md): weight `round(1 / delay²)`. The inverse-square
/// emphasis makes the preference decisive over the narrow delay ranges
/// directories generate, while never excluding a relay outright (the
/// delay floor keeps the rounded weight ≥ 1 for every sub-second
/// delay).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyAware;

/// Floor applied to access delays before inverting, so a zero-delay
/// test relay cannot produce an infinite weight (cap: 1e12, far below
/// the sampler's 2⁵³ exactness bound even at 7k relays).
const MIN_DELAY_S: f64 = 1e-6;

impl PathSelection for LatencyAware {
    fn name(&self) -> &'static str {
        "latency"
    }

    fn relay_weight(&self, view: &DirectoryView<'_>, relay: usize) -> f64 {
        let d = view.delay(relay).as_secs_f64().max(MIN_DELAY_S);
        (1.0 / (d * d)).round()
    }
}

/// Penalize relays by active-circuit load per unit bandwidth (cf. Imani
/// et al.'s congestion-aware relay choice in PAPERS.md): weight
/// `round(bw / (1 + load))`, i.e. bandwidth-proportional selection
/// discounted by the circuits already routed through the relay. With
/// zero load everywhere this intentionally reduces to
/// [`BandwidthWeighted`] (the rounding is exact at load 0); load
/// feedback is what differentiates it mid-experiment.
#[derive(Clone, Copy, Debug, Default)]
pub struct CongestionAware;

impl PathSelection for CongestionAware {
    fn name(&self) -> &'static str {
        "congestion"
    }

    fn relay_weight(&self, view: &DirectoryView<'_>, relay: usize) -> f64 {
        (view.bandwidth_bps(relay) as f64 / (1.0 + f64::from(view.load(relay)))).round()
    }

    fn load_sensitive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{DirectoryConfig, RelaySpec};
    use netsim::bandwidth::Bandwidth;

    fn rng() -> SimRng {
        SimRng::seed_from(42)
    }

    fn spec(mbps: u64, delay_ms: u64) -> RelaySpec {
        RelaySpec {
            bandwidth: Bandwidth::from_mbps(mbps),
            delay: SimDuration::from_millis(delay_ms),
        }
    }

    fn dir_of(specs: Vec<RelaySpec>) -> Directory {
        Directory::from_specs(specs)
    }

    #[test]
    fn every_policy_returns_distinct_in_range_indices() {
        let dir = Directory::generate(&DirectoryConfig::default(), &rng());
        let load = vec![0u32; dir.len()];
        for policy in all_policies() {
            let mut r = rng();
            for _ in 0..100 {
                let view = dir.view(&load);
                let p = select(policy.as_ref(), &view, &mut r, 3);
                assert_eq!(p.len(), 3, "{}", policy.name());
                let mut q = p.clone();
                q.sort_unstable();
                q.dedup();
                assert_eq!(q.len(), 3, "{} repeated a relay", policy.name());
                assert!(p.iter().all(|&i| i < dir.len()), "{}", policy.name());
            }
        }
    }

    #[test]
    fn uniform_matches_raw_distinct_sampling() {
        let dir = Directory::generate(&DirectoryConfig::default(), &rng());
        let load = vec![0u32; dir.len()];
        let mut a = rng();
        let mut b = rng();
        for _ in 0..50 {
            let view = dir.view(&load);
            assert_eq!(
                select(&Uniform, &view, &mut a, 3),
                b.sample_distinct(dir.len(), 3)
            );
        }
    }

    #[test]
    fn bandwidth_weighted_prefers_fat_relays() {
        // One relay 1000× the bandwidth of the others: it should appear
        // in nearly every 1-relay path.
        let mut specs = vec![spec(1, 10); 10];
        specs[4] = spec(1000, 10);
        let dir = dir_of(specs);
        let load = vec![0u32; dir.len()];
        let mut r = rng();
        let hits = (0..200)
            .filter(|_| {
                let view = dir.view(&load);
                select(&BandwidthWeighted, &view, &mut r, 1)[0] == 4
            })
            .count();
        assert!(hits > 150, "fat relay picked only {hits}/200 times");
    }

    #[test]
    fn latency_aware_prefers_near_relays() {
        // One relay at 1 ms among relays at 30 ms: the inverse-square
        // weight gives it ~99% of the mass.
        let mut specs = vec![spec(50, 30); 10];
        specs[7] = spec(50, 1);
        let dir = dir_of(specs);
        let load = vec![0u32; dir.len()];
        let mut r = rng();
        let hits = (0..200)
            .filter(|_| {
                let view = dir.view(&load);
                select(&LatencyAware, &view, &mut r, 1)[0] == 7
            })
            .count();
        assert!(hits > 150, "near relay picked only {hits}/200 times");
    }

    #[test]
    fn latency_aware_tolerates_zero_delay() {
        let dir = dir_of(vec![
            RelaySpec {
                bandwidth: Bandwidth::from_mbps(10),
                delay: SimDuration::ZERO,
            };
            4
        ]);
        let load = vec![0u32; 4];
        let mut r = rng();
        let view = dir.view(&load);
        let p = select(&LatencyAware, &view, &mut r, 2);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn congestion_aware_reduces_to_bandwidth_at_zero_load() {
        let dir = Directory::generate(&DirectoryConfig::default(), &rng());
        let load = vec![0u32; dir.len()];
        let mut a = rng();
        let mut b = rng();
        for _ in 0..50 {
            let view = dir.view(&load);
            assert_eq!(
                select(&CongestionAware, &view, &mut a, 3),
                select(&BandwidthWeighted, &view, &mut b, 3),
                "zero load must reproduce the Tor baseline"
            );
        }
    }

    #[test]
    fn congestion_aware_avoids_loaded_relays() {
        // Equal bandwidths, but relay 2 already carries 50 circuits: its
        // weight collapses to ~2% of an idle relay's.
        let dir = dir_of(vec![spec(20, 5); 8]);
        let mut load = vec![0u32; 8];
        load[2] = 50;
        let mut r = rng();
        let hits = (0..400)
            .filter(|_| {
                let view = dir.view(&load);
                select(&CongestionAware, &view, &mut r, 1)[0] == 2
            })
            .count();
        // Idle expectation would be 50; the penalty pushes it near 1.
        assert!(hits < 15, "loaded relay still picked {hits}/400 times");
    }

    #[test]
    fn congestion_aware_trades_bandwidth_against_load() {
        // A 100 Mbit/s relay carrying 9 circuits weighs 10 Mbit/s
        // effective — exactly an idle 10 Mbit/s relay. A 3× idle relay
        // must then dominate both.
        let dir = dir_of(vec![spec(100, 5), spec(30, 5), spec(10, 5)]);
        let load = vec![9u32, 0, 0];
        let mut r = rng();
        let mut counts = [0usize; 3];
        for _ in 0..600 {
            let view = dir.view(&load);
            counts[select(&CongestionAware, &view, &mut r, 1)[0]] += 1;
        }
        assert!(
            counts[1] > counts[0] && counts[1] > counts[2],
            "30 Mbit/s idle relay must dominate: {counts:?}"
        );
    }

    #[test]
    fn dark_relays_are_never_selected() {
        // Half the directory goes dark: every policy must route around
        // it — including Uniform, whose fast path only covers all-live.
        let mut dir = dir_of(vec![spec(20, 5); 10]);
        for r in [1usize, 3, 5, 7, 9] {
            dir.set_live(r, false);
        }
        let load = vec![0u32; 10];
        for policy in all_policies() {
            let mut r = rng();
            for _ in 0..50 {
                let view = dir.view(&load);
                let picks = select(policy.as_ref(), &view, &mut r, 3);
                assert!(
                    picks.iter().all(|&i| dir.is_live(i)),
                    "{} picked a dark relay: {picks:?}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn excluded_relays_are_never_selected() {
        // Blame-driven exclusions must gate every policy — including
        // Uniform, whose fast path must fall back to the weighted draw.
        let dir = dir_of(vec![spec(20, 5); 10]);
        let load = vec![0u32; 10];
        let mut excluded = vec![false; 10];
        for r in [2usize, 4, 6] {
            excluded[r] = true;
        }
        for policy in all_policies() {
            let mut r = rng();
            for _ in 0..50 {
                let view = DirectoryView::with_exclusions(&dir, &load, &excluded);
                let picks = select(policy.as_ref(), &view, &mut r, 3);
                assert!(
                    picks.iter().all(|&i| !excluded[i]),
                    "{} picked an excluded relay: {picks:?}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn all_false_exclusion_column_is_bit_identical() {
        // The fault-path seam must be free when nothing is excluded: an
        // all-false column consumes identical randomness and returns
        // identical picks to a plain view.
        let dir = Directory::generate(&DirectoryConfig::default(), &rng());
        let load = vec![0u32; dir.len()];
        let excluded = vec![false; dir.len()];
        for policy in all_policies() {
            let mut a = rng();
            let mut b = rng();
            for _ in 0..50 {
                let plain = select(policy.as_ref(), &DirectoryView::new(&dir, &load), &mut a, 3);
                let gated = select(
                    policy.as_ref(),
                    &DirectoryView::with_exclusions(&dir, &load, &excluded),
                    &mut b,
                    3,
                );
                assert_eq!(plain, gated, "{}", policy.name());
            }
        }
    }

    #[test]
    fn engine_honours_exclusions_like_the_policy() {
        // The incremental engine must track exclusion flips exactly as
        // a from-scratch `select` sees them.
        for kind in [SamplerKind::Linear, SamplerKind::Fenwick] {
            for policy in all_policies() {
                let dir = dir_of(vec![spec(20, 5); 12]);
                let load = vec![0u32; 12];
                let mut excluded = vec![false; 12];
                let mut engine = SelectionEngine::new(
                    policy.as_ref(),
                    &DirectoryView::with_exclusions(&dir, &load, &excluded),
                    kind,
                );
                let mut a = SimRng::seed_from(3);
                let mut b = a.clone();
                for round in 0..24 {
                    if round % 4 == 1 && round / 4 < 12 {
                        let r = round / 4 * 3 % 12;
                        excluded[r] = true;
                        engine.relay_changed(
                            policy.as_ref(),
                            &DirectoryView::with_exclusions(&dir, &load, &excluded),
                            r,
                        );
                    }
                    let view = DirectoryView::with_exclusions(&dir, &load, &excluded);
                    let want = select(policy.as_ref(), &view, &mut a, 3);
                    let got = engine.select(policy.as_ref(), &view, &mut b, 3);
                    assert_eq!(
                        got,
                        want.as_slice(),
                        "{} {kind:?} round {round}",
                        policy.name()
                    );
                    assert!(got.iter().all(|&i| !excluded[i]));
                }
            }
        }
    }

    #[test]
    fn engine_reproduces_policy_selects() {
        // The incremental engine and a from-scratch `select` must
        // consume identical randomness and return identical picks,
        // for every shipped policy and both sampler implementations —
        // including under load changes and liveness flips between
        // selects.
        for kind in [SamplerKind::Linear, SamplerKind::Fenwick] {
            for policy in all_policies() {
                let dir_rng = SimRng::seed_from(7);
                let mut dir = Directory::generate(
                    &DirectoryConfig {
                        relays: 25,
                        ..DirectoryConfig::default()
                    },
                    &dir_rng,
                );
                let mut load = vec![0u32; dir.len()];
                let mut engine = SelectionEngine::new(policy.as_ref(), &dir.view(&load), kind);
                let mut a = SimRng::seed_from(99);
                let mut b = a.clone();
                let mut mutate = SimRng::seed_from(5);
                for round in 0..60 {
                    let view = dir.view(&load);
                    let want = select(policy.as_ref(), &view, &mut a, 3);
                    let got = engine.select(policy.as_ref(), &view, &mut b, 3);
                    assert_eq!(
                        got,
                        want.as_slice(),
                        "{} {:?} round {round}",
                        policy.name(),
                        kind
                    );
                    // Mutate load and liveness like the network would,
                    // keeping the engine in the loop.
                    let r = mutate.range_usize(0, dir.len());
                    load[r] = (load[r] + 1) % 7;
                    engine.load_changed(policy.as_ref(), &dir.view(&load), r);
                    if round % 10 == 9 {
                        let d = mutate.range_usize(0, dir.len());
                        let next = !dir.is_live(d);
                        dir.set_live(d, next);
                        engine.relay_changed(policy.as_ref(), &dir.view(&load), d);
                    }
                }
            }
        }
    }

    #[test]
    fn engine_scratch_stays_flat() {
        let dir = Directory::generate(
            &DirectoryConfig {
                relays: 100,
                ..DirectoryConfig::default()
            },
            &rng(),
        );
        let load = vec![0u32; dir.len()];
        for policy in all_policies() {
            let mut engine =
                SelectionEngine::new(policy.as_ref(), &dir.view(&load), SamplerKind::Fenwick);
            let mut r = rng();
            // Warm up, then assert capacities never move again.
            for _ in 0..5 {
                engine.select(policy.as_ref(), &dir.view(&load), &mut r, 3);
            }
            let warm = engine.scratch_footprint();
            for _ in 0..200 {
                engine.select(policy.as_ref(), &dir.view(&load), &mut r, 3);
            }
            assert_eq!(
                engine.scratch_footprint(),
                warm,
                "{}: scratch buffers must stop growing after warm-up",
                policy.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "only 1 of 3 relays are selectable (positive weight)")]
    fn too_few_selectable_relays_panic_in_the_engine() {
        // Three relays, two of them dark: the engine names the shortfall
        // before its sampler is asked for an impossible draw.
        let mut dir = dir_of(vec![spec(4, 1); 3]);
        dir.set_live(0, false);
        dir.set_live(2, false);
        let load = vec![0u32; 3];
        let _ = select(&BandwidthWeighted, &dir.view(&load), &mut rng(), 3);
    }

    #[test]
    #[should_panic(expected = "distinct relays")]
    fn path_longer_than_directory_panics() {
        let dir = dir_of(vec![spec(1, 0)]);
        let load = vec![0u32];
        let view = dir.view(&load);
        let _ = select(&Uniform, &view, &mut rng(), 2);
    }

    #[test]
    #[should_panic(expected = "one load counter per relay")]
    fn mismatched_load_slice_rejected() {
        let dir = dir_of(vec![spec(1, 1); 3]);
        let load = vec![0u32; 2];
        let _ = DirectoryView::new(&dir, &load);
    }
}
