//! The relay store: the population path selection draws from, laid out
//! for consensus scale.
//!
//! The paper evaluates over "a randomly generated network of Tor relays".
//! The exact distribution is not published, so this module exposes it as a
//! parameter with a heavy-tailed (log-uniform) default — relay capacity in
//! the live Tor network spans orders of magnitude.
//!
//! # Structure-of-arrays layout (DESIGN.md §11)
//!
//! At the ~7k relays of a real consensus, selection iterates the
//! directory on the hot path, so [`Directory`] stores parallel dense
//! arrays — bandwidth (bit/s), access delay, liveness — rather than an
//! array of structs. A weight pass touches exactly the columns it needs
//! (`bandwidth` for Tor weighting, `delay` for latency-aware) instead of
//! striding over full records. [`RelaySpec`] remains the public
//! per-relay view, materialized on demand by [`Directory::spec`].
//!
//! The directory is only the *population*: deciding which relays a
//! circuit crosses is the job of a [`crate::selection::PathSelection`]
//! policy, which sees the store through a
//! [`crate::selection::DirectoryView`] (the columns plus live per-relay
//! load). [`Directory::view`] pairs a directory with a load slice;
//! policies enforce Tor's essential rule that relays on a path are
//! distinct.
//!
//! # Liveness and epoch churn
//!
//! Every relay is *provisioned* (it has an access link and an overlay
//! node) but only **live** relays are selectable. Consensus epochs flip
//! liveness via [`EpochDelta`]s — a membership-as-a-stream model: the
//! relay universe is fixed at build time, departures zero a relay's
//! selection weight, and joins bring standby relays into the live set.
//! "How many are selectable?" is the selection engine's O(1) count, so
//! nothing re-scans the store.

use netsim::bandwidth::Bandwidth;
use simcore::rng::SimRng;
use simcore::time::SimDuration;

use crate::selection::DirectoryView;

/// A relay's access-link characteristics — the public per-relay view,
/// materialized from the SoA store on demand.
#[derive(Clone, Copy, Debug)]
pub struct RelaySpec {
    /// Access-link rate (both directions).
    pub bandwidth: Bandwidth,
    /// One-way propagation delay of the access link.
    pub delay: SimDuration,
}

/// Parameters for relay generation.
#[derive(Clone, Copy, Debug)]
pub struct DirectoryConfig {
    /// Number of relays.
    pub relays: usize,
    /// Relay bandwidth is log-uniform in `[low, high]` Mbit/s.
    pub bandwidth_mbps: (f64, f64),
    /// Access-link one-way delay is uniform in `[low, high]` ms.
    pub delay_ms: (f64, f64),
}

impl Default for DirectoryConfig {
    fn default() -> Self {
        DirectoryConfig {
            relays: 30,
            bandwidth_mbps: (20.0, 100.0),
            // Chosen so per-circuit bottleneck shares land at bandwidth-
            // delay products of tens of cells (the regime the paper's
            // Figure 1 axes imply): ~5 circuits share a relay, so shares
            // run 4–20 Mbit/s over ~15–35 ms hop RTTs.
            delay_ms: (3.0, 10.0),
        }
    }
}

/// One consensus epoch's membership change: relays departing the live
/// set and standby relays joining it. Indices are relay ids into the
/// fixed provisioned universe — the stream-of-deltas shape lets churn
/// scale with the *change*, not the directory size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochDelta {
    /// Relay ids leaving the live set this epoch.
    pub leave: Vec<u32>,
    /// Relay ids (re)joining the live set this epoch.
    pub join: Vec<u32>,
}

impl EpochDelta {
    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.leave.is_empty() && self.join.is_empty()
    }
}

/// The relay store: parallel dense arrays over a fixed relay universe.
/// Path selection over the set goes through a
/// [`crate::selection::PathSelection`] policy on a [`DirectoryView`].
#[derive(Clone, Debug)]
pub struct Directory {
    /// Access-link rate per relay, bit/s.
    bandwidth_bps: Vec<u64>,
    /// One-way access delay per relay.
    delay: Vec<SimDuration>,
    /// Membership: only live relays are selectable.
    live: Vec<bool>,
}

impl Directory {
    /// Samples `cfg.relays` relays using the stream derived from `rng`.
    /// All relays start live.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.relays == 0` or ranges are invalid.
    pub fn generate(cfg: &DirectoryConfig, rng: &SimRng) -> Directory {
        assert!(cfg.relays > 0, "directory needs at least one relay");
        assert!(
            cfg.bandwidth_mbps.0 > 0.0 && cfg.bandwidth_mbps.1 > cfg.bandwidth_mbps.0,
            "invalid bandwidth range"
        );
        assert!(
            cfg.delay_ms.0 >= 0.0 && cfg.delay_ms.1 >= cfg.delay_ms.0,
            "invalid delay range"
        );
        let mut bandwidth_bps = Vec::with_capacity(cfg.relays);
        let mut delay = Vec::with_capacity(cfg.relays);
        // Log-uniform bandwidth: the exponent is uniform between the
        // bounds' logarithms.
        let log_mbps = (cfg.bandwidth_mbps.0.log10(), cfg.bandwidth_mbps.1.log10());
        for i in 0..cfg.relays {
            // cs-lint: allow(rng-discipline, reason = "per-relay sub-stream of the builder's derive(directory) stream; labeled and index-rooted, so specs stay independent of draw order")
            let mut r = rng.derive_indexed("relay-spec", i as u64);
            let mbps = 10f64.powf(r.range_f64(log_mbps.0, log_mbps.1));
            let delay_ms = if cfg.delay_ms.1 > cfg.delay_ms.0 {
                r.range_f64(cfg.delay_ms.0, cfg.delay_ms.1)
            } else {
                cfg.delay_ms.0
            };
            bandwidth_bps.push(Bandwidth::from_mbps_f64(mbps).bps());
            delay.push(SimDuration::from_secs_f64(delay_ms / 1e3));
        }
        let live = vec![true; cfg.relays];
        Directory {
            bandwidth_bps,
            delay,
            live,
        }
    }

    /// Builds a directory from explicit specs (tests, hand-tuned
    /// setups). All relays start live.
    pub fn from_specs(relays: Vec<RelaySpec>) -> Directory {
        assert!(!relays.is_empty(), "directory needs at least one relay");
        Directory {
            bandwidth_bps: relays.iter().map(|r| r.bandwidth.bps()).collect(),
            delay: relays.iter().map(|r| r.delay).collect(),
            live: vec![true; relays.len()],
        }
    }

    /// One relay's spec, materialized from the columns.
    #[inline]
    pub fn spec(&self, relay: usize) -> RelaySpec {
        RelaySpec {
            bandwidth: Bandwidth::from_bps(self.bandwidth_bps[relay]),
            delay: self.delay[relay],
        }
    }

    /// Iterates all relay specs in relay-id order (materialized views).
    pub fn iter_specs(&self) -> impl Iterator<Item = RelaySpec> + '_ {
        (0..self.len()).map(|i| self.spec(i))
    }

    /// The bandwidth column, bit/s per relay.
    #[inline]
    pub fn bandwidths_bps(&self) -> &[u64] {
        &self.bandwidth_bps
    }

    /// The access-delay column.
    #[inline]
    pub fn delays(&self) -> &[SimDuration] {
        &self.delay
    }

    /// The liveness column.
    #[inline]
    pub fn live(&self) -> &[bool] {
        &self.live
    }

    /// Whether `relay` is currently in the live set.
    #[inline]
    pub fn is_live(&self, relay: usize) -> bool {
        self.live[relay]
    }

    /// Flips `relay`'s membership; returns `true` if the state actually
    /// changed (an already-live join or already-dark leave is a no-op).
    pub fn set_live(&mut self, relay: usize, live: bool) -> bool {
        if self.live[relay] == live {
            return false;
        }
        self.live[relay] = live;
        true
    }

    /// Number of relays in the provisioned universe (live or dark).
    #[inline]
    pub fn len(&self) -> usize {
        self.bandwidth_bps.len()
    }

    /// Whether the directory holds no relays. Always `false` for a
    /// constructed directory — both constructors reject empty relay
    /// sets — but provided for the standard `len`/`is_empty` pairing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bandwidth_bps.is_empty()
    }

    /// Pairs the directory with live per-relay load, producing the view
    /// a [`crate::selection::PathSelection`] policy selects over.
    ///
    /// # Panics
    ///
    /// Panics if `load` does not hold one counter per relay.
    pub fn view<'a>(&'a self, load: &'a [u32]) -> DirectoryView<'a> {
        DirectoryView::new(self, load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::{select, Uniform};

    fn rng() -> SimRng {
        SimRng::seed_from(42)
    }

    #[test]
    fn generate_respects_ranges() {
        let cfg = DirectoryConfig {
            relays: 50,
            bandwidth_mbps: (10.0, 100.0),
            delay_ms: (5.0, 15.0),
        };
        let dir = Directory::generate(&cfg, &rng());
        assert_eq!(dir.len(), 50);
        assert!(!dir.is_empty());
        assert!(dir.live().iter().all(|&l| l), "all relays start live");
        for r in dir.iter_specs() {
            let mbps = r.bandwidth.as_mbps_f64();
            assert!((10.0..=100.0).contains(&mbps), "bw {mbps}");
            let ms = r.delay.as_millis_f64();
            assert!((5.0..=15.0).contains(&ms), "delay {ms}");
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let cfg = DirectoryConfig::default();
        let a = Directory::generate(&cfg, &SimRng::seed_from(7));
        let b = Directory::generate(&cfg, &SimRng::seed_from(7));
        let c = Directory::generate(&cfg, &SimRng::seed_from(8));
        for (x, y) in a.iter_specs().zip(b.iter_specs()) {
            assert_eq!(x.bandwidth, y.bandwidth);
            assert_eq!(x.delay, y.delay);
        }
        let same = a
            .iter_specs()
            .zip(c.iter_specs())
            .filter(|(x, y)| x.bandwidth == y.bandwidth)
            .count();
        assert!(same < 3, "different seeds should differ");
    }

    #[test]
    fn soa_columns_match_materialized_specs() {
        let dir = Directory::generate(&DirectoryConfig::default(), &rng());
        for (i, spec) in dir.iter_specs().enumerate() {
            assert_eq!(spec.bandwidth.bps(), dir.bandwidths_bps()[i]);
            assert_eq!(spec.delay, dir.delays()[i]);
        }
        let rt = Directory::from_specs(dir.iter_specs().collect());
        assert_eq!(rt.bandwidths_bps(), dir.bandwidths_bps());
        assert_eq!(rt.delays(), dir.delays());
    }

    #[test]
    fn fixed_delay_range_allowed() {
        let cfg = DirectoryConfig {
            relays: 3,
            bandwidth_mbps: (10.0, 20.0),
            delay_ms: (10.0, 10.0),
        };
        let dir = Directory::generate(&cfg, &rng());
        for r in dir.iter_specs() {
            assert_eq!(r.delay, SimDuration::from_millis(10));
        }
    }

    #[test]
    fn liveness_toggles_report_a_state_change() {
        let mut dir = Directory::generate(&DirectoryConfig::default(), &rng());
        assert!(dir.set_live(3, false), "live -> dark changes state");
        assert!(!dir.set_live(3, false), "dark -> dark is a no-op");
        assert!(!dir.is_live(3));
        assert!(dir.set_live(3, true));
        assert!(!dir.set_live(3, true), "live -> live is a no-op");
        assert!(dir.is_live(3));
    }

    #[test]
    fn view_pairs_specs_with_load() {
        let dir = Directory::generate(&DirectoryConfig::default(), &rng());
        let load = vec![0u32; dir.len()];
        let view = dir.view(&load);
        assert_eq!(view.len(), dir.len());
        let mut r = rng();
        let p = select(&Uniform, &view, &mut r, 3);
        assert_eq!(p.len(), 3);
    }

    #[test]
    #[should_panic(expected = "one load counter per relay")]
    fn view_rejects_mismatched_load() {
        let dir = Directory::generate(&DirectoryConfig::default(), &rng());
        let load = vec![0u32; dir.len() + 1];
        let _ = dir.view(&load);
    }

    #[test]
    fn log_uniform_bandwidths_span_decade() {
        let cfg = DirectoryConfig {
            relays: 300,
            bandwidth_mbps: (10.0, 100.0),
            delay_ms: (5.0, 15.0),
        };
        let dir = Directory::generate(&cfg, &rng());
        let low = dir
            .iter_specs()
            .filter(|r| r.bandwidth.as_mbps_f64() < 31.6)
            .count();
        let frac = low as f64 / 300.0;
        assert!(
            (0.35..0.65).contains(&frac),
            "log-uniform: ~half below the geometric mean, got {frac}"
        );
    }

    #[test]
    fn epoch_delta_default_is_empty() {
        assert!(EpochDelta::default().is_empty());
        assert!(!EpochDelta {
            leave: vec![1],
            join: vec![],
        }
        .is_empty());
    }
}
