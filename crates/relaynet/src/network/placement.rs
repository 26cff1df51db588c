//! Circuit placement: the one owner of the relay population, the load
//! ledger, liveness and blame.
//!
//! A star world installs a [`Placement`] ([`TorNetwork::install_placement`]);
//! explicit-path worlds have none and rebuild churned circuits over
//! their original path. Everything placement knows lives in its private
//! fields, and the protocol stages only call the methods below:
//!
//! * **Draws** — [`TorNetwork::select_relays`] and the rebuild path
//!   ([`TorNetwork::rebuild_path`]) ask the [`SelectionEngine`] for
//!   distinct relays under the current load view, drawing only from the
//!   dedicated `derive("paths")` stream (DESIGN.md §9).
//! * **The load ledger** — a circuit incarnation is accounted once when
//!   it is registered and unaccounted once when its client-side
//!   participation is reclaimed; [`TorNetwork::verify_placement_ledger`]
//!   recounts it from the circuit records.
//! * **Liveness and blame** — consensus epochs flip the directory's live
//!   column ([`TorNetwork::apply_epoch`]) and timeout blame sets the
//!   exclusion column ([`TorNetwork::exclude_relay`]); either way the
//!   relay's weight in the engine is re-derived at once.
//!
//! Relay `r` is overlay node `OverlayId(r)` in every world: a star
//! builder adds the relays' overlay nodes first, in directory order,
//! and a path world's schedules name overlay ids directly. So no table
//! translates between the two.

use simcore::rng::SimRng;
use simcore::sim::Context;

use crate::directory::{Directory, EpochDelta};
use crate::event::TorEvent;
use crate::ids::{CircId, OverlayId};
use crate::node::NodeRole;
use crate::sampler::SamplerKind;
use crate::selection::{DirectoryView, PathSelection, SelectionEngine, SelectionPolicy};

use super::{TorNetwork, DESTROY_REASON_FINISHED};

/// Circuit-placement state: the relay population, the selection policy,
/// its dedicated randomness stream, and **live load telemetry** — the
/// number of circuits currently routed through each relay.
pub(super) struct Placement {
    /// The SoA relay store: bandwidth, delay, and liveness columns,
    /// indexed by relay id (the directory order).
    directory: Directory,
    /// Relays excluded from selection after being blamed for a circuit
    /// timeout (the client-side failure-attribution set; orthogonal to
    /// directory liveness, which only epochs toggle).
    excluded: Vec<bool>,
    /// Circuits currently routed through each relay.
    load: Vec<u32>,
    /// High-water mark of `load`: the worst concentration each relay
    /// ever saw, surviving teardown decrements — the per-relay hotspot
    /// metric placement experiments compare.
    load_hwm: Vec<u32>,
    /// The pluggable policy (see [`crate::selection`]).
    policy: SelectionPolicy,
    /// The placement randomness stream; policies may only draw from
    /// here (DESIGN.md §9).
    rng: SimRng,
    /// The incremental selection engine: sampler kept in lockstep with
    /// the load ledger, liveness and exclusion columns, plus reusable
    /// scratch buffers (see [`SelectionEngine`]).
    engine: SelectionEngine,
    /// Pending consensus epoch deltas, indexed by epoch number; each is
    /// consumed (taken) when its [`TorEvent::Epoch`] fires.
    epoch_deltas: Vec<EpochDelta>,
}

impl Placement {
    /// The relay id hosted by `node`, if it hosts one.
    fn relay_of(&self, node: OverlayId) -> Option<usize> {
        (node.index() < self.directory.len()).then_some(node.index())
    }

    /// Hands the engine the current view, policy and stream: the one
    /// place a [`DirectoryView`] over the placement state is built.
    fn drive<R>(
        &mut self,
        f: impl FnOnce(&mut SelectionEngine, &dyn PathSelection, &DirectoryView<'_>, &mut SimRng) -> R,
    ) -> R {
        let Placement {
            directory,
            excluded,
            load,
            policy,
            rng,
            engine,
            ..
        } = self;
        let view = DirectoryView::with_exclusions(directory, load, excluded);
        f(engine, policy.as_ref(), &view, rng)
    }

    /// `path_len` distinct relays under the current load view, as the
    /// overlay nodes hosting them (in path order).
    fn select(&mut self, path_len: usize) -> Vec<OverlayId> {
        self.drive(|engine, policy, view, rng| {
            let picks = engine.select(policy, view, rng, path_len);
            assert_eq!(
                picks.len(),
                path_len,
                "policy `{}` returned {} relays, wanted {path_len}",
                policy.name(),
                picks.len()
            );
            for (i, &a) in picks.iter().enumerate() {
                assert!(
                    a < view.len(),
                    "policy `{}` picked out-of-range relay {a}",
                    policy.name()
                );
                assert!(
                    !picks[..i].contains(&a),
                    "policy `{}` picked relay {a} twice",
                    policy.name()
                );
            }
            picks.iter().map(|&r| OverlayId(r as u32)).collect()
        })
    }

    /// Re-derives `relay`'s weight after a liveness or exclusion change
    /// (O(log n)).
    fn relay_changed(&mut self, relay: usize) {
        self.drive(|engine, policy, view, _| engine.relay_changed(policy, view, relay));
    }

    /// Propagates one relay's load-ledger change into the sampler
    /// (O(log n); a no-op for load-insensitive policies).
    fn load_changed(&mut self, relay: usize) {
        self.drive(|engine, policy, view, _| engine.load_changed(policy, view, relay));
    }

    /// Flips one relay's liveness; `false` if it was already so.
    fn set_live(&mut self, relay: usize, live: bool) -> bool {
        let changed = self.directory.set_live(relay, live);
        if changed {
            self.relay_changed(relay);
        }
        changed
    }
}

impl TorNetwork {
    /// Installs circuit placement: the relay store, the selection
    /// policy, and the placement randomness stream. Relay `r` is hosted
    /// by overlay node `OverlayId(r)`, so the relays' overlay nodes must
    /// already be registered, first and in directory order. The
    /// selection engine is built over the Fenwick sampler. Must be
    /// called before the first placement; all load counters start at
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or if an overlay node in
    /// `0..directory.len()` is missing or not a relay.
    pub fn install_placement(
        &mut self,
        directory: Directory,
        policy: SelectionPolicy,
        rng: SimRng,
    ) {
        assert!(self.placement.is_none(), "placement installed twice");
        assert!(
            directory.len() <= self.nodes.len()
                && self.nodes[..directory.len()]
                    .iter()
                    .all(|n| n.role == NodeRole::Relay),
            "relay r must be hosted by overlay node r"
        );
        let load = vec![0u32; directory.len()];
        let engine = SelectionEngine::new(
            policy.as_ref(),
            &DirectoryView::new(&directory, &load),
            SamplerKind::Fenwick,
        );
        self.placement = Some(Placement {
            excluded: vec![false; directory.len()],
            load_hwm: load.clone(),
            load,
            directory,
            policy,
            rng,
            engine,
            epoch_deltas: Vec::new(),
        });
    }

    /// Asks the installed policy for `path_len` distinct relays under
    /// the current load view, returning the overlay nodes hosting them
    /// (in path order). Used for initial placement by star builders and
    /// (through `rebuild_path`) when a torn-down circuit rebuilds. Runs
    /// through the incremental [`SelectionEngine`] — no weight rebuild,
    /// no allocation on the steady-state path.
    ///
    /// # Panics
    ///
    /// Panics if no placement is installed, if fewer than `path_len`
    /// relays are selectable, or if the engine returns a malformed path
    /// (wrong count, out-of-range or repeated indices).
    pub fn select_relays(&mut self, path_len: usize) -> Vec<OverlayId> {
        self.placement
            .as_mut()
            .expect("no placement policy installed")
            .select(path_len)
    }

    /// The path a rebuild of a circuit over `old_path` takes: with
    /// placement, the same client and server around freshly selected
    /// relays (churn feeds back into placement, as real clients re-route
    /// around congested relays); without it, `old_path` itself.
    pub(super) fn rebuild_path(&mut self, old_path: Vec<OverlayId>) -> Vec<OverlayId> {
        let interior = old_path.len().saturating_sub(2);
        let Some(p) = self.placement.as_mut().filter(|_| interior > 0) else {
            return old_path;
        };
        let mut path = Vec::with_capacity(old_path.len());
        path.push(old_path[0]);
        path.extend(p.select(interior));
        path.push(old_path[old_path.len() - 1]);
        path
    }

    /// Excludes one relay from future selection (blame after a circuit
    /// timeout), propagating the weight change into the selection
    /// engine. Returns `false` if already excluded or no placement is
    /// installed.
    pub fn exclude_relay(&mut self, relay: usize) -> bool {
        let Some(p) = self.placement.as_mut() else {
            return false;
        };
        if std::mem::replace(&mut p.excluded[relay], true) {
            return false;
        }
        p.relay_changed(relay);
        true
    }

    /// Number of relays currently selectable (live, unexcluded, positive
    /// weight) — O(1) via the selection engine; `None` without
    /// placement. The graceful-degradation gate in the recovery loop
    /// compares this against the interior path length.
    pub fn selectable_relays(&self) -> Option<usize> {
        self.placement.as_ref().map(|p| p.engine.selectable())
    }

    /// Circuits currently routed through each relay (indexed by relay
    /// id), if placement is installed. Grows on circuit registration and
    /// shrinks when the client-side participation is reclaimed after
    /// teardown, so full churn teardown returns every counter to zero.
    pub fn relay_loads(&self) -> Option<&[u32]> {
        self.placement.as_ref().map(|p| p.load.as_slice())
    }

    /// High-water mark of [`TorNetwork::relay_loads`]: the worst circuit
    /// concentration each relay ever carried, surviving teardown
    /// decrements. This is the hotspot metric placement experiments
    /// compare — an end-of-run load snapshot hides the mid-run
    /// concentrations churn already rebuilt away from.
    pub fn relay_load_hwms(&self) -> Option<&[u32]> {
        self.placement.as_ref().map(|p| p.load_hwm.as_slice())
    }

    /// Per-relay liveness column (indexed by relay id), if placement is
    /// installed. Dark relays are never selected.
    pub fn relay_live(&self) -> Option<&[bool]> {
        self.placement.as_ref().map(|p| p.directory.live())
    }

    /// Installs the consensus epoch delta stream; delta `i` is applied
    /// when [`TorEvent::Epoch`]`(i)` fires (builders schedule those at
    /// the epoch boundaries).
    ///
    /// # Panics
    ///
    /// Panics if no placement is installed, or if deltas were already
    /// installed.
    pub fn install_epochs(&mut self, deltas: Vec<EpochDelta>) {
        let p = self.placement.as_mut().expect("epochs need a placement");
        assert!(p.epoch_deltas.is_empty(), "epoch deltas installed twice");
        p.epoch_deltas = deltas;
    }

    /// Checks the placement ledger invariant: every relay's load counter
    /// equals the number of *accounted* circuit incarnations crossing
    /// it. Returns `true` for worlds without placement. The churn and
    /// epoch property tests call this after every reclamation wave.
    pub fn verify_placement_ledger(&self) -> bool {
        let Some(p) = self.placement.as_ref() else {
            return true;
        };
        let mut expect = vec![0u32; p.directory.len()];
        for info in self.circuits.iter().filter(|info| info.accounted) {
            for r in info.path.iter().filter_map(|&n| p.relay_of(n)) {
                expect[r] += 1;
            }
        }
        expect == p.load
    }

    /// Records `path` into the live load view (one count per relay the
    /// circuit crosses), propagating each increment into the selection
    /// engine. Returns whether the circuit is accounted: `false` without
    /// placement.
    pub(super) fn account_placement(&mut self, path: &[OverlayId]) -> bool {
        let Some(p) = self.placement.as_mut() else {
            return false;
        };
        for &n in path {
            if let Some(r) = p.relay_of(n) {
                p.load[r] += 1;
                p.load_hwm[r] = p.load_hwm[r].max(p.load[r]);
                p.load_changed(r);
            }
        }
        true
    }

    /// Removes `circ`'s path from the live load view (teardown
    /// reclamation), propagating each decrement into the selection
    /// engine; no-op without placement or if the circuit's +1 was
    /// already reclaimed.
    pub(super) fn unaccount_placement(&mut self, circ: CircId) {
        let Some(p) = self.placement.as_mut() else {
            return;
        };
        let info = &mut self.circuits[circ.index()];
        if !info.accounted {
            return;
        }
        info.accounted = false;
        for &n in &info.path {
            if let Some(r) = p.relay_of(n) {
                debug_assert!(p.load[r] > 0, "placement load underflow");
                p.load[r] = p.load[r].saturating_sub(1);
                p.load_changed(r);
            }
        }
    }

    /// Applies one consensus epoch delta (from a [`TorEvent::Epoch`]):
    /// joining relays go live (selectable again, O(log n) sampler
    /// update each), departing relays go dark, and every accounted
    /// circuit crossing a departure is torn down through the normal
    /// two-wave DESTROY machinery — its unfinished flows rebuild under
    /// the live policy once teardown quiesces, exactly like
    /// workload-driven churn.
    pub(super) fn apply_epoch(&mut self, ctx: &mut Context<'_, TorEvent>, epoch: u32) {
        let Some(p) = self.placement.as_mut() else {
            return;
        };
        let Some(delta) = p.epoch_deltas.get_mut(epoch as usize) else {
            return;
        };
        let delta = std::mem::take(delta);
        if delta.is_empty() {
            self.egress.stats.epochs_applied += 1;
            return;
        }
        // Joins first: a relay must never be both dark and picked by a
        // rebuild triggered later in this same boundary.
        let mut joined = 0u64;
        for &r in &delta.join {
            joined += u64::from(p.set_live(r as usize, true));
        }
        let mut departed = 0u64;
        for &r in &delta.leave {
            departed += u64::from(p.set_live(r as usize, false));
        }
        self.egress.stats.relays_joined += joined;
        self.egress.stats.relays_departed += departed;
        self.egress.stats.epochs_applied += 1;
        if joined > 0 {
            self.wake_parked(ctx);
        }
        // Mark the departing relays (relay `r` is overlay node `r`),
        // then tear down every live circuit crossing one. `teardown`
        // no-ops on circuits already vacant or closed, so racing
        // workload churn is safe.
        let mut leaving = vec![false; self.nodes.len()];
        for &r in &delta.leave {
            leaving[r as usize] = true;
        }
        for i in 0..self.circuits.len() {
            let crosses = {
                let info = &self.circuits[i];
                info.accounted && info.path.iter().any(|n| leaving[n.index()])
            };
            if crosses {
                self.egress.stats.epoch_teardowns += 1;
                self.teardown(ctx, CircId(i as u32), DESTROY_REASON_FINISHED);
            }
        }
        debug_assert!(
            self.verify_placement_ledger(),
            "epoch {epoch}: placement ledger out of sync"
        );
    }
}

#[cfg(test)]
mod tests {
    use netsim::bandwidth::Bandwidth;
    use netsim::link::LinkConfig;
    use netsim::net::Net;
    use netsim::topology::{Path, Topology};
    use simcore::time::SimDuration;

    use super::*;
    use crate::builder::StarScenario;
    use crate::directory::{DirectoryConfig, RelaySpec};
    use crate::selection::Uniform;
    use crate::test_cc::fixed_window_factory;

    #[test]
    fn ledger_verification_rejects_a_load_off_by_one() {
        let scenario = StarScenario {
            circuits: 3,
            file_bytes: 4_960,
            directory: DirectoryConfig {
                relays: 6,
                ..Default::default()
            },
            ..Default::default()
        };
        let (mut sim, _) = scenario.build(fixed_window_factory(4), 5);
        let world = sim.world_mut();
        assert!(world.verify_placement_ledger());
        let crossed = world.relay_loads().unwrap().iter().position(|&l| l > 0);
        let r = crossed.expect("three circuits cross some relay");
        let right = world.relay_loads().unwrap()[r];
        for wrong in [right + 1, right - 1] {
            world.placement.as_mut().unwrap().load[r] = wrong;
            assert!(!world.verify_placement_ledger(), "load {wrong} accepted");
        }
        world.placement.as_mut().unwrap().load[r] = right;
        assert!(world.verify_placement_ledger());
    }

    #[test]
    #[should_panic(expected = "relay r must be hosted by overlay node r")]
    fn install_placement_rejects_a_client_at_overlay_zero() {
        let spec = RelaySpec {
            bandwidth: Bandwidth::from_mbps(10),
            delay: SimDuration::from_millis(1),
        };
        let mut net = Net::new();
        let path = Path::build(&mut net, &[LinkConfig::new(spec.bandwidth, spec.delay); 2]);
        let factory = fixed_window_factory(4);
        let mut world = TorNetwork::new(net, Topology::Path(path), factory, SimRng::seed_from(1));
        world.add_overlays([NodeRole::Client, NodeRole::Relay, NodeRole::Relay]);
        let directory = Directory::from_specs(vec![spec; 2]);
        world.install_placement(
            directory,
            std::sync::Arc::new(Uniform),
            SimRng::seed_from(2),
        );
    }
}
