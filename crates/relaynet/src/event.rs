//! The overlay's event type.

use netsim::bandwidth::Bandwidth;
use netsim::link::LinkId;
use netsim::net::NetEvent;

use crate::ids::CircId;

/// Which client-side circuit timer a [`TorEvent::CircTimeout`] carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerKind {
    /// The build-completion timer: armed when the circuit build starts,
    /// genuine if the circuit is still telescoping when it fires.
    Build,
    /// The liveness timer: armed with a progress snapshot (kept in the
    /// circuit's [`crate::circuit::CircuitInfo`]), genuine if progress
    /// has not advanced past it when the timer fires.
    Liveness,
}

/// Everything that can happen in a [`crate::network::TorNetwork`].
#[derive(Clone, Copy, Debug)]
pub enum TorEvent {
    /// A link-layer event (serialization finished / frame arrived).
    Net(NetEvent),
    /// A client begins building circuit `0` and transferring once built.
    StartCircuit(CircId),
    /// A client initiates teardown of an established circuit.
    Teardown(CircId),
    /// A staggered stream's arrival offset elapsed: the client issues
    /// the request (BEGIN) on stream index `stream` of `circ`.
    StreamArrival {
        /// The carrying circuit.
        circ: CircId,
        /// Index into the circuit's stream list.
        stream: u32,
    },
    /// A fully torn-down circuit's unfinished flows are re-attached to a
    /// fresh circuit over the same path (churn rebuild).
    Rebuild(CircId),
    /// A consensus epoch boundary: the network applies directory delta
    /// `epoch` (relays join/leave), tearing down circuits that cross a
    /// departing relay so their flows rebuild under the live policy.
    Epoch(u32),
    /// Change a link's rate mid-run (bandwidth-change experiments for the
    /// paper's future-work extension).
    SetLinkRate {
        /// Which link.
        link: LinkId,
        /// The new rate.
        rate: Bandwidth,
    },
    /// A relay crashes: from this instant it silently drops every frame
    /// addressed to it — no DESTROY, no graceful teardown. Clients only
    /// learn of the failure through their own timers.
    RelayCrash {
        /// Directory index of the crashing relay.
        relay: u32,
    },
    /// A client-armed circuit timer fired: if the circuit is still
    /// pending (build timer) or has made no progress (liveness timer),
    /// the client abandons and recovers. Stale timers — the circuit
    /// completed or was torn down — are no-ops. A rebuild registers a
    /// new [`CircId`], so a timer never outlives the incarnation it was
    /// armed on, and a circuit has at most one timer pending.
    CircTimeout {
        /// The circuit the timer was armed on.
        circ: CircId,
        /// Which timer this is (build completion vs. liveness).
        kind: TimerKind,
    },
}

impl From<NetEvent> for TorEvent {
    fn from(e: NetEvent) -> Self {
        TorEvent::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::link::LinkId;

    #[test]
    fn net_events_embed() {
        // LinkId has a crate-private constructor; round-trip through a Net.
        let mut net: netsim::net::Net<crate::wire::WireFrame> = netsim::net::Net::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let link: LinkId = net.add_link(
            a,
            b,
            netsim::link::LinkConfig::new(
                netsim::bandwidth::Bandwidth::from_mbps(1),
                simcore::time::SimDuration::ZERO,
            ),
        );
        let ev: TorEvent = NetEvent::Deliver { link }.into();
        assert!(matches!(ev, TorEvent::Net(NetEvent::Deliver { .. })));
    }

    #[test]
    fn an_event_is_sixteen_bytes() {
        assert_eq!(
            std::mem::size_of::<TorEvent>(),
            16,
            "every pending event is a (time, seq, TorEvent) calendar entry: \
             16 bytes keep it at 32, two to a cache line, on every workload"
        );
    }
}
