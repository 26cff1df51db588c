// cs-lint-fixture: path = "crates/relaynet/src/runtime.rs"
// Row 6: the topology is the address book. relaynet keeps no routing
// table, no overlay<->node map, and builds no NodeId of its own.

use netsim::router::Router; //~ stage-boundary
use netsim::NodeId;

fn address(net: &TorNetwork, topology: &Topology, i: usize) -> NodeId {
    let _ = net.net_node_of(i); //~ stage-boundary
    let _ = net.overlay_of_net(NodeId(3)); //~ stage-boundary //~ stage-boundary
    topology.node(i)
}

// The rule has no escape hatch: naming it in an allow does not parse.
// cs-lint: allow(stage-boundary, reason = "just this once")
//~^ malformed-annotation
fn routers(r: &Router) {} //~ stage-boundary
