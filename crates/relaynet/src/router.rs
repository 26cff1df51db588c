//! Static next-hop routing between the network nodes of an explicit-link
//! topology.
//!
//! Overlay nodes address frames to the *network* node of the adjacent
//! overlay hop. In the path topology that node is directly connected and
//! this table names the link. A star needs no table: every route there is
//! a leaf's uplink or the hub's downlink to the destination, which the
//! star itself holds once minted (`netsim::topology::Star::route`).
//! Routes are computed once at build time — topologies are static for
//! the lifetime of an experiment.
//!
//! Node ids are dense small integers, so the table is an array per node
//! indexed by destination. Lookups are two array indexes; nothing is
//! hashed or compared.

use netsim::link::LinkId;
use netsim::net::NodeId;

/// A `(current node, final destination) → outgoing link` table.
#[derive(Clone, Debug, Default)]
pub struct Router {
    /// Outgoing link per destination node index, per node.
    per_node: Vec<Vec<Option<LinkId>>>,
    installed: usize,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Router {
        Router::default()
    }

    /// Installs a route: at `at`, frames for `dst` leave via `link`.
    ///
    /// # Panics
    ///
    /// Panics if the pair already has a different route — conflicting
    /// routes mean a topology-construction bug.
    pub fn install(&mut self, at: NodeId, dst: NodeId, link: LinkId) {
        if self.per_node.len() <= at.index() {
            self.per_node.resize_with(at.index() + 1, Vec::new);
        }
        let routes = &mut self.per_node[at.index()];
        if routes.len() <= dst.index() {
            routes.resize(dst.index() + 1, None);
        }
        let prev = routes[dst.index()];
        assert!(
            prev.is_none() || prev == Some(link),
            "conflicting route installed at {at:?} for {dst:?}"
        );
        if prev.is_none() {
            routes[dst.index()] = Some(link);
            self.installed += 1;
        }
    }

    /// The outgoing link at `at` for frames addressed to `dst`, if a
    /// route is installed.
    #[inline]
    pub fn next_link(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        self.per_node
            .get(at.index())?
            .get(dst.index())
            .copied()
            .flatten()
    }

    /// Number of installed routes.
    pub fn len(&self) -> usize {
        self.installed
    }

    /// `true` if no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.installed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireFrame;
    use netsim::bandwidth::Bandwidth;
    use netsim::link::LinkConfig;
    use netsim::net::Net;
    use simcore::time::SimDuration;

    fn tiny_net() -> (Net<WireFrame>, Vec<NodeId>, Vec<LinkId>) {
        let mut net = Net::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let c = net.add_node("c");
        let cfg = LinkConfig::new(Bandwidth::from_mbps(1), SimDuration::ZERO);
        let ab = net.add_link(a, b, cfg);
        let bc = net.add_link(b, c, cfg);
        (net, vec![a, b, c], vec![ab, bc])
    }

    #[test]
    fn install_and_lookup() {
        let (_, nodes, links) = tiny_net();
        let mut r = Router::new();
        r.install(nodes[0], nodes[2], links[0]);
        r.install(nodes[1], nodes[2], links[1]);
        assert_eq!(r.next_link(nodes[0], nodes[2]), Some(links[0]));
        assert_eq!(r.next_link(nodes[1], nodes[2]), Some(links[1]));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn reinstalling_same_route_is_ok() {
        let (_, nodes, links) = tiny_net();
        let mut r = Router::new();
        r.install(nodes[0], nodes[2], links[0]);
        r.install(nodes[0], nodes[2], links[0]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "conflicting route")]
    fn conflicting_route_panics() {
        let (_, nodes, links) = tiny_net();
        let mut r = Router::new();
        r.install(nodes[0], nodes[2], links[0]);
        r.install(nodes[0], nodes[2], links[1]);
    }

    #[test]
    fn unrouted_pairs_have_no_link() {
        let (_, nodes, links) = tiny_net();
        let mut r = Router::new();
        assert!(r.is_empty());
        r.install(nodes[0], nodes[1], links[0]);
        assert_eq!(r.next_link(nodes[0], nodes[1]), Some(links[0]));
        assert_eq!(r.next_link(nodes[1], nodes[0]), None);
        assert_eq!(r.next_link(nodes[2], nodes[0]), None);
        assert_eq!(r.next_link(nodes[0], nodes[2]), None);
    }
}
