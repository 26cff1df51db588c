//! Topology builders.
//!
//! Two canonical shapes cover every experiment in the paper:
//!
//! * [`Path`] — a chain `n0 — n1 — … — nk`, used for the single-circuit
//!   cwnd traces (Figure 1 upper panels) where one hop is the bottleneck.
//! * [`Star`] — every node hangs off a central switch by its own access
//!   link; this is how nstor models "the Internet" between Tor relays
//!   (Figure 1 lower panel). The switch itself is infinitely fast — only
//!   access links constrain traffic. A leaf's links are minted the first
//!   time it is used.
//!
//! A world sits on one [`Topology`], which is also its address book:
//! participant `i` lives on the topology's node `i`, and the topology
//! names the link a frame leaves on.

use simcore::time::SimDuration;

use crate::bandwidth::Bandwidth;
use crate::frame::Frame;
use crate::link::{LinkConfig, LinkId};
use crate::net::{Net, NodeId};

/// A chain of nodes with duplex links between neighbours.
#[derive(Clone, Debug)]
pub struct Path {
    /// Nodes in chain order: `nodes[0]` is the left end. Their ids are
    /// consecutive, as [`Path::build`] adds them; [`Path::index_of`] and
    /// [`Path::route`] rely on it.
    pub nodes: Vec<NodeId>,
    /// `fwd[i]` carries traffic `nodes[i] → nodes[i+1]`.
    pub fwd: Vec<LinkId>,
    /// `rev[i]` carries traffic `nodes[i+1] → nodes[i]`.
    pub rev: Vec<LinkId>,
}

impl Path {
    /// Builds a chain with one [`LinkConfig`] per hop (applied to both
    /// directions of that hop).
    ///
    /// # Panics
    ///
    /// Panics if `hop_configs` is empty.
    pub fn build<F: Frame>(net: &mut Net<F>, hop_configs: &[LinkConfig]) -> Path {
        assert!(!hop_configs.is_empty(), "a path needs at least one hop");
        let nodes: Vec<NodeId> = (0..=hop_configs.len())
            .map(|i| net.add_node(&format!("path-{i}")))
            .collect();
        let mut fwd = Vec::with_capacity(hop_configs.len());
        let mut rev = Vec::with_capacity(hop_configs.len());
        for (i, cfg) in hop_configs.iter().enumerate() {
            let (f, r) = net.add_duplex(nodes[i], nodes[i + 1], *cfg);
            fwd.push(f);
            rev.push(r);
        }
        Path { nodes, fwd, rev }
    }

    /// Number of hops (links), one less than the number of nodes.
    pub fn hop_count(&self) -> usize {
        self.fwd.len()
    }

    /// The position of `node` in the chain, if it is on it.
    #[inline]
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        let i = node.0.wrapping_sub(self.nodes.first()?.0) as usize;
        debug_assert!(i >= self.nodes.len() || self.nodes[i] == node);
        (i < self.nodes.len()).then_some(i)
    }

    /// The link a frame at `at` bound for `dst` leaves on: `fwd` or `rev`
    /// between neighbours, `None` otherwise (no frame crosses two hops
    /// of a path without stopping).
    #[inline]
    pub fn route(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        let i = self.index_of(at)?;
        // A neighbour's id is one up (`nodes[i + 1]`) or one down.
        match dst.0.wrapping_sub(at.0) {
            1 => self.fwd.get(i).copied(),
            u32::MAX => Some(self.rev[i.checked_sub(1)?]),
            _ => None,
        }
    }
}

/// Per-leaf access parameters for a [`Star`].
#[derive(Clone, Copy, Debug)]
pub struct AccessConfig {
    /// Rate of the leaf's access link (both directions).
    pub rate: Bandwidth,
    /// One-way propagation delay of the access link.
    pub delay: SimDuration,
}

/// The two access links of one [`Star`] leaf.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessLinks {
    /// `leaf → hub`.
    pub up: LinkId,
    /// `hub → leaf`.
    pub down: LinkId,
}

/// A star: leaves connected to a central switch by individual access links.
///
/// The switch node forwards instantly (zero rate limit, zero delay is
/// modelled by the *caller* re-sending on the downlink in the same event);
/// all queueing happens on the access links, which is exactly nstor's
/// network abstraction.
///
/// **Links are minted on first use.** Building a star adds the hub and
/// the leaves only; [`Star::mint`] adds a leaf's two access links the
/// first time the caller needs them. A leaf nothing ever sends through
/// costs a node and no link — a 7000-relay directory whose circuits cross
/// a few hundred relays holds a few hundred link pairs. Because
/// [`Net::add_link`] appends, link ids stay dense, numbered in the order
/// leaves are first minted.
#[derive(Clone, Debug)]
pub struct Star {
    /// The central switch. Leaf `i` is node `hub + 1 + i`.
    hub: NodeId,
    /// Per-leaf access parameters, in leaf order.
    accesses: Vec<AccessConfig>,
    /// Per-leaf access links, once minted.
    links: Vec<Option<AccessLinks>>,
}

impl Star {
    /// Builds a star with the given per-leaf access configurations: the
    /// hub and one node per leaf, no links yet. Access-link egress queues
    /// are unbounded (backpressure keeps them finite).
    ///
    /// # Panics
    ///
    /// Panics if `accesses` is empty.
    pub fn build<F: Frame>(net: &mut Net<F>, accesses: Vec<AccessConfig>) -> Star {
        assert!(!accesses.is_empty(), "a star needs at least one leaf");
        let hub = net.add_node("hub");
        let mut name = String::from("leaf-0");
        for _ in 0..accesses.len() {
            net.add_node(&name);
            next_leaf_name(&mut name);
        }
        Star {
            hub,
            links: vec![None; accesses.len()],
            accesses,
        }
    }

    /// The central switch.
    pub fn hub(&self) -> NodeId {
        self.hub
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.accesses.len()
    }

    /// Leaf `i`'s node.
    ///
    /// # Panics
    ///
    /// Panics if the star has no leaf `i`.
    #[inline]
    pub fn leaf(&self, i: usize) -> NodeId {
        assert!(i < self.leaf_count(), "star has no leaf {i}");
        NodeId(self.hub.0 + 1 + i as u32)
    }

    /// Leaf `i`'s access parameters.
    ///
    /// # Panics
    ///
    /// Panics if the star has no leaf `i`.
    pub fn access(&self, i: usize) -> AccessConfig {
        self.accesses[i]
    }

    /// The index of a leaf node, if it is one.
    #[inline]
    pub fn leaf_index(&self, node: NodeId) -> Option<usize> {
        let i = node.0.checked_sub(self.hub.0 + 1)? as usize;
        (i < self.leaf_count()).then_some(i)
    }

    /// The link a frame at `at` bound for `dst` leaves on: a leaf's
    /// uplink, whatever the destination, or at the hub, `dst`'s downlink.
    /// `None` if that link has not been minted, or if `at` (or, at the
    /// hub, `dst`) is not a node of this star.
    #[inline]
    pub fn route(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        let at_hub = at == self.hub;
        let leaf = if at_hub { dst } else { at };
        let i = leaf.0.checked_sub(self.hub.0 + 1)? as usize;
        let links = (*self.links.get(i)?)?;
        Some(if at_hub { links.down } else { links.up })
    }

    /// A leaf's access links, adding both to `net` (uplink first) on the
    /// first call for that leaf and returning the same pair after.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not a leaf of this star.
    pub fn mint<F: Frame>(&mut self, net: &mut Net<F>, leaf: NodeId) -> AccessLinks {
        let i = self
            .leaf_index(leaf)
            .expect("node is not a leaf of this star");
        *self.links[i].get_or_insert_with(|| {
            let cfg = LinkConfig::new(self.accesses[i].rate, self.accesses[i].delay);
            AccessLinks {
                up: net.add_link(leaf, self.hub, cfg),
                down: net.add_link(self.hub, leaf, cfg),
            }
        })
    }
}

/// The shape a world runs on, and its address book: participant `i` is
/// the topology's node `i` (a path's `nodes[i]`, a star's leaf `i`), and
/// [`Topology::route`] names the link toward a node.
#[derive(Clone, Debug)]
pub enum Topology {
    /// A chain; participant `i` is `nodes[i]`.
    Path(Path),
    /// A star; participant `i` is leaf `i`, and the hub is no participant.
    Star(Star),
}

impl Topology {
    /// The link a frame at `at` bound for `dst` leaves on, if one exists
    /// ([`Path::route`], [`Star::route`]).
    #[inline]
    pub fn route(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        match self {
            Topology::Path(path) => path.route(at, dst),
            Topology::Star(star) => star.route(at, dst),
        }
    }

    /// Participant `i`'s node.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no participant `i`.
    #[inline]
    pub fn node(&self, i: usize) -> NodeId {
        match self {
            Topology::Path(path) => path.nodes[i],
            Topology::Star(star) => star.leaf(i),
        }
    }

    /// The participant on `node`: the inverse of [`Topology::node`].
    /// `None` for a node no participant lives on, such as the hub.
    #[inline]
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        match self {
            Topology::Path(path) => path.index_of(node),
            Topology::Star(star) => star.leaf_index(node),
        }
    }

    /// The two links a stall at participant `i` throttles: on a path the
    /// hop toward its predecessor, `[fwd[i-1], rev[i-1]]` (`None` for
    /// `i = 0`, which has none); in a star the leaf's `[up, down]` access
    /// links, minted into `net` on first use ([`Star::mint`]).
    ///
    /// # Panics
    ///
    /// Panics if the topology has no participant `i`.
    pub fn access_links<F: Frame>(&mut self, net: &mut Net<F>, i: usize) -> Option<[LinkId; 2]> {
        match self {
            Topology::Path(path) => {
                let hop = i.checked_sub(1)?;
                Some([path.fwd[hop], path.rev[hop]])
            }
            Topology::Star(star) => {
                let AccessLinks { up, down } = star.mint(net, star.leaf(i));
                Some([up, down])
            }
        }
    }
}

/// Turns leaf `i`'s node name, `leaf-{i}`, into leaf `i + 1`'s by a
/// decimal carry: a star names thousands of leaves in order, and
/// formatting each index through `core::fmt` costs several times the
/// rest of adding a node.
fn next_leaf_name(name: &mut String) {
    let mut zeros = 0;
    loop {
        match name.pop() {
            Some('9') => zeros += 1,
            Some(d @ '0'..='8') => {
                name.push(char::from(d as u8 + 1));
                break;
            }
            // The `-`: every digit was a 9, so the number grows a digit.
            Some(dash) => {
                name.push(dash);
                name.push('1');
                break;
            }
            None => unreachable!("a leaf name is `leaf-` and digits"),
        }
    }
    for _ in 0..zeros {
        name.push('0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::RawFrame;

    fn cfg(mbps: u64, delay_ms: u64) -> LinkConfig {
        LinkConfig::new(
            Bandwidth::from_mbps(mbps),
            SimDuration::from_millis(delay_ms),
        )
    }

    #[test]
    fn path_structure() {
        let mut net: Net<RawFrame> = Net::new();
        let p = Path::build(&mut net, &[cfg(10, 1), cfg(5, 2), cfg(10, 1)]);
        assert_eq!(p.nodes.len(), 4);
        assert_eq!(p.hop_count(), 3);
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.link_count(), 6);
        // fwd[i] runs nodes[i] → nodes[i+1]
        for i in 0..3 {
            assert_eq!(net.link_ends(p.fwd[i]), (p.nodes[i], p.nodes[i + 1]));
            assert_eq!(net.link_ends(p.rev[i]), (p.nodes[i + 1], p.nodes[i]));
        }
        assert_eq!(net.link_config(p.fwd[1]).rate, Bandwidth::from_mbps(5));
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn empty_path_rejected() {
        let mut net: Net<RawFrame> = Net::new();
        let _ = Path::build(&mut net, &[]);
    }

    #[test]
    fn leaf_names_match_their_formatted_spelling() {
        let mut name = String::from("leaf-0");
        for i in 0..200_000 {
            assert_eq!(name, format!("leaf-{i}"));
            next_leaf_name(&mut name);
        }
        for i in [999_999_999, u64::MAX / 10 * 10 - 1] {
            let mut name = format!("leaf-{i}");
            next_leaf_name(&mut name);
            assert_eq!(name, format!("leaf-{}", i + 1));
        }
    }

    #[test]
    fn star_routes_through_minted_links_only() {
        let mut net: Net<RawFrame> = Net::new();
        let acc = AccessConfig {
            rate: Bandwidth::from_mbps(20),
            delay: SimDuration::ZERO,
        };
        let mut s = Star::build(&mut net, vec![acc; 3]);
        let (hub, a, b) = (s.hub(), s.leaf(0), s.leaf(2));
        assert_eq!(s.route(a, b), None);
        let la = s.mint(&mut net, a);
        // A leaf's uplink serves every destination, minted or not.
        assert_eq!(s.route(a, b), Some(la.up));
        assert_eq!(s.route(a, hub), Some(la.up));
        assert_eq!(s.route(hub, a), Some(la.down));
        assert_eq!(s.route(hub, b), None);
        let lb = s.mint(&mut net, b);
        assert_eq!(s.route(hub, b), Some(lb.down));
        assert_eq!(s.route(b, a), Some(lb.up));
        assert_eq!(s.route(hub, hub), None);
        assert_eq!(s.route(NodeId(9), a), None);
        assert_eq!(s.route(hub, NodeId(9)), None);
    }

    #[test]
    fn path_routes_between_neighbours_only() {
        let mut net: Net<RawFrame> = Net::new();
        let foreign = net.add_node("foreign");
        let p = Path::build(&mut net, &[cfg(10, 1), cfg(5, 2), cfg(10, 1)]);
        let n = &p.nodes;
        for i in 0..3 {
            assert_eq!(p.route(n[i], n[i + 1]), Some(p.fwd[i]));
            assert_eq!(p.route(n[i + 1], n[i]), Some(p.rev[i]));
        }
        assert_eq!(p.route(n[1], n[1]), None, "self");
        assert_eq!(p.route(n[0], n[2]), None, "two hops apart");
        assert_eq!(p.route(n[3], n[1]), None, "two hops apart");
        assert_eq!(p.route(n[0], foreign), None, "foreign destination");
        assert_eq!(p.route(foreign, n[0]), None, "foreign source");
        assert_eq!(p.route(n[3], NodeId(9)), None, "past the chain");
    }

    #[test]
    fn topology_index_of_inverts_node() {
        let mut net: Net<RawFrame> = Net::new();
        let path = Topology::Path(Path::build(&mut net, &[cfg(10, 1), cfg(5, 2)]));
        let acc = AccessConfig {
            rate: Bandwidth::from_mbps(20),
            delay: SimDuration::ZERO,
        };
        let star = Star::build(&mut net, vec![acc; 3]);
        let hub = star.hub();
        let star = Topology::Star(star);
        for (topology, participants) in [(&path, 3), (&star, 3)] {
            for i in 0..participants {
                assert_eq!(topology.index_of(topology.node(i)), Some(i));
            }
        }
        assert_eq!(star.index_of(hub), None, "the hub is no participant");
        assert_eq!(path.index_of(hub), None, "a star node is off the path");
        assert_eq!(
            star.index_of(path.node(0)),
            None,
            "a path node is off the star"
        );
    }

    #[test]
    fn topology_access_links_are_a_hop_on_a_path_and_minted_on_a_star() {
        let mut net: Net<RawFrame> = Net::new();
        let p = Path::build(&mut net, &[cfg(10, 1), cfg(5, 2)]);
        let mut path = Topology::Path(p.clone());
        assert_eq!(
            path.access_links(&mut net, 0),
            None,
            "the left end has no upstream hop"
        );
        assert_eq!(path.access_links(&mut net, 2), Some([p.fwd[1], p.rev[1]]));
        let acc = AccessConfig {
            rate: Bandwidth::from_mbps(20),
            delay: SimDuration::ZERO,
        };
        let mut star = Topology::Star(Star::build(&mut net, vec![acc; 2]));
        let links = net.link_count();
        let [up, down] = star.access_links(&mut net, 1).expect("a leaf");
        assert_eq!((up.index(), down.index()), (links, links + 1));
        assert_eq!(star.route(star.node(1), star.node(0)), Some(up));
        assert_eq!(
            star.access_links(&mut net, 1),
            Some([up, down]),
            "minted once"
        );
        assert_eq!(net.link_count(), links + 2);
    }

    #[test]
    fn star_structure() {
        let mut net: Net<RawFrame> = Net::new();
        let acc = AccessConfig {
            rate: Bandwidth::from_mbps(20),
            delay: SimDuration::from_millis(10),
        };
        let mut s = Star::build(&mut net, vec![acc, acc, acc]);
        assert_eq!(s.leaf_count(), 3);
        assert_eq!(net.node_count(), 4); // hub + 3 leaves
        assert_eq!(net.node_name(s.hub()), "hub");
        assert_eq!(net.node_name(s.leaf(2)), "leaf-2");
        assert_eq!(net.link_count(), 0, "no leaf used yet");
        for i in 0..3 {
            let leaf = s.leaf(i);
            assert_eq!(s.leaf_index(leaf), Some(i));
            assert_eq!(s.route(leaf, s.hub()), None, "not minted yet");
            let links = s.mint(&mut net, leaf);
            assert_eq!(net.link_ends(links.up), (leaf, s.hub()));
            assert_eq!(net.link_ends(links.down), (s.hub(), leaf));
            assert_eq!(s.route(leaf, s.hub()), Some(links.up));
            assert_eq!(s.route(s.hub(), leaf), Some(links.down));
        }
        assert_eq!(net.link_count(), 6);
        assert_eq!(s.leaf_index(s.hub()), None);
    }

    #[test]
    fn star_links_are_minted_once_in_first_use_order() {
        let mut net: Net<RawFrame> = Net::new();
        let acc = AccessConfig {
            rate: Bandwidth::from_mbps(20),
            delay: SimDuration::ZERO,
        };
        let mut s = Star::build(&mut net, vec![acc; 5]);
        let (leaf3, leaf1) = (s.leaf(3), s.leaf(1));
        let links = s.mint(&mut net, leaf3);
        assert_eq!((links.up.index(), links.down.index()), (0, 1));
        assert_eq!(s.mint(&mut net, leaf3), links, "a second mint is a lookup");
        let links = s.mint(&mut net, leaf1);
        assert_eq!((links.up.index(), links.down.index()), (2, 3));
        assert_eq!(net.link_count(), 4);
        assert_eq!(s.route(s.hub(), s.leaf(0)), None, "leaf 0 not minted");
        assert_eq!(s.leaf_index(s.leaf(4)), Some(4));
        assert_eq!(
            s.leaf_index(NodeId(s.hub().0 + 6)),
            None,
            "past the last leaf"
        );
    }

    #[test]
    #[should_panic(expected = "not a leaf")]
    fn star_mint_of_hub_panics() {
        let mut net: Net<RawFrame> = Net::new();
        let acc = AccessConfig {
            rate: Bandwidth::from_mbps(20),
            delay: SimDuration::ZERO,
        };
        let mut s = Star::build(&mut net, vec![acc]);
        let hub = s.hub();
        let _ = s.mint(&mut net, hub);
    }

    #[test]
    fn star_heterogeneous_access_rates() {
        let mut net: Net<RawFrame> = Net::new();
        let mk = |mbps| AccessConfig {
            rate: Bandwidth::from_mbps(mbps),
            delay: SimDuration::ZERO,
        };
        let mut s = Star::build(&mut net, vec![mk(10), mk(50)]);
        let slow = s.mint(&mut net, s.leaf(0));
        let fast = s.mint(&mut net, s.leaf(1));
        assert_eq!(net.link_config(slow.up).rate, Bandwidth::from_mbps(10));
        assert_eq!(net.link_config(fast.down).rate, Bandwidth::from_mbps(50));
    }
}
