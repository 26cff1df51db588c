//! Topology builders.
//!
//! Three canonical shapes cover every experiment in the paper:
//!
//! * [`Path`] — a chain `n0 — n1 — … — nk`, used for the single-circuit
//!   cwnd traces (Figure 1 upper panels) where one hop is the bottleneck.
//! * [`Star`] — every node hangs off a central switch by its own access
//!   link; this is how nstor models "the Internet" between Tor relays
//!   (Figure 1 lower panel). The switch itself is infinitely fast — only
//!   access links constrain traffic. A leaf's links are minted the first
//!   time it is used.
//! * [`Dumbbell`] — n sources and n sinks sharing one bottleneck link,
//!   used by transport-fairness tests and ablations.

use simcore::time::SimDuration;

use crate::bandwidth::Bandwidth;
use crate::frame::Frame;
use crate::link::{LinkConfig, LinkId};
use crate::net::{Net, NodeId};

/// A chain of nodes with duplex links between neighbours.
#[derive(Clone, Debug)]
pub struct Path {
    /// Nodes in chain order: `nodes[0]` is the left end.
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

    /// The position of `node` in the chain, if it belongs to it.
    pub fn position(&self, node: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == node)
    }

    /// The forward link leaving `node` (toward higher indices), if any.
    pub fn fwd_link_from(&self, node: NodeId) -> Option<LinkId> {
        let pos = self.position(node)?;
        self.fwd.get(pos).copied()
    }

    /// The reverse link leaving `node` (toward lower indices), if any.
    pub fn rev_link_from(&self, node: NodeId) -> Option<LinkId> {
        let pos = self.position(node)?;
        pos.checked_sub(1).map(|p| self.rev[p])
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
    /// are unbounded (backpressure keeps them finite; experiments assert
    /// zero drops).
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
    pub fn leaf_index(&self, node: NodeId) -> Option<usize> {
        let i = node.0.checked_sub(self.hub.0 + 1)? as usize;
        (i < self.leaf_count()).then_some(i)
    }

    /// A leaf's access links, if they have been minted.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not a leaf of this star.
    pub fn links_of(&self, leaf: NodeId) -> Option<AccessLinks> {
        self.links[self.expect_leaf(leaf)]
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
        let i = self.expect_leaf(leaf);
        *self.links[i].get_or_insert_with(|| {
            let cfg = LinkConfig::new(self.accesses[i].rate, self.accesses[i].delay);
            AccessLinks {
                up: net.add_link(leaf, self.hub, cfg),
                down: net.add_link(self.hub, leaf, cfg),
            }
        })
    }

    fn expect_leaf(&self, node: NodeId) -> usize {
        self.leaf_index(node)
            .expect("node is not a leaf of this star")
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

/// A dumbbell: `n` sources, `n` sinks, one shared bottleneck.
#[derive(Clone, Debug)]
pub struct Dumbbell {
    /// Source nodes (left side).
    pub sources: Vec<NodeId>,
    /// Sink nodes (right side).
    pub sinks: Vec<NodeId>,
    /// Left aggregation router.
    pub left_router: NodeId,
    /// Right aggregation router.
    pub right_router: NodeId,
    /// `source_links[i]` carries `sources[i] → left_router` (with reverse
    /// as the next id).
    pub source_links: Vec<(LinkId, LinkId)>,
    /// `sink_links[i]` carries `right_router → sinks[i]` (with reverse).
    pub sink_links: Vec<(LinkId, LinkId)>,
    /// Bottleneck `left_router → right_router`.
    pub bottleneck_fwd: LinkId,
    /// Bottleneck reverse direction.
    pub bottleneck_rev: LinkId,
}

impl Dumbbell {
    /// Builds a dumbbell with `n` source/sink pairs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn build<F: Frame>(
        net: &mut Net<F>,
        n: usize,
        edge: LinkConfig,
        bottleneck: LinkConfig,
    ) -> Dumbbell {
        assert!(n > 0, "a dumbbell needs at least one flow");
        let left_router = net.add_node("left-router");
        let right_router = net.add_node("right-router");
        let (bottleneck_fwd, bottleneck_rev) =
            net.add_duplex(left_router, right_router, bottleneck);
        let mut sources = Vec::with_capacity(n);
        let mut sinks = Vec::with_capacity(n);
        let mut source_links = Vec::with_capacity(n);
        let mut sink_links = Vec::with_capacity(n);
        for i in 0..n {
            let s = net.add_node(&format!("src-{i}"));
            let t = net.add_node(&format!("dst-{i}"));
            source_links.push(net.add_duplex(s, left_router, edge));
            sink_links.push(net.add_duplex(right_router, t, edge));
            sources.push(s);
            sinks.push(t);
        }
        Dumbbell {
            sources,
            sinks,
            left_router,
            right_router,
            source_links,
            sink_links,
            bottleneck_fwd,
            bottleneck_rev,
        }
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
    fn path_link_lookups() {
        let mut net: Net<RawFrame> = Net::new();
        let p = Path::build(&mut net, &[cfg(10, 1), cfg(10, 1)]);
        let (a, b, c) = (p.nodes[0], p.nodes[1], p.nodes[2]);
        assert_eq!(p.position(b), Some(1));
        assert_eq!(p.fwd_link_from(a), Some(p.fwd[0]));
        assert_eq!(p.fwd_link_from(b), Some(p.fwd[1]));
        assert_eq!(p.fwd_link_from(c), None); // right end has no fwd
        assert_eq!(p.rev_link_from(a), None); // left end has no rev
        assert_eq!(p.rev_link_from(c), Some(p.rev[1]));
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
            assert_eq!(s.links_of(leaf), None);
            let links = s.mint(&mut net, leaf);
            assert_eq!(net.link_ends(links.up), (leaf, s.hub()));
            assert_eq!(net.link_ends(links.down), (s.hub(), leaf));
            assert_eq!(s.links_of(leaf), Some(links));
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
        assert_eq!(s.links_of(s.leaf(0)), None);
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

    #[test]
    fn dumbbell_structure() {
        let mut net: Net<RawFrame> = Net::new();
        let d = Dumbbell::build(&mut net, 2, cfg(100, 1), cfg(10, 5));
        assert_eq!(d.sources.len(), 2);
        assert_eq!(d.sinks.len(), 2);
        // 2 routers + 2 sources + 2 sinks
        assert_eq!(net.node_count(), 6);
        // bottleneck duplex + 2 source duplex + 2 sink duplex = 10 simplex
        assert_eq!(net.link_count(), 10);
        assert_eq!(
            net.link_ends(d.bottleneck_fwd),
            (d.left_router, d.right_router)
        );
        assert_eq!(
            net.link_config(d.bottleneck_fwd).rate,
            Bandwidth::from_mbps(10)
        );
        assert_eq!(
            net.link_ends(d.source_links[0].0),
            (d.sources[0], d.left_router)
        );
        assert_eq!(
            net.link_ends(d.sink_links[1].0),
            (d.right_router, d.sinks[1])
        );
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn empty_dumbbell_rejected() {
        let mut net: Net<RawFrame> = Net::new();
        let _ = Dumbbell::build(&mut net, 0, cfg(1, 0), cfg(1, 0));
    }
}
