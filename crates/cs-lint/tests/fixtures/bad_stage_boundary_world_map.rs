// cs-lint-fixture: path = "crates/relaynet/src/node.rs"
// Row 12: the world keeps no maps. A circuit resolves through the route
// table, a node's slab or a link's rotation, and a map's nodes are heap
// bytes the memory ledger does not see.

pub struct OverlayNode {
    circuits: Slab<NodeCircuit>,
    by_global: std::collections::BTreeMap<CircId, u32>, //~ stage-boundary
}

// A scan of the slab is what finds a participation by its global id, and
// a comment may name BTreeMap or BTreeSet.
impl OverlayNode {
    pub fn local_idx(&self, circ: CircId) -> Option<u32> {
        let filled = self.circuits.usage().high_water as u32;
        (0..filled).find(|&i| self.circuits.try_get(i).is_some_and(|nc| nc.circ == circ))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    // A test's reference model may index its slots with a map.
    struct SlotScheduler {
        index: BTreeMap<CircId, u32>,
        seen: BTreeSet<CircId>,
    }
}
