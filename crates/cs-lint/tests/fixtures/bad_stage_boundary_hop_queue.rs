// cs-lint-fixture: path = "crates/relaynet/src/node.rs"
// Row 10: a hop queue is a list in the world's one slab of queued
// cells; a queue of its own per participation keeps that
// participation's peak.

use std::collections::VecDeque;

pub struct HopDir {
    pub queue: VecDeque<QueuedCell>, //~ stage-boundary
    pub queue_hwm: usize,
}

// Lists in the shared slab are what a hop holds, and a comment may name
// VecDeque<QueuedCell>.
pub struct ListHop {
    queue: List,
    queue_len: u32,
}

#[cfg(test)]
mod tests {
    // A test's reference model may keep cells in its own deque.
    fn reference(cells: VecDeque<QueuedCell>) -> usize {
        cells.len()
    }
}
