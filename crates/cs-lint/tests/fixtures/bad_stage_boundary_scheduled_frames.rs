// cs-lint-fixture: path = "crates/relaynet/src/network/mod.rs"
// Row 9: a frame handed to a link is stored once, in `Net`'s store; a
// link's scheduler queues 4-byte handles to it, never the frames.

use std::collections::VecDeque;

pub(super) struct Egress {
    pub(super) net: Net<WireFrame>,
    pub(super) link_sched: Vec<LinkScheduler<WireFrame>>, //~ stage-boundary
    pub(super) parked: VecDeque<WireFrame>, //~ stage-boundary
}

// Handles are what the schedulers queue, and a comment may name
// LinkScheduler<WireFrame>.
pub(super) struct Handles {
    pub(super) link_sched: Vec<LinkScheduler<FrameHandle>>,
    pub(super) drained: VecDeque<FrameHandle>,
}

impl Handles {
    fn reserved(&self) -> usize {
        self.link_sched.iter().map(LinkScheduler::reserved_slots).sum()
    }
}

#[cfg(test)]
mod tests {
    // A test may queue frames by value, as csbench's probe does.
    fn by_value() -> LinkScheduler<WireFrame> {
        LinkScheduler::new()
    }
}
