// cs-lint-fixture: path = "crates/netsim/src/link.rs"
// Row 7: a frame is stored once, in `Net`'s store; a link's egress
// queue and in-flight FIFO are lists through the store's slots, so no
// ring of its own keeps the link's peak.

use std::collections::VecDeque; //~ stage-boundary

pub(crate) struct Queued<F> { //~ stage-boundary
    pub frame: F,
    pub enqueued_at: SimTime,
}

pub(crate) struct FrameRings<F> {
    pub queue: VecDeque<Queued<F>>, //~ stage-boundary //~ stage-boundary
    pub in_flight: VecDeque<F>, //~ stage-boundary
}

// Even a ring of handles keeps its link's own peak.
pub(crate) struct HandleRings {
    pub queue: VecDeque<(u32, SimTime)>, //~ stage-boundary
    pub in_flight: std::collections::VecDeque<u32>, //~ stage-boundary
}

// Lists are what a link holds, and a comment may name VecDeque<u32>.
pub(crate) struct LinkState {
    pub queue: List,
    pub queued: u32,
    pub transmitting: Option<u32>,
    pub in_flight: List,
}

#[cfg(test)]
mod tests {
    // A test's reference model may keep frames in its own rings.
    fn reference<F>(frames: std::collections::VecDeque<F>) -> usize {
        frames.len()
    }
}
