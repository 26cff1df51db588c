// cs-lint-fixture: path = "crates/netsim/src/link.rs"
// Row 7: a frame is stored once, in `Net`'s store; a link's queue,
// transmitter slot and in-flight FIFO carry 4-byte handles into it.

use std::collections::VecDeque;

pub(crate) struct Queued<F> { //~ stage-boundary
    pub frame: F,
    pub enqueued_at: SimTime,
}

pub(crate) struct FrameRings<F> {
    pub queue: VecDeque<Queued<F>>, //~ stage-boundary
    pub in_flight: VecDeque<F>, //~ stage-boundary
}

// Handles are what the rings carry, and a comment may name VecDeque<F>.
pub(crate) struct LinkState {
    pub queue: VecDeque<(u32, SimTime)>,
    pub transmitting: Option<u32>,
    pub in_flight: VecDeque<u32>,
}

#[cfg(test)]
mod tests {
    // A test's reference model may keep frames in its own rings.
    fn reference<F>(frames: VecDeque<F>) -> usize {
        frames.len()
    }
}
