// cs-lint-fixture: path = "crates/backtap/src/hop.rs"
// Row 11: a hop keeps one 8-byte send time per cell and marks a cell
// settled out of order in place; a ring of `(seq, time)` pairs costs
// 16 bytes a cell.

use std::collections::VecDeque;

pub struct PairRing {
    in_flight: VecDeque<(u64, SimTime)>, //~ stage-boundary
}

// Send times alone are what a hop keeps, and a comment may name
// VecDeque<(u64, SimTime)>.
pub struct HopTransport {
    next_seq: u64,
    sent_at: VecDeque<SimTime>,
    outstanding: u32,
}

#[cfg(test)]
mod tests {
    // The test's reference model is the pair ring.
    struct Reference {
        in_flight: VecDeque<(u64, SimTime)>,
    }
}
