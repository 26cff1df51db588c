// cs-lint-fixture: path = "crates/relaynet/src/node.rs"
// Row 13: a world is a value. State shared by reference between nodes
// would be shared between a world and its fork too, so the fork would
// not run on to the run it was taken from.

use std::cell::Cell; //~ stage-boundary
use std::rc::Rc; //~ stage-boundary

pub struct OverlayNode {
    pub sent: Rc<Cell<u64>>, //~ stage-boundary
    pub log: std::cell::RefCell<Vec<u32>>, //~ stage-boundary //~ stage-boundary
}

thread_local! { //~ stage-boundary
    static CELLS: u64 = 0;
}

// Shared immutable values may ride an `Arc`, a Tor cell is a `Cell`,
// and a comment may name Rc<RefCell<_>>.
pub struct Shared {
    pub policy: Arc<dyn PathSelection>,
    pub cell: torcell::cell::Cell,
}

#[cfg(test)]
mod tests {
    // A test may count through a shared cell.
    fn counter() -> std::rc::Rc<std::cell::Cell<u64>> {
        Default::default()
    }
}
