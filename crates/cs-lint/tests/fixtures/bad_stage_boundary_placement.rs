// cs-lint-fixture: path = "crates/relaynet/src/network/faults.rs"
// Row 3: placement is owned by network/placement.rs. A test-only import
// above the production code is test code, and only it: the production
// code after it is still checked (a `sed` cut at the first
// `#[cfg(test)]` line stopped reading here).

#[cfg(test)]
use super::placement::PlacementState;

fn blame(net: &mut TorNetwork, relay: usize) {
    net.placement.blame(relay); //~ stage-boundary
}

fn view(p: &PlacementState) -> &DirectoryView { //~ stage-boundary //~ stage-boundary
    p.view()
}

fn draw(engine: &mut SelectionEngine) {} //~ stage-boundary

#[cfg(test)]
mod tests {
    fn engine(net: &TorNetwork) -> &SelectionEngine {
        net.placement.engine()
    }
}
