// cs-lint-fixture: path = "crates/relaynet/src/network/mod.rs"
// Row 4: network/mod.rs holds the placement state but never drives the
// selection engine or reads the directory view itself.

pub struct TorNetwork {
    placement: PlacementState,
}

impl TorNetwork {
    fn pick(&mut self) -> usize {
        let engine: &mut SelectionEngine = self.placement.engine(); //~ stage-boundary
        let _: &DirectoryView = self.placement.view(); //~ stage-boundary
        engine.draw()
    }
}
