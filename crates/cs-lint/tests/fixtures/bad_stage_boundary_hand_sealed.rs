// cs-lint-fixture: path = "crates/relaynet/src/network/client_xfer.rs"
// Row 8: torcell seals every relay cell where it is made. The pipeline
// names no digest key and wraps no layer by hand.

use torcell::crypto::{DigestKey, OnionRoute}; //~ stage-boundary

fn control_cell(key: DigestKey, data: Vec<u8>) -> RelayCell { //~ stage-boundary
    RelayCell {
        digest: key.digest(&data),
        ..RelayCell::data(StreamId(1), data)
    }
}

fn pump(route: &mut OnionRoute, hop: usize, qc: &mut QueuedCell) {
    let _ = route.digest_key(hop); //~ stage-boundary
    if let Some(hop) = qc.wrap_for_hop { //~ stage-boundary
        route.wrap_for_hop(hop, &mut qc.rc); //~ stage-boundary
    }
}

// Sealed where it is made, and a comment may name wrap_for_hop.
fn sealed(route: &mut OnionRoute, plain: &[u8]) -> RelayCell {
    route.seal_for_hop(2, RelayCommand::End, StreamId(1), plain, Vec::new())
}

#[cfg(test)]
mod tests {
    // A test may check a cell's digest under the hop's key.
    fn verifies(route: &OnionRoute, cell: &RelayCell) -> bool {
        route.digest_key(2).digest(&cell.data) == cell.digest
    }
}
