// cs-lint-fixture: path = "crates/relaynet/src/network/conn.rs"
// Row 2: fault handling is owned by network/faults.rs; a protocol stage
// names no fault state.

use super::faults::FaultState; //~ stage-boundary

impl TorNetwork {
    fn on_frame(&mut self, frame: Frame) {
        if self.faults.is_down(frame.dst) { //~ stage-boundary
            return;
        }
        // rustfmt splits the chain; the tokens are the same.
        let stale = self
            .faults //~ stage-boundary
            .stale_or_protocol_error(frame); //~ stage-boundary
        // A name that merely contains the word is another token.
        let faults_seen = stale;
        self.report(faults_seen);
    }
}

#[cfg(test)]
mod tests {
    fn inspect(net: &TorNetwork) -> &FaultState {
        &net.faults
    }
}
