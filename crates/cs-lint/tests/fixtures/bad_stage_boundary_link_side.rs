// cs-lint-fixture: path = "crates/relaynet/src/node.rs"
// Row 1: `network::Egress` owns the link side, so no relaynet fn takes
// enough pass-through arguments to need clippy's permission.

#[allow(clippy::too_many_arguments)] //~ stage-boundary
fn plumbing(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8, g: u8, h: u8) -> u8 {
    a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
}

#[cfg(test)]
mod tests {
    // Test helpers may take what they like.
    #[allow(clippy::too_many_arguments)]
    fn world(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8, g: u8, h: u8) {}
}
