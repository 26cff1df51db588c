// cs-lint-fixture: path = "crates/relaynet/src/network/conn.rs"
// Forbidden names in comments, strings and doc links are prose, not
// code: `self.faults`, FaultState, .placement, SelectionEngine,
// SamplerKind::Linear, sampler: x, Router, NodeId(3).

/// Reports through [`FaultState`] via [`super::faults`], never
/// [`Router`] or [`net_node_of`]; see `SelectionEngine` and
/// [`DirectoryView`].
fn describe() -> &'static str {
    /* self.faults.is_down(x); PlacementState; overlay_of_net */
    let _raw = r#"net.placement.engine(); NodeId(1); sampler: s"#;
    "stale_or_protocol_error: a FaultState lives in network/faults.rs"
}
