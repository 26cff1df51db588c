// cs-lint-fixture: path = "crates/simcore/src/sim.rs"
// The kernel needs no escape hatch: under crates/simcore/ a well-formed
// allow is itself a malformed annotation, and suppresses nothing.

// cs-lint: allow(wall-clock, reason = "timing the event loop")
//~^ malformed-annotation
fn stamp() -> std::time::Instant {
    std::time::Instant::now() //~ wall-clock
}
