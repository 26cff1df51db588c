// cs-lint-fixture: path = "crates/relaynet/src/bad_annotation.rs"
// Malformed annotations are findings themselves, and a well-formed
// allow never suppresses a DIFFERENT rule or a non-adjacent line.

// cs-lint: allow(no-such-rule, reason = "unknown rule name") //~ malformed-annotation
use std::collections::VecDeque;

// cs-lint: allow(wall-clock) //~ malformed-annotation
fn missing_reason() -> VecDeque<u64> {
    VecDeque::new()
}

// cs-lint: allow(wall-clock, reason = "") //~ malformed-annotation
fn empty_reason() -> u64 {
    1
}

fn trailing() -> u64 { 2 } // cs-lint: allow(wall-clock, reason = "not allowed trailing code") //~ malformed-annotation

// A marker on the annotation's own line would corrupt the annotation,
// so unused-allow expectations use the previous-line (caret) form.
// cs-lint: allow(wall-clock, reason = "wrong rule for the site below")
//~^ unused-allow
fn wrong_rule() {
    let _ = std::collections::HashSet::<u8>::new(); //~ nondeterministic-iteration
}

// cs-lint: allow(nondeterministic-iteration, reason = "right rule, but a code line intervenes")
//~^ unused-allow
fn not_adjacent() -> u64 {
    let _ = std::collections::HashSet::<u8>::new(); //~ nondeterministic-iteration
    3
}
