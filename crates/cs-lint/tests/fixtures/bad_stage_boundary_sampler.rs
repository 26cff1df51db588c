// cs-lint-fixture: path = "crates/relaynet/src/builder.rs"
// Row 5: every world draws through the Fenwick SelectionEngine; the
// builder chooses no sampler.

use crate::sampler::{SamplerKind, LinearSampler}; //~ stage-boundary

pub struct StarScenario {
    sampler: SamplerKind, //~ stage-boundary
}

fn kinds() -> [SamplerKind; 2] {
    [SamplerKind::Fenwick, SamplerKind::Linear] //~ stage-boundary
}

// A path through the sampler module is not a field.
fn fenwick() -> crate::sampler::FenwickSampler {
    crate::sampler::FenwickSampler::default()
}
