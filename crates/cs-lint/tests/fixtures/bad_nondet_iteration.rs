// cs-lint-fixture: path = "crates/simstats/src/bad.rs"
use std::collections::HashMap; //~ nondeterministic-iteration
use std::collections::{BTreeMap, HashSet}; //~ nondeterministic-iteration

struct Slabs {
    routes: HashMap<u64, u64>, //~ nondeterministic-iteration
    ordered: BTreeMap<u64, u64>,
}

fn build() -> HashSet<u64> { //~ nondeterministic-iteration
    // cs-lint: allow(nondeterministic-iteration, reason = "membership-only probe, never iterated")
    let allowed = HashSet::new();
    allowed
}

#[cfg(test)]
mod tests {
    #[test]
    fn still_scoped_in_tests() {
        let m = std::collections::HashMap::<u8, u8>::new(); //~ nondeterministic-iteration
        assert!(m.is_empty());
    }
}
