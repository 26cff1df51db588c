// cs-lint-fixture: path = "crates/simcore/src/probe.rs"
// A test-only field ends at its own `,`: the fns after the struct are
// production code, the first one included.
pub struct Kernel {
    pub queue: Vec<u64>,
    #[cfg(test)]
    pub probe: u8,
}

pub fn first() {
    std::thread::spawn(|| ()); //~ stray-threads
}

pub fn second() {
    std::thread::spawn(|| ()); //~ stray-threads
}
