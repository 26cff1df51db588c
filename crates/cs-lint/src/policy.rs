//! Crate/module policy: which rule applies where (DESIGN.md §14).
//!
//! Scoping is **deny by default**: a rule exempts named crates, files,
//! or regions, so a crate added to the workspace tomorrow is fully
//! lint-scoped without anyone editing this table (ROADMAP standing
//! rule). Paths are workspace-relative with `/` separators.

/// What kind of compilation target a file belongs to, derived from its
/// path by Cargo's layout conventions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetKind {
    /// `src/**` of a package — the library surface other code links.
    Lib,
    /// `src/main.rs` or `src/bin/**` — a binary entry point.
    Bin,
    /// `tests/**` — an integration-test target.
    TestFile,
    /// `benches/**` — a bench target.
    BenchFile,
    /// `examples/**` — a runnable example.
    ExampleFile,
}

/// Where a file sits in the workspace.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Cargo package name (directory name mapped through the rename
    /// table: `crates/bench` → `cs-bench`, `crates/core` →
    /// `circuitstart`; the workspace root is `circuitstart-repro`).
    pub krate: String,
    pub kind: TargetKind,
}

/// Package renames: crate directory → package name.
const CRATE_RENAMES: &[(&str, &str)] = &[("bench", "cs-bench"), ("core", "circuitstart")];

/// Classifies a workspace-relative `.rs` path.
pub fn classify(rel_path: &str) -> FileCtx {
    let (krate, within) = match rel_path.strip_prefix("crates/") {
        Some(rest) => {
            let (dir, within) = rest.split_once('/').unwrap_or((rest, ""));
            let name = CRATE_RENAMES
                .iter()
                .find(|(d, _)| *d == dir)
                .map(|(_, n)| *n)
                .unwrap_or(dir);
            (name.to_string(), within.to_string())
        }
        None => ("circuitstart-repro".to_string(), rel_path.to_string()),
    };
    let kind = if within.starts_with("tests/") {
        TargetKind::TestFile
    } else if within.starts_with("benches/") {
        TargetKind::BenchFile
    } else if within.starts_with("examples/") {
        TargetKind::ExampleFile
    } else if within.starts_with("src/bin/") || within == "src/main.rs" {
        TargetKind::Bin
    } else {
        TargetKind::Lib
    };
    FileCtx {
        rel_path: rel_path.to_string(),
        krate,
        kind,
    }
}

/// Crates whose state is *not* fingerprint-visible, and therefore exempt
/// from `nondeterministic-iteration`:
/// * `netsim` / `circuitstart` (core) — pure functions of their inputs,
///   no keyed collections feed `WorldFingerprint`;
/// * `cs-bench` / `cs-lint` — tooling, never inside a simulated world;
/// * `circuitstart-repro` — the root package (integration tests pin
///   fingerprints but do not produce them).
///
/// Every other crate — present or future — is in scope.
const HASH_EXEMPT_CRATES: &[&str] = &[
    "netsim",
    "circuitstart",
    "cs-bench",
    "cs-lint",
    "circuitstart-repro",
];

/// Files allowed to create or derive RNG streams outside tests: the RNG
/// home module and the scenario builders, where every stream is minted
/// from the master seed with a stable label (DESIGN.md §14).
const RNG_BUILDER_FILES: &[&str] = &[
    "crates/simcore/src/rng.rs",
    "crates/relaynet/src/builder.rs",
    "crates/relaynet/src/runtime.rs",
];

/// The one module allowed to spawn threads: the executor seam.
const THREAD_HOME: &str = "crates/simcore/src/exec.rs";

/// Decides whether `rule` applies at a site.
///
/// `test_code` is true for integration-test files and for `#[cfg(test)]`
/// / `#[test]` regions inside any file.
pub fn rule_applies(rule: crate::rules::Rule, ctx: &FileCtx, test_code: bool) -> bool {
    use crate::rules::Rule::*;
    match rule {
        // Fingerprint-visible crates must not touch unordered maps even
        // in tests: a test asserting over HashMap iteration order flakes
        // across std versions exactly like production code would.
        NondetIteration => !HASH_EXEMPT_CRATES.contains(&ctx.krate.as_str()),
        // Results must be a function of the seed everywhere but the
        // bench crate, whose whole job is reading the host clock.
        WallClock => ctx.krate != "cs-bench",
        // Hidden parallelism is banned outside the executor seam; test
        // code is exempt so watchdog threads in differential suites stay
        // annotation-free (they never touch world state).
        StrayThreads => !test_code && ctx.rel_path != THREAD_HOME,
        // The PR 8 bug class: order-sensitive f64 accumulation in merge
        // functions. No exemptions — a test merging floats is as
        // order-sensitive as a shard aggregator.
        FloatAccumulationInMerge => true,
        // Streams are minted by scenario builders and tests only;
        // everything else must take a stream it was handed. Bench
        // targets are top-level experiment drivers: the pinned seed in a
        // bench *is* that experiment's master seed, so minting there is
        // the rooted case, not a leak.
        RngDiscipline => {
            !test_code
                && ctx.kind != TargetKind::BenchFile
                && !RNG_BUILDER_FILES.contains(&ctx.rel_path.as_str())
        }
        // Library code reports through simstats, not stdout. Binaries,
        // examples, benches, and the bench crate print by design.
        NoPrintlnInLib => ctx.kind == TargetKind::Lib && !test_code && ctx.krate != "cs-bench",
        // Library panics must name their invariant.
        NoBareUnwrapInLib => ctx.kind == TargetKind::Lib && !test_code,
        // Exhaustive binding is enforced exactly where unordered-map
        // iteration is: crates whose state feeds `WorldFingerprint` or
        // mergeable telemetry. Tooling crates keep ad-hoc merges.
        ExhaustiveDestructure => !HASH_EXEMPT_CRATES.contains(&ctx.krate.as_str()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    #[test]
    fn classification_by_layout() {
        let c = classify("crates/relaynet/src/network/mod.rs");
        assert_eq!((c.krate.as_str(), c.kind), ("relaynet", TargetKind::Lib));
        let c = classify("crates/bench/src/bin/ablations.rs");
        assert_eq!((c.krate.as_str(), c.kind), ("cs-bench", TargetKind::Bin));
        let c = classify("crates/core/src/lib.rs");
        assert_eq!(
            (c.krate.as_str(), c.kind),
            ("circuitstart", TargetKind::Lib)
        );
        let c = classify("tests/queue_equivalence.rs");
        assert_eq!(
            (c.krate.as_str(), c.kind),
            ("circuitstart-repro", TargetKind::TestFile)
        );
        let c = classify("examples/quickstart.rs");
        assert_eq!(c.kind, TargetKind::ExampleFile);
        let c = classify("crates/cs-lint/src/main.rs");
        assert_eq!((c.krate.as_str(), c.kind), ("cs-lint", TargetKind::Bin));
        let c = classify("crates/simcore/benches/x.rs");
        assert_eq!(c.kind, TargetKind::BenchFile);
    }

    #[test]
    fn unknown_crates_are_scoped_by_default() {
        let c = classify("crates/newcrate/src/lib.rs");
        assert!(rule_applies(Rule::NondetIteration, &c, false));
        assert!(rule_applies(Rule::WallClock, &c, false));
        assert!(rule_applies(Rule::NoBareUnwrapInLib, &c, false));
    }

    #[test]
    fn scoping_edges() {
        let exec = classify("crates/simcore/src/exec.rs");
        assert!(!rule_applies(Rule::StrayThreads, &exec, false));
        let sim = classify("crates/simcore/src/sim.rs");
        assert!(rule_applies(Rule::StrayThreads, &sim, false));
        assert!(!rule_applies(Rule::StrayThreads, &sim, true));

        let bench = classify("crates/bench/src/lib.rs");
        assert!(!rule_applies(Rule::WallClock, &bench, false));
        assert!(!rule_applies(Rule::NoPrintlnInLib, &bench, false));
        assert!(rule_applies(Rule::NoBareUnwrapInLib, &bench, false));

        let builder = classify("crates/relaynet/src/builder.rs");
        assert!(!rule_applies(Rule::RngDiscipline, &builder, false));
        let bench_target = classify("crates/bench/benches/x.rs");
        assert!(!rule_applies(Rule::RngDiscipline, &bench_target, false));
        let sel = classify("crates/relaynet/src/selection.rs");
        assert!(rule_applies(Rule::RngDiscipline, &sel, false));
        assert!(!rule_applies(Rule::RngDiscipline, &sel, true));

        // Hash rule reaches tests of fingerprint-visible crates…
        let ids = classify("crates/torcell/src/ids.rs");
        assert!(rule_applies(Rule::NondetIteration, &ids, true));
        // …but not the exempt crates.
        let net = classify("crates/netsim/src/lib.rs");
        assert!(!rule_applies(Rule::NondetIteration, &net, false));
    }

    #[test]
    fn semantic_rule_scoping() {
        // Exhaustive destructure follows the fingerprint-visibility set.
        let stats = classify("crates/simstats/src/sketch.rs");
        assert!(rule_applies(Rule::ExhaustiveDestructure, &stats, false));
        let lint = classify("crates/cs-lint/src/report.rs");
        assert!(!rule_applies(Rule::ExhaustiveDestructure, &lint, false));
    }
}
