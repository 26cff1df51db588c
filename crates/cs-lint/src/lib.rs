//! `cs-lint` — the workspace's determinism-and-invariant lint
//! (DESIGN.md §14).
//!
//! Every guarantee this reproduction makes — bit-exact
//! `WorldFingerprint` equality across queue/executor seams,
//! merge-order-invariant telemetry, derivation-rooted RNG streams — is
//! otherwise enforced only at runtime by differential suites, which
//! means a nondeterminism leak survives until a test happens to take
//! the path that exposes it (PR 8's f64 merge-sum drift did exactly
//! that). This crate catches the known hazard classes at the *source*
//! level instead:
//!
//! | rule | invariant it guards |
//! |------|---------------------|
//! | `nondeterministic-iteration` | no unseeded `HashMap`/`HashSet` order in fingerprint-visible crates |
//! | `wall-clock` | results are a function of the seed, not the host clock |
//! | `stray-threads` | all parallelism goes through the `simcore::exec` seam |
//! | `float-accumulation-in-merge` | shard merges are bit-exact in any order |
//! | `rng-discipline` | every stream derives from the master seed in a builder |
//! | `no-println-in-lib` | library telemetry goes through `simstats` |
//! | `no-bare-unwrap-in-lib` | library panics name their invariant |
//! | `exhaustive-destructure` | merge/export/fingerprint fns bind every struct field |
//! | `stage-boundary` | each relay pipeline stage, and `Net`'s links, name only what they own |
//!
//! The first seven are token-local. `exhaustive-destructure` is
//! *semantic*: it runs on an item-level parse ([`items`]) of the same
//! token stream and looks the merged struct up across the workspace
//! ([`destructure`]). `stage-boundary` is token-local too, over the
//! files each row of [`policy::STAGE_BOUNDARIES`] names, and no
//! annotation can name it. The wall-clock and thread rules fire at the
//! helper that holds the sink, which is where a fix belongs (DESIGN.md
//! §14). The engine also
//! reports two rules of its own that no annotation can silence:
//! `malformed-annotation` (an unparseable `cs-lint:` comment) and
//! `unused-allow` (a suppression whose rule no longer fires on its
//! bound line — annotation debt is pruned, never accumulated). Under
//! `crates/simcore/` every `allow` is malformed: the kernel needs no
//! escape hatch.
//!
//! Violations are suppressed one line at a time with an annotation on
//! the preceding line:
//!
//! ```text
//! // cs-lint: allow(nondeterministic-iteration, reason = "membership-only, never iterated")
//! ```
//!
//! The crate is **dependency-free** (hand-rolled lexer, same discipline
//! as the local xoshiro RNG and `csbench`) so the CI gate never
//! depends on code it cannot itself vouch for.

pub mod destructure;
pub mod engine;
pub mod items;
pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;
