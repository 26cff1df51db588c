//! The lint rules: what each one matches in the token stream and why
//! the matched pattern threatens a standing invariant (DESIGN.md §14).
//!
//! Detection is purely token-level — no type information. Where a rule
//! would need types (is this `+=` an `f64`?), it uses same-file
//! evidence (`ident : f64` declarations), which works because merge
//! functions conventionally live next to the struct they merge. The
//! limits of each heuristic are documented on the rule.

use crate::items::ItemIndex;
use crate::lexer::{Token, TokenKind};
use crate::policy::STAGE_BOUNDARIES;

/// Identity of a lint rule. `malformed-annotation` and `unused-allow`
/// are reported by the engine itself and are not in this enum: they
/// cannot be suppressed. Neither can `stage-boundary`: its name does not
/// parse in an `allow`, because an ownership boundary with a way round
/// it is not a boundary.
///
/// The first seven are token-level; `exhaustive-destructure` is semantic,
/// over the item index (`crate::items` + `crate::destructure`);
/// `stage-boundary` matches the token sequences of
/// [`crate::policy::STAGE_BOUNDARIES`] in the files each row names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    NondetIteration,
    WallClock,
    StrayThreads,
    FloatAccumulationInMerge,
    RngDiscipline,
    NoPrintlnInLib,
    NoBareUnwrapInLib,
    ExhaustiveDestructure,
    StageBoundary,
}

/// All rules, in reporting order.
pub const ALL_RULES: &[Rule] = &[
    Rule::NondetIteration,
    Rule::WallClock,
    Rule::StrayThreads,
    Rule::FloatAccumulationInMerge,
    Rule::RngDiscipline,
    Rule::NoPrintlnInLib,
    Rule::NoBareUnwrapInLib,
    Rule::ExhaustiveDestructure,
    Rule::StageBoundary,
];

impl Rule {
    /// The kebab-case name used in reports and `allow(...)` annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondetIteration => "nondeterministic-iteration",
            Rule::WallClock => "wall-clock",
            Rule::StrayThreads => "stray-threads",
            Rule::FloatAccumulationInMerge => "float-accumulation-in-merge",
            Rule::RngDiscipline => "rng-discipline",
            Rule::NoPrintlnInLib => "no-println-in-lib",
            Rule::NoBareUnwrapInLib => "no-bare-unwrap-in-lib",
            Rule::ExhaustiveDestructure => "exhaustive-destructure",
            Rule::StageBoundary => "stage-boundary",
        }
    }

    /// Whether an `allow` annotation may name this rule.
    pub fn suppressible(self) -> bool {
        self != Rule::StageBoundary
    }

    /// Parses an annotation rule name: a suppressible rule's, or `None`.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.suppressible() && r.name() == name)
    }

    /// One-line rationale attached to every finding.
    pub fn message(self) -> &'static str {
        match self {
            Rule::NondetIteration => {
                "HashMap/HashSet in a fingerprint-visible crate: iteration order is \
                 unseeded and may change across std releases; keep the entries in a sorted \
                 Vec or in a structure the owner already holds (a slab, a rotation), or \
                 annotate why ordering never escapes"
            }
            Rule::WallClock => {
                "wall-clock read outside cs-bench: results must be a function of the \
                 seed, never of the host clock"
            }
            Rule::StrayThreads => {
                "thread spawned outside simcore::exec: all parallelism goes through the \
                 Executor seam so scheduling can never leak into results"
            }
            Rule::FloatAccumulationInMerge => {
                "f64 accumulation inside a merge fn: float addition is not associative, \
                 so shard merge order leaks into aggregates (the PR 8 sum bug); use \
                 integer/fixed-point accumulators"
            }
            Rule::RngDiscipline => {
                "RNG stream minted outside a scenario builder: every stream must be \
                 derivation-rooted at the master seed via labeled derive()"
            }
            Rule::NoPrintlnInLib => {
                "stdout/debug write in library code: report through simstats \
                 (registry/sketch) so telemetry stays mergeable and machine-readable"
            }
            Rule::NoBareUnwrapInLib => {
                "bare unwrap() in library code: use expect(\"<invariant>\") naming the \
                 invariant that makes this infallible"
            }
            Rule::ExhaustiveDestructure => {
                "merge/export/fingerprint fn must bind every field of its struct via an \
                 exhaustive destructure or literal with no `..` rest pattern, so adding \
                 a field is a compile error instead of a silent aggregation gap"
            }
            Rule::StageBoundary => {
                "a file names what another part of the program owns: each boundary \
                 is a row of cs_lint::policy::STAGE_BOUNDARIES, and none has an \
                 escape hatch"
            }
        }
    }
}

/// A rule match before policy scoping and `allow` filtering.
///
/// `detail` carries per-site evidence (e.g. the call chain that reaches
/// a clock, or the line of the first duplicate label) and is appended
/// to the rule's invariant message in the report.
#[derive(Clone, Debug)]
pub struct RawFinding {
    pub rule: Rule,
    pub line: u32,
    pub col: u32,
    pub detail: Option<String>,
}

fn hit(out: &mut Vec<RawFinding>, rule: Rule, t: &Token) {
    out.push(RawFinding {
        rule,
        line: t.line,
        col: t.col,
        detail: None,
    });
}

/// Runs every token-level rule's matcher over the comment-free token
/// stream; `items` is the same file's item index, which supplies the
/// `merge*` body spans. Scoping and suppression happen later in the
/// engine.
pub fn detect(src: &str, code: &[Token], items: &ItemIndex) -> Vec<RawFinding> {
    let text = |i: usize| code[i].text(src);
    let is = |i: usize, s: &str| i < code.len() && text(i) == s;
    let is_ident =
        |i: usize, s: &str| i < code.len() && code[i].kind == TokenKind::Ident && text(i) == s;

    // Same-file `name : f64` declarations (struct fields, lets, params):
    // the type evidence behind float-accumulation-in-merge.
    let mut f64_names: Vec<&str> = Vec::new();
    for (i, tok) in code.iter().enumerate().take(code.len().saturating_sub(2)) {
        if tok.kind == TokenKind::Ident && is(i + 1, ":") && is_ident(i + 2, "f64") {
            f64_names.push(text(i));
        }
    }

    // Body spans (token index ranges) of `fn merge*` functions.
    let merge_bodies: Vec<(usize, usize)> = items
        .fns
        .iter()
        .filter(|f| f.name.starts_with("merge"))
        .filter_map(|f| f.body)
        .collect();
    let in_merge = |i: usize| merge_bodies.iter().any(|&(a, b)| i > a && i < b);

    let mut out = Vec::new();
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokenKind::Ident && !(t.kind == TokenKind::Punct && text(i) == "+=") {
            continue;
        }
        let w = text(i);
        match w {
            // nondeterministic-iteration: any appearance — import, type
            // position, or constructor — of the unordered std maps.
            "HashMap" | "HashSet" => hit(&mut out, Rule::NondetIteration, t),

            // wall-clock: `Instant::now` call sites and any mention of
            // `SystemTime` (even importing it has no legitimate use
            // outside the bench crate).
            "Instant" if is(i + 1, "::") && is_ident(i + 2, "now") => {
                hit(&mut out, Rule::WallClock, t)
            }
            "SystemTime" => hit(&mut out, Rule::WallClock, t),

            // stray-threads: `thread::spawn` / `thread::scope` paths
            // (also matches the `std::thread::` spelling since `thread`
            // precedes the call either way). Invariant: every thread runs
            // inside `simcore::exec`, where `DeterministicExecutor` is the
            // oracle a threaded run must fingerprint-equal; a thread
            // spawned anywhere else runs outside that check. Kept while
            // `ThreadedExecutor` exists (ROADMAP item 7 decides it).
            "thread"
                if is(i + 1, "::") && (is_ident(i + 2, "spawn") || is_ident(i + 2, "scope")) =>
            {
                hit(&mut out, Rule::StrayThreads, t)
            }

            // rng-discipline: minting (`SimRng::seed_from` /
            // `SimRng::new`) or deriving (`.derive(` /
            // `.derive_indexed(`) a stream. The leading dot keeps
            // `#[derive(...)]` attributes out.
            "SimRng"
                if is(i + 1, "::") && (is_ident(i + 2, "seed_from") || is_ident(i + 2, "new")) =>
            {
                hit(&mut out, Rule::RngDiscipline, t)
            }
            "derive" | "derive_indexed" if i > 0 && is(i - 1, ".") && is(i + 1, "(") => {
                hit(&mut out, Rule::RngDiscipline, t)
            }

            // no-println-in-lib: stdout/stderr/debug macros. Invariant: a
            // binary's output is a function of its seed (runs are diffed
            // for determinism, and scripts parse csbench's lines); a
            // library print, possibly from a worker thread of a sharded
            // run, would interleave into it. Library telemetry goes
            // through simstats.
            "println" | "print" | "eprintln" | "eprint" | "dbg" if is(i + 1, "!") => {
                hit(&mut out, Rule::NoPrintlnInLib, t)
            }

            // no-bare-unwrap-in-lib: `.unwrap()` exactly — `unwrap_or*`
            // are different idents and stay legal.
            "unwrap" if i > 0 && is(i - 1, ".") && is(i + 1, "(") && is(i + 2, ")") => {
                hit(&mut out, Rule::NoBareUnwrapInLib, t)
            }

            // float-accumulation-in-merge, part 1: `x += …` / `self.x += …`
            // where `x` is declared `: f64` in this file.
            "+=" if in_merge(i) && i > 0 => {
                let lhs = text(i - 1);
                if code[i - 1].kind == TokenKind::Ident && f64_names.contains(&lhs) {
                    hit(&mut out, Rule::FloatAccumulationInMerge, t);
                }
            }

            // part 2: any `.sum(` / `.sum::<…>(` reduction inside a
            // merge body — summing an iterator of floats is the same
            // order-sensitivity with extra steps, and integer `.sum()`
            // has no business in a merge either (use explicit `+`).
            "sum"
                if in_merge(i)
                    && i > 0
                    && is(i - 1, ".")
                    && (is(i + 1, "(") || is(i + 1, "::")) =>
            {
                hit(&mut out, Rule::FloatAccumulationInMerge, t)
            }
            _ => {}
        }
    }
    out
}

/// `stage-boundary`: every occurrence, in the comment-free token stream
/// of the file at `rel_path`, of a token sequence that a row of
/// [`STAGE_BOUNDARIES`] forbids there. Comments never reach the stream,
/// and a string literal is one token whose text keeps its quotes, so
/// neither can match; rustfmt's line splits do not change the tokens.
/// The finding sits on the sequence's first token and names the row's
/// invariant; the engine drops the ones inside test regions.
pub fn stage_boundary(rel_path: &str, src: &str, code: &[Token]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for row in STAGE_BOUNDARIES.iter().filter(|row| row.covers(rel_path)) {
        for seq in row.forbidden {
            for (i, t) in code.iter().enumerate() {
                let matched = code[i..].len() >= seq.len()
                    && seq.iter().zip(&code[i..]).all(|(s, c)| c.text(src) == *s);
                if matched {
                    out.push(RawFinding {
                        rule: Rule::StageBoundary,
                        line: t.line,
                        col: t.col,
                        detail: Some(format!("`{}`: {}", seq.concat(), row.invariant)),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::lexer::code_tokens;

    fn run(src: &str) -> Vec<(Rule, u32)> {
        let code = code_tokens(src);
        detect(src, &code, &items::parse(src, &code))
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn derive_attribute_is_not_a_stream_derive() {
        assert!(run("#[derive(Clone, Debug)]\nstruct S;").is_empty());
        assert_eq!(
            run("let c = rng.derive(\"x\");"),
            vec![(Rule::RngDiscipline, 1)]
        );
        assert_eq!(
            run("rng.derive_indexed(\"s\", 3);"),
            vec![(Rule::RngDiscipline, 1)]
        );
    }

    #[test]
    fn unwrap_variants() {
        assert_eq!(run("x.unwrap();"), vec![(Rule::NoBareUnwrapInLib, 1)]);
        assert!(run("x.unwrap_or(0);").is_empty());
        assert!(run("x.unwrap_or_else(|| 0);").is_empty());
        assert!(run("x.expect(\"invariant\");").is_empty());
    }

    #[test]
    fn float_merge_needs_f64_evidence() {
        let bad =
            "struct S { sum: f64 }\nimpl S { fn merge(&mut self, o: &S) { self.sum += o.sum; } }";
        assert_eq!(run(bad), vec![(Rule::FloatAccumulationInMerge, 2)]);
        let good = "struct S { n: u64 }\nimpl S { fn merge(&mut self, o: &S) { self.n += o.n; } }";
        assert!(run(good).is_empty());
        let outside =
            "struct S { sum: f64 }\nimpl S { fn add(&mut self, v: f64) { self.sum += v; } }";
        assert!(run(outside).is_empty());
        let iter_sum = "fn merge_all(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
        assert_eq!(run(iter_sum), vec![(Rule::FloatAccumulationInMerge, 1)]);
    }

    #[test]
    fn wall_clock_and_threads() {
        assert_eq!(run("let t = Instant::now();"), vec![(Rule::WallClock, 1)]);
        assert_eq!(
            run("use std::time::SystemTime;"),
            vec![(Rule::WallClock, 1)]
        );
        // `Instant` alone (a type in a signature) is not a read.
        assert!(run("fn f(t: Instant) {}").is_empty());
        assert_eq!(
            run("std::thread::spawn(|| {});"),
            vec![(Rule::StrayThreads, 1)]
        );
        assert_eq!(run("thread::scope(|s| {});"), vec![(Rule::StrayThreads, 1)]);
        assert!(run("pool.spawn(job);").is_empty());
    }
}
