//! Lexer robustness: seeded byte soup, adversarial fragment collages,
//! and the workspace's own concatenated sources must lex without
//! panicking, with token spans that are strictly monotone, char-aligned,
//! and that tile the input up to whitespace.

use cs_lint::lexer::{self, Token};
use simcore::rng::SimRng;

/// Every structural invariant the rule engine relies on:
/// * spans are non-empty, in bounds, and on `char` boundaries;
/// * spans are strictly monotone (no overlap, no reordering);
/// * the bytes between consecutive tokens are pure whitespace — the
///   lexer drops nothing else on the floor;
/// * `line`/`col` agree with the span's actual position in the source.
fn assert_invariants(src: &str, tokens: &[Token]) {
    let mut prev_end = 0usize;
    // Incremental line/col tracker so the check stays linear even on
    // the concatenated-workspace input.
    let (mut at, mut line, mut col) = (0usize, 1u32, 1u32);
    let mut advance_to = |target: usize| {
        for &b in &src.as_bytes()[at..target] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        at = target;
        (line, col)
    };
    for t in tokens {
        assert!(t.start < t.end, "empty token span {}..{}", t.start, t.end);
        assert!(
            t.end <= src.len(),
            "span {}..{} out of bounds",
            t.start,
            t.end
        );
        assert!(
            src.is_char_boundary(t.start) && src.is_char_boundary(t.end),
            "span {}..{} splits a char",
            t.start,
            t.end
        );
        assert!(
            prev_end <= t.start,
            "token at {} overlaps previous end {}",
            t.start,
            prev_end
        );
        assert!(
            src[prev_end..t.start].chars().all(char::is_whitespace),
            "non-whitespace dropped between tokens: {:?}",
            &src[prev_end..t.start]
        );
        assert_eq!(
            (t.line, t.col),
            advance_to(t.start),
            "position drift at {}",
            t.start
        );
        prev_end = t.end;
    }
    assert!(
        src[prev_end..].chars().all(char::is_whitespace),
        "non-whitespace trailing after last token: {:?}",
        &src[prev_end..]
    );
}

#[test]
fn byte_soup_never_panics_and_spans_tile() {
    let master = SimRng::seed_from(0xC1AC_0157_F022);
    let mut rng = master.derive("byte-soup");
    for case in 0..2_000u64 {
        let len = rng.range_usize(0, 256);
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        // Lossy conversion keeps the soup arbitrary while satisfying
        // the lexer's &str contract.
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let tokens = lexer::lex(&src);
        assert_invariants(&src, &tokens);
        let _ = case;
    }
}

/// Fragments chosen to sit on the lexer's edge cases: unterminated
/// strings, raw-string fences, nested comments, lifetimes vs chars,
/// raw identifiers, maximal-munch operator runs.
const FRAGMENTS: &[&str] = &[
    "\"",
    "\"\\\"",
    "r#\"",
    "\"#",
    "r##\"x\"##",
    "b\"bytes\"",
    "br#\"",
    "/*",
    "*/",
    "/* /* */",
    "//",
    "///!",
    "'a",
    "'a'",
    "'\\''",
    "'\\u{1F600}'",
    "b'x'",
    "r#fn",
    "r#struct",
    "0xFF_u64",
    "1_000.5e-3",
    "0b1010",
    "..=",
    "...",
    "::<>",
    "<<=",
    ">>=",
    "&&||",
    "=>->",
    "\u{00e9}\u{4e2d}",
    "\n",
    "    ",
    "}{)(][",
    "#[cfg(test)]",
    "let x = ",
    ";",
];

#[test]
fn fragment_collages_never_panic_and_spans_tile() {
    let master = SimRng::seed_from(0xC1AC_0157_F023);
    let mut rng = master.derive("collage");
    for _case in 0..2_000u64 {
        let pieces = rng.range_usize(1, 24);
        let mut src = String::new();
        for _ in 0..pieces {
            src.push_str(FRAGMENTS[rng.range_usize(0, FRAGMENTS.len())]);
        }
        let tokens = lexer::lex(&src);
        assert_invariants(&src, &tokens);
    }
}

#[test]
fn concatenated_workspace_sources_lex_cleanly() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let mut src = String::new();
    for rel in [
        "crates/simcore/src/rng.rs",
        "crates/simstats/src/sketch.rs",
        "crates/cs-lint/src/lexer.rs",
        "crates/cs-lint/src/engine.rs",
        "crates/cs-lint/src/destructure.rs",
    ] {
        src.push_str(&std::fs::read_to_string(root.join(rel)).expect("source readable"));
        src.push('\n');
    }
    assert!(src.len() > 40_000, "concatenation suspiciously small");
    let tokens = lexer::lex(&src);
    assert!(tokens.len() > 10_000, "suspiciously few tokens");
    assert_invariants(&src, &tokens);
}
