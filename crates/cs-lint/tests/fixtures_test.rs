//! The fixture corpus: every rule must fire at exactly the expected
//! `file:line`, and the lexer hard cases must produce zero false
//! positives.
//!
//! Fixture grammar:
//! * line 1: `// cs-lint-fixture: path = "<virtual workspace path>"` —
//!   the path drives policy scoping;
//! * a trailing `//~ <rule-name>` marker on any line declares one
//!   expected finding there (repeat the marker for multiple findings on
//!   one line);
//! * `//~^ <rule-name>` declares the finding one line UP (each extra
//!   `^` climbs one more line) — needed when the finding is on a line
//!   that cannot carry a trailing comment, e.g. a `// cs-lint: allow`
//!   annotation whose parse a suffix would corrupt;
//! * a fixture with no markers asserts the file is completely clean.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cs_lint::engine;
use cs_lint::rules::ALL_RULES;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures dir exists")
        .map(|e| e.expect("fixture entry readable").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 18,
        "fixture corpus shrank: {} files",
        files.len()
    );
    files
}

/// Parses the `cs-lint-fixture: path = "..."` header.
fn virtual_path(content: &str, file: &Path) -> String {
    let first = content.lines().next().unwrap_or("");
    let rest = first
        .split_once("cs-lint-fixture:")
        .unwrap_or_else(|| panic!("{} missing fixture header", file.display()))
        .1;
    let path = rest
        .split_once('"')
        .and_then(|(_, r)| r.split_once('"'))
        .map(|(p, _)| p)
        .unwrap_or_else(|| panic!("{} has a malformed fixture header", file.display()));
    assert!(!path.is_empty());
    path.to_string()
}

/// Collects `(line, rule)` expectations from `//~` / `//~^` markers.
fn expectations(content: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in content.lines().enumerate() {
        for piece in line.split("//~").skip(1) {
            let up = piece.chars().take_while(|&c| c == '^').count() as u32;
            let rest = &piece[up as usize..];
            let rule = rest
                .trim_start()
                .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .next()
                .unwrap_or("")
                .to_string();
            assert!(!rule.is_empty(), "empty //~ marker on line {}", i + 1);
            let line_no = i as u32 + 1;
            assert!(up < line_no, "//~^ marker climbs past line 1");
            out.push((line_no - up, rule));
        }
    }
    out.sort();
    out
}

#[test]
fn every_fixture_matches_its_markers_exactly() {
    for file in fixture_files() {
        let content = std::fs::read_to_string(&file).expect("fixture readable");
        let vpath = virtual_path(&content, &file);
        let expected = expectations(&content);
        let mut found: Vec<(u32, String)> = engine::scan_source(&vpath, &content)
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect();
        found.sort();
        assert_eq!(
            found,
            expected,
            "fixture {} (as {vpath}): findings disagree with //~ markers",
            file.display(),
        );
    }
}

#[test]
fn corpus_covers_every_rule_and_has_clean_hard_cases() {
    let mut fired: BTreeMap<String, usize> = BTreeMap::new();
    let mut clean_fixtures = 0usize;
    for file in fixture_files() {
        let content = std::fs::read_to_string(&file).expect("fixture readable");
        let expected = expectations(&content);
        if expected.is_empty() {
            clean_fixtures += 1;
        }
        for (_, rule) in expected {
            *fired.entry(rule).or_insert(0) += 1;
        }
    }
    for rule in ALL_RULES {
        assert!(
            fired.contains_key(rule.name()),
            "no fixture exercises rule {}",
            rule.name()
        );
    }
    assert!(
        fired.contains_key(engine::MALFORMED),
        "no fixture exercises {}",
        engine::MALFORMED
    );
    assert!(
        fired.contains_key(engine::UNUSED_ALLOW),
        "no fixture exercises {}",
        engine::UNUSED_ALLOW
    );
    assert!(
        clean_fixtures >= 8,
        "need >= 8 zero-finding hard-case fixtures, have {clean_fixtures}"
    );
}

/// The gate's own contract, enforced from the test suite too: the real
/// workspace has zero unannotated findings, and the full scan fits the
/// 2-second budget (it runs in well under that even unoptimized).
#[test]
fn workspace_scan_is_clean_and_fast() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf();
    // cs-lint: allow(wall-clock, reason = "timing the lint itself against its CI budget, not simulation results")
    let t0 = std::time::Instant::now();
    let scan = engine::scan_workspace(&root).expect("workspace scan succeeds");
    let elapsed = t0.elapsed();
    assert!(
        scan.files_scanned > 80,
        "suspiciously small workspace: {} files",
        scan.files_scanned
    );
    let rendered: Vec<String> = scan
        .findings
        .iter()
        .map(|f| format!("{}:{}:{} {}", f.path, f.line, f.col, f.rule))
        .collect();
    assert!(
        scan.findings.is_empty(),
        "workspace has unannotated findings:\n{rendered:#?}"
    );
    assert!(
        elapsed.as_secs_f64() < 2.0,
        "scan took {elapsed:?}, budget is 2s"
    );
}
