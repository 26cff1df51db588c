//! The scan pipeline: lex → split code/comments → parse items → parse
//! `allow` annotations → mark test regions → run the token rules per
//! file and `exhaustive-destructure` over the workspace → scope +
//! suppress → report dead suppressions.
//!
//! # Annotation grammar (DESIGN.md §14)
//!
//! ```text
//! // cs-lint: allow(<rule-name>, reason = "<non-empty text>")
//! ```
//!
//! The comment must be **alone on its line** and suppresses findings of
//! that rule on the next line holding any code token (doc comments and
//! blank lines in between are skipped, so an annotation can sit above a
//! documented item). Stacked annotations all bind to that same line. A
//! `cs-lint:` comment that does not parse — unknown rule, missing or
//! empty reason, trailing position — is itself reported as
//! `malformed-annotation`, which cannot be suppressed. So is every
//! `allow` in [`policy::NO_SUPPRESSION_CRATE`], and one that names
//! `stage-boundary`.
//!
//! # Unused suppressions
//!
//! An allow whose rule produces no finding on its bound line reports
//! `unused-allow` at the annotation itself. Like `malformed-annotation`
//! it lives outside the [`Rule`] enum, so `allow(unused-allow, …)` is
//! not even parseable: suppression debt can be paid down but never
//! rolled over.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::destructure::{self, FileView};
use crate::items::{self, ItemIndex};
use crate::lexer::{self, Token, TokenKind};
use crate::policy;
use crate::rules::{self, RawFinding, Rule};

/// Rule name used for unparseable `cs-lint:` comments.
pub const MALFORMED: &str = "malformed-annotation";

/// Rule name used for allows that no longer suppress anything.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    pub line: u32,
    pub col: u32,
    /// Kebab-case rule name.
    pub rule: String,
    pub message: String,
    /// The source line the finding points at, trimmed — context for the
    /// human report.
    pub snippet: String,
}

/// A parsed, well-formed allow annotation.
struct Allow {
    rule: Rule,
    /// Line/col the annotation comment sits on.
    line: u32,
    col: u32,
    /// The code line it binds to (the next line with a code token), or
    /// `None` when nothing follows it.
    target: Option<u32>,
    /// Set when the allow suppressed at least one applicable finding;
    /// still-false allows become `unused-allow` findings.
    used: bool,
}

/// Everything the per-file front half of the pipeline produces; the
/// back half (rules, suppression) runs over a batch of these.
struct FileAnalysis {
    ctx: policy::FileCtx,
    src: String,
    /// Comment-free token stream.
    code: Vec<Token>,
    items: ItemIndex,
    /// Inclusive line ranges of `#[cfg(test)]` / `#[test]` items.
    test_regions: Vec<(u32, u32)>,
    allows: Vec<Allow>,
    /// Malformed-annotation findings, complete as parsed.
    malformed: Vec<Finding>,
}

/// Lexes, parses, and annotation-scans one file (no rules yet).
fn analyze_file(rel_path: &str, src: &str) -> FileAnalysis {
    let ctx = policy::classify(rel_path);
    let tokens = lexer::lex(src);
    let (code, comments): (Vec<Token>, Vec<Token>) = tokens
        .into_iter()
        .partition(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment));
    let items = items::parse(src, &code);
    let test_regions = test_regions(src, &code);

    // Lines that hold at least one code token, for annotation binding.
    let code_lines: BTreeSet<u32> = code.iter().map(|t| t.line).collect();
    let mut allows: Vec<Allow> = Vec::new();
    let mut malformed: Vec<Finding> = Vec::new();
    for c in &comments {
        if c.kind != TokenKind::LineComment {
            continue;
        }
        let text = c.text(src);
        let Some(rest) = annotation_body(text) else {
            continue;
        };
        let alone = !code_lines.contains(&c.line);
        match (parse_allow(rest), alone) {
            (Some(_), _) if ctx.krate == policy::NO_SUPPRESSION_CRATE => malformed.push(Finding {
                path: rel_path.to_string(),
                line: c.line,
                col: c.col,
                rule: MALFORMED.to_string(),
                message: format!(
                    "no cs-lint suppression in {}: the simulation kernel needs no \
                     escape hatch, so fix the finding instead",
                    policy::NO_SUPPRESSION_CRATE
                ),
                snippet: line_snippet(src, c.line),
            }),
            (Some(rule), true) => allows.push(Allow {
                rule,
                line: c.line,
                col: c.col,
                target: code_lines.range(c.line + 1..).next().copied(),
                used: false,
            }),
            (Some(_), false) => malformed.push(Finding {
                path: rel_path.to_string(),
                line: c.line,
                col: c.col,
                rule: MALFORMED.to_string(),
                message: "annotation must be alone on the line preceding the finding, not \
                          trailing code"
                    .to_string(),
                snippet: line_snippet(src, c.line),
            }),
            (None, _) => malformed.push(Finding {
                path: rel_path.to_string(),
                line: c.line,
                col: c.col,
                rule: MALFORMED.to_string(),
                message: format!(
                    "cannot parse annotation; expected `// cs-lint: allow(<rule>, reason = \
                     \"...\")` with a known rule and non-empty reason; rules: {}",
                    rules::ALL_RULES
                        .iter()
                        .filter(|r| r.suppressible())
                        .map(|r| r.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                snippet: line_snippet(src, c.line),
            }),
        }
    }

    FileAnalysis {
        ctx,
        src: src.to_string(),
        code,
        items,
        test_regions,
        allows,
        malformed,
    }
}

/// Scans a batch of files as one workspace: token rules per file,
/// `exhaustive-destructure` with struct lookup across all of them.
/// Input pairs are `(workspace-relative path, source)`.
pub fn scan_files(inputs: &[(String, String)]) -> Vec<Finding> {
    let mut files: Vec<FileAnalysis> = inputs
        .iter()
        .map(|(rel, src)| analyze_file(rel, src))
        .collect();

    let mut raw: Vec<(usize, RawFinding)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        raw.extend(
            rules::detect(&f.src, &f.code, &f.items)
                .into_iter()
                .chain(rules::stage_boundary(&f.ctx.rel_path, &f.src, &f.code))
                .map(|r| (fi, r)),
        );
    }
    {
        let views: Vec<FileView<'_>> = files
            .iter()
            .map(|f| FileView {
                krate: &f.ctx.krate,
                src: &f.src,
                code: &f.code,
                items: &f.items,
            })
            .collect();
        raw.extend(destructure::analyze(&views));
    }

    let mut findings: Vec<Finding> = Vec::new();
    for (fi, r) in raw {
        let applies = {
            let f = &files[fi];
            let test_code = f.ctx.kind == policy::TargetKind::TestFile
                || f.test_regions
                    .iter()
                    .any(|&(a, b)| (a..=b).contains(&r.line));
            policy::rule_applies(r.rule, &f.ctx, test_code)
        };
        if !applies {
            continue;
        }
        let mut suppressed = false;
        for a in &mut files[fi].allows {
            if a.rule == r.rule && a.target == Some(r.line) {
                a.used = true;
                suppressed = true;
            }
        }
        if suppressed {
            continue;
        }
        let f = &files[fi];
        let message = match &r.detail {
            Some(d) => format!("{} — {d}", r.rule.message()),
            None => r.rule.message().to_string(),
        };
        findings.push(Finding {
            path: f.ctx.rel_path.clone(),
            line: r.line,
            col: r.col,
            rule: r.rule.name().to_string(),
            message,
            snippet: line_snippet(&f.src, r.line),
        });
    }

    // Allows that suppressed nothing are themselves findings — at the
    // annotation, so deleting the flagged line is always the fix.
    for f in &files {
        for a in &f.allows {
            if a.used {
                continue;
            }
            let target = match a.target {
                Some(l) => format!("its bound line {l}"),
                None => "any code line (nothing follows it)".to_string(),
            };
            findings.push(Finding {
                path: f.ctx.rel_path.clone(),
                line: a.line,
                col: a.col,
                rule: UNUSED_ALLOW.to_string(),
                message: format!(
                    "allow({}) suppresses nothing on {target}: the finding it guarded is \
                     gone, so delete the annotation (unused suppressions cannot be \
                     suppressed)",
                    a.rule.name()
                ),
                snippet: line_snippet(&f.src, a.line),
            });
        }
    }

    for f in &mut files {
        findings.append(&mut f.malformed);
    }
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    findings
}

/// Scans one file's source in isolation. `rel_path` drives policy
/// scoping and is echoed into findings.
pub fn scan_source(rel_path: &str, src: &str) -> Vec<Finding> {
    scan_files(&[(rel_path.to_string(), src.to_string())])
}

/// Returns the text after a `cs-lint:` marker in a line comment, or
/// `None` when the comment is not an annotation at all.
fn annotation_body(comment: &str) -> Option<&str> {
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    body.strip_prefix("cs-lint:").map(str::trim_start)
}

/// Parses `allow(<rule>, reason = "<non-empty>")`. Returns the rule on
/// success.
fn parse_allow(body: &str) -> Option<Rule> {
    let inner = body.strip_prefix("allow")?.trim_start().strip_prefix('(')?;
    let inner = inner.trim_end().strip_suffix(')')?;
    let (rule_name, rest) = inner.split_once(',')?;
    let rule = Rule::from_name(rule_name.trim())?;
    let reason = rest
        .trim()
        .strip_prefix("reason")?
        .trim_start()
        .strip_prefix('=')?;
    let reason = reason.trim().strip_prefix('"')?.strip_suffix('"')?;
    (!reason.trim().is_empty()).then_some(rule)
}

/// Line ranges (inclusive) of `#[cfg(test)]` / `#[test]` items. Token
/// scan: a `#[...]` attribute whose idents include `test` (and not
/// `not`, so `#[cfg(not(test))]` stays production code) marks its
/// following item from the attribute's line: through the item's matching
/// `}`, or, for a braceless item (a test-only `use`, `const`, field,
/// variant or argument), through its `;` or `,` outside brackets, or up
/// to the closing bracket of the group around it. The code after the
/// item stays production code.
fn test_regions(src: &str, code: &[Token]) -> Vec<(u32, u32)> {
    let text = |i: usize| code[i].text(src);
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if !(text(i) == "#" && text(i + 1) == "[") {
            i += 1;
            continue;
        }
        // Find the matching `]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut saw_test = false;
        let mut saw_not = false;
        while j < code.len() {
            match text(j) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "test" => saw_test = true,
                "not" => saw_not = true,
                _ => {}
            }
            j += 1;
        }
        if !saw_test || saw_not {
            i = j;
            continue;
        }
        // Attribute marks a test item: find its body's `{` or, for a
        // braceless item, its end — its `;`, a `,` at its own depth (a
        // field, variant or argument), or the closing bracket of the
        // group around it. Separators inside `[u8; 4]` or `<A, B>` do
        // not count.
        let attr_line = code[i].line;
        let mut k = j + 1;
        let (mut nest, mut angle) = (0usize, 0usize);
        let mut last_line = attr_line;
        while k < code.len() {
            match text(k) {
                "(" | "[" => nest += 1,
                ")" | "]" | "}" if nest == 0 => break,
                ")" | "]" => nest -= 1,
                "<" => angle += 1,
                ">" => angle = angle.saturating_sub(1),
                ">>" => angle = angle.saturating_sub(2),
                "{" | ";" if nest == 0 => break,
                "," if nest == 0 && angle == 0 => break,
                _ => {}
            }
            last_line = code[k].line;
            k += 1;
        }
        if k < code.len() && matches!(text(k), ";" | ",") {
            regions.push((attr_line, code[k].line));
        } else if k < code.len() && text(k) != "{" {
            // The enclosing group closes: the item ends before it.
            regions.push((attr_line, last_line));
        } else if k < code.len() {
            let mut brace = 0usize;
            while k < code.len() {
                match text(k) {
                    "{" => brace += 1,
                    "}" => {
                        brace -= 1;
                        if brace == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let close_line = if k < code.len() {
                code[k].line
            } else {
                u32::MAX
            };
            regions.push((attr_line, close_line));
        }
        i = k;
    }
    regions
}

/// The 1-based `line` of `src`, trimmed; empty string when out of range.
fn line_snippet(src: &str, line: u32) -> String {
    src.lines()
        .nth(line as usize - 1)
        .unwrap_or("")
        .trim()
        .to_string()
}

/// Result of a workspace scan.
pub struct ScanReport {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git"];

/// Path suffix of the known-bad lint fixture corpus — scanning it would
/// (correctly) light up every rule.
const FIXTURES_DIR: &str = "crates/cs-lint/tests/fixtures";

/// Walks the workspace rooted at `root` and scans every `.rs` file,
/// deterministically ordered.
pub fn scan_workspace(root: &Path) -> Result<ScanReport, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut inputs: Vec<(String, String)> = Vec::with_capacity(files.len());
    for file in &files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        inputs.push((rel_unix(root, file), src));
    }
    Ok(ScanReport {
        findings: scan_files(&inputs),
        files_scanned: inputs.len(),
    })
}

fn rel_unix(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            if rel_unix(root, &path) == FIXTURES_DIR {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<(String, u32)> {
        findings.iter().map(|f| (f.rule.clone(), f.line)).collect()
    }

    #[test]
    fn allow_suppresses_next_code_line_only() {
        let src = "\
// cs-lint: allow(nondeterministic-iteration, reason = \"membership only\")
use std::collections::HashSet;
use std::collections::HashMap;
";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert_eq!(
            rules_of(&f),
            vec![("nondeterministic-iteration".to_string(), 3)]
        );
    }

    #[test]
    fn allow_skips_doc_comments_between() {
        let src = "\
// cs-lint: allow(nondeterministic-iteration, reason = \"membership only\")
/// Documented field.
struct S { m: HashSet<u64> }
";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn stacked_allows_bind_to_same_line() {
        let src = "\
// cs-lint: allow(nondeterministic-iteration, reason = \"fixture\")
// cs-lint: allow(no-bare-unwrap-in-lib, reason = \"fixture\")
fn f(m: HashMap<u8, u8>) { m.get(&1).unwrap(); }
";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wrong_rule_does_not_suppress_and_is_itself_flagged() {
        let src = "\
// cs-lint: allow(wall-clock, reason = \"mismatched\")
use std::collections::HashMap;
";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert_eq!(
            rules_of(&f),
            vec![
                (UNUSED_ALLOW.to_string(), 1),
                ("nondeterministic-iteration".to_string(), 2)
            ]
        );
    }

    #[test]
    fn unused_allow_fires_even_with_no_code_after_it() {
        let src = "fn fine() {}\n// cs-lint: allow(wall-clock, reason = \"stale\")\n";
        let f = scan_source("crates/relaynet/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![(UNUSED_ALLOW.to_string(), 2)]);
    }

    #[test]
    fn allow_suppressing_a_policy_exempt_site_is_unused() {
        // wall-clock does not apply in cs-bench, so the allow is dead
        // weight and unused-allow says so.
        let src = "\
// cs-lint: allow(wall-clock, reason = \"bench timing\")
let t = std::time::Instant::now();
";
        let f = scan_source("crates/bench/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![(UNUSED_ALLOW.to_string(), 1)]);
    }

    #[test]
    fn malformed_annotations_are_findings() {
        for bad in [
            "// cs-lint: allow(unknown-rule, reason = \"x\")",
            "// cs-lint: allow(wall-clock)",
            "// cs-lint: allow(wall-clock, reason = \"\")",
            "// cs-lint: disallow(wall-clock, reason = \"x\")",
            // The engine-level rules and stage-boundary have no
            // annotation form at all.
            "// cs-lint: allow(unused-allow, reason = \"x\")",
            "// cs-lint: allow(malformed-annotation, reason = \"x\")",
            "// cs-lint: allow(stage-boundary, reason = \"x\")",
        ] {
            let f = scan_source("crates/relaynet/src/x.rs", bad);
            assert_eq!(rules_of(&f), vec![(MALFORMED.to_string(), 1)], "for {bad}");
        }
        // Trailing-position annotation is malformed even when parseable.
        let f = scan_source(
            "crates/relaynet/src/x.rs",
            "let x = 1; // cs-lint: allow(wall-clock, reason = \"x\")",
        );
        assert_eq!(rules_of(&f), vec![(MALFORMED.to_string(), 1)]);
        // A plain comment mentioning the tool is not an annotation.
        let f = scan_source(
            "crates/relaynet/src/x.rs",
            "// run cs-lint before pushing\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt_where_policy_says() {
        let src = "\
fn lib_code() { std::thread::spawn(|| {}); }

#[cfg(test)]
mod tests {
    fn helper() { std::thread::spawn(|| {}); }
}
";
        let f = scan_source("crates/simcore/src/sim.rs", src);
        assert_eq!(rules_of(&f), vec![("stray-threads".to_string(), 1)]);
    }

    #[test]
    fn cfg_not_test_is_production() {
        let src = "\
#[cfg(not(test))]
mod prod {
    fn f() { std::thread::spawn(|| {}); }
}
";
        let f = scan_source("crates/simcore/src/sim.rs", src);
        assert_eq!(rules_of(&f), vec![("stray-threads".to_string(), 3)]);
    }

    #[test]
    fn braceless_cfg_test_item_marks_only_itself() {
        // The test-only import on line 2 is test code; the production fn
        // after it is not.
        let src = "\
#[cfg(test)]
use std::thread::spawn;
fn f() { std::thread::spawn(|| {}); }
";
        let f = scan_source("crates/simcore/src/sim.rs", src);
        assert_eq!(rules_of(&f), vec![("stray-threads".to_string(), 3)]);
    }

    #[test]
    fn cfg_test_field_marks_only_itself() {
        // A test-only field ends at its `,` (or at the struct's `}`);
        // generic and array separators inside it do not end it.
        let src = "\
struct S {
    #[cfg(test)]
    probe: Vec<(u8, [u8; 2])>,
    #[cfg(test)]
    last: BTreeMap<u8, u8> }
fn f() { std::thread::spawn(|| {}); }
";
        let f = scan_source("crates/simcore/src/sim.rs", src);
        assert_eq!(rules_of(&f), vec![("stray-threads".to_string(), 6)]);
    }

    #[test]
    fn hash_rule_reaches_cfg_test_in_visible_crates() {
        let src = "\
#[cfg(test)]
mod tests {
    fn f() { let mut s = std::collections::HashSet::new(); s.insert(1); }
}
";
        let f = scan_source("crates/torcell/src/ids.rs", src);
        assert_eq!(
            rules_of(&f),
            vec![("nondeterministic-iteration".to_string(), 3)]
        );
    }
}
