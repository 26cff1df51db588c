//! Every citation of DESIGN.md resolves. A citation is `DESIGN.md §N` or
//! `DESIGN §N` in any file under `crates/`, `tests/`, `examples/`,
//! `scripts/`, `src/` or `.claude/`, plus each further `§M` in the same
//! list (`§4, §12`, `§11/§12`, `§7 and §13`, wrapped across comment
//! lines or not), and every `§N` inside DESIGN.md itself except a "paper
//! §N". The cited section needs a `## §N` heading; a quoted title after
//! the number must begin a `###` heading or a bold paragraph lead inside
//! that section. A cut to DESIGN.md that drops a cited heading fails here.
//!
//! Every backticked module path in DESIGN.md resolves too: in
//! `` `<crate>::<module>…` ``, with `<crate>` a workspace crate's lib name
//! (`circuitstart` is `crates/core`), `<module>` must be that crate's
//! `src/<module>.rs` or `src/<module>/mod.rs`, or a name a `pub` line of
//! its `lib.rs` declares or re-exports. A module deleted or renamed while
//! DESIGN.md still names it fails here.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The decimal number `s` starts with, and the rest.
fn number(s: &str) -> Option<(u32, &str)> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    Some((s[..end].parse().ok()?, &s[end..]))
}

fn squash(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Every `(N, quoted title)` that `src` cites. Comment markers are
/// stripped and lines joined first, so lists and titles may wrap. With
/// `bare`, every `§N` counts (DESIGN.md citing itself).
fn citations(src: &str, bare: bool) -> Vec<(u32, Option<String>)> {
    let lines: Vec<&str> = src
        .lines()
        .map(|l| l.trim_start().trim_start_matches(['/', '!', '#']))
        .collect();
    let flat = squash(&lines.join(" "));
    let prefixes: &[&str] = if bare {
        &["§"]
    } else {
        &["DESIGN.md §", "DESIGN §"]
    };
    let mut out = Vec::new();
    for (i, p) in prefixes.iter().flat_map(|p| flat.match_indices(p)) {
        if flat[..i].ends_with("paper ") {
            continue;
        }
        let mut rest = &flat[i + p.len() - '§'.len_utf8()..];
        while let Some((n, tail)) = rest.strip_prefix('§').and_then(number) {
            let tail = tail.trim_start_matches([',', ' ']);
            let (title, after) = match tail.strip_prefix('"').and_then(|t| t.split_once('"')) {
                Some((title, after)) => (Some(squash(title)), after),
                None => (None, tail),
            };
            out.push((n, title));
            rest = after.trim_start_matches([',', '/', ' ']);
            rest = rest.strip_prefix("and ").unwrap_or(rest);
        }
    }
    out
}

/// One line per citation in `src` that `design` does not resolve.
fn unresolved(design: &str, name: &str, src: &str, bare: bool) -> Vec<String> {
    // `N` → the `###` headings and bold paragraph leads under `## §N`.
    let mut sections: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    let mut current = None;
    for line in design.lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            current = heading.strip_prefix('§').and_then(number).map(|(n, _)| n);
            if let Some(n) = current {
                sections.entry(n).or_default();
            }
        } else if let Some(n) = current {
            let lead = line.strip_prefix("### ");
            let lead = lead.or_else(|| line.strip_prefix("**")?.split("**").next());
            sections.entry(n).or_default().extend(lead.map(squash));
        }
    }
    let mut problems = Vec::new();
    for (n, title) in citations(src, bare) {
        match (sections.get(&n), title) {
            (None, _) => problems.push(format!("{name}: §{n} has no `## §{n}` heading")),
            (Some(leads), Some(t)) if !leads.iter().any(|l| l.starts_with(&t)) => problems.push(
                format!("{name}: §{n} has no heading or bold lead starting \"{t}\""),
            ),
            _ => {}
        }
    }
    problems
}

fn walk(dir: &Path, design: &str, problems: &mut Vec<String>) {
    let entries = fs::read_dir(dir).into_iter().flatten().flatten();
    for path in entries.map(|e| e.path()) {
        if path.is_dir() && !path.ends_with("target") {
            walk(&path, design, problems);
        } else if let Ok(src) = fs::read_to_string(&path) {
            problems.extend(unresolved(design, &path.display().to_string(), &src, false));
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Lib name → crate directory, for every crate under `root/crates`.
fn crate_dirs(root: &Path) -> BTreeMap<String, PathBuf> {
    let mut crates = BTreeMap::new();
    let entries = fs::read_dir(root.join("crates")).expect("crates/ is readable");
    for dir in entries.flatten().map(|e| e.path()) {
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        // `[lib] name` if present, else `[package] name`.
        let (mut section, mut package, mut lib) = ("", None, None);
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if let Some(v) = line.strip_prefix("name = ") {
                let v = v.trim_matches('"').replace('-', "_");
                match section {
                    "[package]" => package = Some(v),
                    "[lib]" => lib = Some(v),
                    _ => {}
                }
            }
        }
        if let Some(name) = lib.or(package) {
            crates.insert(name, dir);
        }
    }
    crates
}

/// One line per `` `<crate>::<module>` `` path in `design` whose module
/// does not exist; paths whose first segment is no crate are skipped.
fn unresolved_paths(crates: &BTreeMap<String, PathBuf>, design: &str) -> Vec<String> {
    let mut problems = Vec::new();
    for (n, line) in design.lines().enumerate() {
        for (i, _) in line.match_indices('`') {
            let mut segments = line[i + 1..].split("::");
            let (Some(krate), Some(rest)) = (segments.next(), segments.next()) else {
                continue;
            };
            let module = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
            let Some(dir) = crates.get(krate) else {
                continue;
            };
            let src = dir.join("src");
            let lib = fs::read_to_string(src.join("lib.rs")).unwrap_or_default();
            let exported = lib.lines().any(|l| {
                l.trim_start().starts_with("pub ") && l.split(|c| !is_ident(c)).any(|w| w == module)
            });
            let file = src.join(format!("{module}.rs")).is_file();
            if !(file || src.join(module).join("mod.rs").is_file() || exported) {
                problems.push(format!(
                    "DESIGN.md:{}: `{krate}::{module}` has no module",
                    n + 1
                ));
            }
        }
    }
    problems
}

#[test]
fn every_design_module_path_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    let problems = unresolved_paths(&crate_dirs(root), &design);
    assert!(
        problems.is_empty(),
        "stale module paths:\n{}",
        problems.join("\n")
    );
}

#[test]
fn planted_module_paths_are_reported() {
    let crates = crate_dirs(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert_eq!(
        crates["circuitstart"],
        crates["backtap"].with_file_name("core")
    );
    let ok = "`simcore::event`, `relaynet::network` (a dir), `cs_lint::policy::X`,\n\
              `simstats::prometheus_text` (re-exported), `thread::spawn` (no crate)";
    assert_eq!(unresolved_paths(&crates, ok), Vec::<String>::new());
    let bad = "x\n`circuitstart::exit` and `backtap::hop_transport::HopTransport`";
    let problems = unresolved_paths(&crates, bad);
    assert_eq!(problems.len(), 2, "{problems:?}");
    assert!(
        problems[0].starts_with("DESIGN.md:2: `circuitstart::exit`"),
        "{problems:?}"
    );
    assert!(
        problems[1].contains("`backtap::hop_transport`"),
        "{problems:?}"
    );
}

#[test]
fn every_design_citation_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    let mut problems = unresolved(&design, "DESIGN.md", &design, true);
    for dir in ["crates", "tests", "examples", "scripts", "src", ".claude"] {
        walk(&root.join(dir), &design, &mut problems);
    }
    let report = problems.join("\n");
    assert!(problems.is_empty(), "dangling DESIGN citations:\n{report}");
}

#[test]
fn planted_citations_are_reported() {
    let design = "## §4 Overlay\n### Pipeline-stage layout\n**The ramp's forget rule.** Text.\n";
    let ok = "// DESIGN.md §4, \"Pipeline-stage\n// layout\" and DESIGN §4 \"The ramp's\"";
    assert_eq!(unresolved(design, "ok", ok, false), Vec::<String>::new());
    let bad = format!("// DESIGN.md §{}, §4, \"No such paragraph\"", 90 + 9);
    let problems = unresolved(design, "bad", &bad, false);
    assert_eq!(problems.len(), 2, "{problems:?}");
    assert!(problems[0].contains("§99 has no"), "{problems:?}");
    assert!(problems[1].contains("No such paragraph"), "{problems:?}");
}
