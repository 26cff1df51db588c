//! `cs-lint --json` golden output: the document shape is asserted
//! structurally, then compared byte-for-byte against a blessed fixture
//! so any change to the machine interface is a deliberate re-bless
//! (`CS_BLESS=1 cargo test -p cs-lint --test golden_json`), never an
//! accident.

use std::path::{Path, PathBuf};

use cs_lint::engine::{self, ScanReport};
use cs_lint::report;

/// One stable input exercising a direct rule, a semantic finding
/// (whose message carries a `— detail` suffix), and a dead suppression.
const GOLDEN_SRC: &str = "\
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

pub struct Tally { hits: u64 }
impl Tally { pub fn merge(&mut self, other: &Tally) { self.hits += other.hits; } }

// cs-lint: allow(stray-threads, reason = \"the worker thread moved behind the executor seam\")
pub fn order() -> usize {
    let m = std::collections::HashMap::<u8, u8>::new();
    m.iter().count()
}
";

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lint_report.json")
}

#[test]
fn json_report_matches_blessed_golden() {
    let findings = engine::scan_source("crates/relaynet/src/golden.rs", GOLDEN_SRC);
    let report = ScanReport {
        findings,
        files_scanned: 1,
    };
    let rendered = report::json(&report);

    // Schema: the keys CI dashboards consume, in a single stable doc.
    for needle in [
        "\"tool\": \"cs-lint\"",
        "\"files_scanned\": 1",
        "\"finding_count\": 4",
        "\"rule_counts\": {",
        "\"nondeterministic-iteration\": 1",
        "\"exhaustive-destructure\": 1",
        "\"unused-allow\": 1",
        "\"wall-clock\": 1",
        "\"findings\": [",
        "\"file\": \"crates/relaynet/src/golden.rs\"",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle} in:\n{rendered}"
        );
    }
    // The semantic finding's message must carry its detail.
    assert!(
        rendered.contains(" — `merge` over struct `Tally` never binds its fields"),
        "destructure detail missing in:\n{rendered}"
    );

    let path = golden_path();
    if std::env::var_os("CS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("golden dir");
        std::fs::write(&path, &rendered).expect("golden written");
    }
    let blessed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden file {} unreadable ({e}); bless with CS_BLESS=1 cargo test -p cs-lint --test golden_json",
            path.display()
        )
    });
    assert_eq!(
        rendered, blessed,
        "--json output drifted from the blessed golden; if intentional, re-bless with CS_BLESS=1"
    );
}
