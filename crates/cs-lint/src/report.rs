//! Rendering a [`ScanReport`]: human text and hand-rolled `--json`.

use crate::engine::ScanReport;

/// Human-readable findings, one per line, `file:line:col` first so
/// terminals link them.
pub fn human(report: &ScanReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}:{}: {}: {}\n",
            f.path, f.line, f.col, f.rule, f.message
        ));
        if !f.snippet.is_empty() {
            out.push_str(&format!("    | {}\n", f.snippet));
        }
    }
    out.push_str(&format!(
        "cs-lint: {} finding{} across {} files\n",
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
        report.files_scanned,
    ));
    out
}

/// JSON document:
/// `{"tool", "files_scanned", "finding_count", "rule_counts", "findings"}`.
/// `rule_counts` maps each rule that fired to its finding count,
/// name-sorted, so CI dashboards can trend per-rule totals without
/// re-aggregating the findings array.
pub fn json(report: &ScanReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"cs-lint\",\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!(
        "  \"finding_count\": {},\n",
        report.findings.len()
    ));
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for f in &report.findings {
        *counts.entry(&f.rule).or_default() += 1;
    }
    if counts.is_empty() {
        out.push_str("  \"rule_counts\": {},\n");
    } else {
        out.push_str("  \"rule_counts\": {\n");
        for (i, (rule, n)) in counts.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {n}{}\n",
                json_str(rule),
                if i + 1 < counts.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n");
    }
    out.push_str("  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"file\": {}, ", json_str(&f.path)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"col\": {}, ", f.col));
        out.push_str(&format!("\"rule\": {}, ", json_str(&f.rule)));
        out.push_str(&format!("\"message\": {}", json_str(&f.message)));
        out.push('}');
        if i + 1 < report.findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Escapes a string as a JSON literal (control chars, quotes, and
/// backslashes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Finding;

    fn sample() -> ScanReport {
        ScanReport {
            findings: vec![Finding {
                path: "crates/x/src/lib.rs".to_string(),
                line: 3,
                col: 9,
                rule: "wall-clock".to_string(),
                message: "wall-clock read \"quoted\"".to_string(),
                snippet: "let t = Instant::now();".to_string(),
            }],
            files_scanned: 7,
        }
    }

    #[test]
    fn human_lists_location_first() {
        let text = human(&sample());
        assert!(text.starts_with("crates/x/src/lib.rs:3:9: wall-clock:"));
        assert!(text.contains("1 finding across 7 files"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let text = json(&sample());
        assert!(text.contains("\"tool\": \"cs-lint\""));
        assert!(text.contains("\"files_scanned\": 7"));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\"finding_count\": 1"));
    }

    #[test]
    fn json_rule_counts_aggregate_per_rule() {
        let mut r = sample();
        let mut second = r.findings[0].clone();
        second.line = 9;
        r.findings.push(second);
        let text = json(&r);
        assert!(text.contains("\"rule_counts\": {\n    \"wall-clock\": 2\n  },"));
        let clean = ScanReport {
            findings: Vec::new(),
            files_scanned: 7,
        };
        assert!(json(&clean).contains("\"rule_counts\": {},"));
    }
}
