//! Rendering findings: the human `file:line:col` listing and the
//! machine-readable JSON report.
//!
//! The JSON is hand-emitted (this crate deliberately has no
//! dependencies, vendored or otherwise) and kept to the schema
//! documented in DESIGN.md §6e. Schema v2 carries per-finding severity,
//! rule version, and a machine-readable fix hint:
//!
//! ```json
//! {
//!   "version": 2,
//!   "ruleset_version": 2,
//!   "files_scanned": 137,
//!   "findings": [
//!     {"rule": "no-panic-in-lib", "severity": "error", "rule_version": 1,
//!      "file": "crates/x/src/lib.rs", "line": 10, "col": 7,
//!      "message": "...", "fix_hint": "..."}
//!   ]
//! }
//! ```
//!
//! Findings are pre-sorted by the caller, so byte-identical inputs
//! produce byte-identical reports — the scan's worker count never
//! appears in the report for exactly that reason.

use crate::rules::{Finding, RULESET_VERSION};
use std::fmt::Write as _;

/// JSON report schema version.
pub const LINT_REPORT_VERSION: u32 = 2;

/// The human listing: one `file:line:col: rule: message` line per
/// finding, then a one-line summary.
pub fn render_human(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{f}");
    }
    let _ = write!(
        out,
        "surveyor-lint: {} finding{} across {} file{} scanned",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
        files_scanned,
        if files_scanned == 1 { "" } else { "s" },
    );
    out
}

/// The JSON report (schema v2).
pub fn render_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"version\": {LINT_REPORT_VERSION},\n  \"ruleset_version\": {RULESET_VERSION},\n  \"files_scanned\": {files_scanned},\n  \"findings\": ["
    );
    for (i, f) in findings.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"rule\": {}, \"severity\": {}, \"rule_version\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}, \"fix_hint\": {}}}",
            json_string(&f.rule),
            json_string(f.severity.as_str()),
            f.rule_version,
            json_string(&f.file),
            f.line,
            f.col,
            json_string(&f.message),
            json_string(&f.fix_hint),
        );
    }
    if findings.is_empty() {
        let _ = write!(out, "]\n}}\n");
    } else {
        let _ = write!(out, "\n  ]\n}}\n");
    }
    out
}

/// Escapes `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::rule_by_name;

    fn finding() -> Finding {
        let def = rule_by_name("no-panic-in-lib").expect("rule exists");
        Finding::of(
            def,
            "crates/x/src/lib.rs",
            3,
            9,
            "a \"quoted\"\tmessage".to_owned(),
        )
    }

    #[test]
    fn human_listing_shape() {
        let text = render_human(&[finding()], 5);
        assert!(text.starts_with("crates/x/src/lib.rs:3:9: no-panic-in-lib:"));
        assert!(text.ends_with("1 finding across 5 files scanned"));
        let empty = render_human(&[], 5);
        assert_eq!(empty, "surveyor-lint: 0 findings across 5 files scanned");
    }

    #[test]
    fn json_escapes_and_shape() {
        let json = render_json(&[finding()], 5);
        assert!(json.contains("\"version\": 2"));
        assert!(json.contains(&format!("\"ruleset_version\": {RULESET_VERSION}")));
        assert!(json.contains("\"files_scanned\": 5"));
        assert!(json.contains("\"severity\": \"error\""));
        assert!(json.contains("\"rule_version\": 1"));
        assert!(json.contains("\"fix_hint\":"));
        assert!(json.contains(r#""message": "a \"quoted\"\tmessage""#));
        let empty = render_json(&[], 0);
        assert!(empty.contains("\"findings\": []"));
    }

    #[test]
    fn json_string_control_chars() {
        assert_eq!(json_string("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("q\" b\\ n\n r\r é"), r#""q\" b\\ n\n r\r é""#);
    }
}
