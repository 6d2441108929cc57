//! Report renderers: human-readable text and machine-readable JSON.
//!
//! The text form is what the `pdr-lint` CLI prints by default; the JSON
//! form (`--format json`) is what ci.sh consumes. Both are deterministic
//! for a given report.

use crate::diag::{Report, Severity};
use serde::json::{self, Value};
use serde::Serialize;

impl Serialize for Report {
    /// JSON form. Diagnostics are emitted in [`Report::sorted`] order
    /// (code, then operator, then instruction index, then message) so the
    /// payload does not depend on the order in which passes emit their
    /// findings.
    fn to_json(&self) -> Value {
        let sorted = self.sorted();
        Value::obj(vec![
            (
                "diagnostics",
                Value::Array(sorted.diagnostics.iter().map(|d| d.to_json()).collect()),
            ),
            ("errors", Value::UInt(self.count(Severity::Error) as u64)),
            (
                "warnings",
                Value::UInt(self.count(Severity::Warning) as u64),
            ),
            ("notes", Value::UInt(self.count(Severity::Note) as u64)),
            ("clean", Value::Bool(self.is_clean())),
        ])
    }
}

/// Render the report as human-readable text, one block per diagnostic,
/// ending with the summary line.
pub fn to_text(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out.push_str(&report.summary());
    out.push('\n');
    out
}

/// Render the report as pretty-printed JSON.
pub fn to_json_string(report: &Report) -> String {
    json::to_string_pretty(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Code, Diagnostic, Location};

    fn sample() -> Report {
        let mut r = Report::new();
        r.extend(vec![
            Diagnostic::new(Code::Deadlock, "cyclic wait a -> b -> a")
                .at(Location::instr("a", 0))
                .note("a[0] blocks on send tag 1, waiting for b[1]"),
            Diagnostic::new(Code::WcetMismatch, "configure off by 1 ms")
                .at(Location::instr("d1", 2)),
        ]);
        r
    }

    #[test]
    fn text_contains_codes_witness_and_summary() {
        let t = to_text(&sample());
        assert!(t.contains("error[PDR004] a[0]: cyclic wait"));
        assert!(t.contains("| a[0] blocks on send tag 1"));
        assert!(t.contains("warning[PDR006]"));
        assert!(t.ends_with("1 error, 1 warning, 0 notes\n"));
    }

    #[test]
    fn clean_report_renders_summary_only() {
        assert_eq!(to_text(&Report::new()), "0 errors, 0 warnings, 0 notes\n");
    }

    #[test]
    fn json_is_parseable_shape() {
        let j = sample().to_json();
        assert_eq!(j.get("errors").and_then(Value::as_u64), Some(1));
        assert_eq!(j.get("warnings").and_then(Value::as_u64), Some(1));
        assert_eq!(j.get("clean"), Some(&Value::Bool(false)));
        let diags = j.get("diagnostics").and_then(Value::as_array).unwrap();
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].get("code").and_then(Value::as_str), Some("PDR004"));
        // Text form is real JSON-ish: starts as an object, quotes escape.
        let s = to_json_string(&sample());
        assert!(s.starts_with("{\n"));
        assert!(s.contains("\"code\": \"PDR004\""));
    }
}
