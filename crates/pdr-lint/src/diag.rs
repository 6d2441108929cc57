//! The diagnostics framework: stable codes, severities, locations and the
//! aggregated [`Report`].
//!
//! Every analysis in this crate reports through these types so that the
//! human-readable and JSON renderers, the CLI exit-code policy and the
//! mutation-test suite all speak one vocabulary. Codes are *stable*: a code
//! never changes meaning, and retired codes are never reused.

use serde::json::Value;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never fails a lint run.
    Note,
    /// Suspicious but not provably wrong; fails under `--deny-warnings`.
    Warning,
    /// A defect that would hang, corrupt or mis-configure the system.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes. The numeric form (`PDR001`…) is what renderers
/// emit and what tests assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// PDR001 — a `Send` with no matching `Receive` for its tag, or vice
    /// versa (the transfer can never complete; the operator hangs).
    DanglingRendezvous,
    /// PDR002 — a tag's `Send`/`Receive` pair disagrees on medium, payload
    /// bits or endpoints (the rendezvous would transfer the wrong data or
    /// never line up at run time).
    RendezvousMismatch,
    /// PDR003 — a rendezvous tag used more than once in a role, or twice
    /// within a single operator's sequence (self-rendezvous deadlocks).
    DuplicateTag,
    /// PDR004 — the model checker reached a terminal state with unfinished
    /// streams: the synchronized executive deadlocks. Carries the stuck
    /// instructions and a minimal witness schedule.
    Deadlock,
    /// PDR005 — a `Compute` of a dynamic module is not dominated by a
    /// `Configure` of that module (the region would run stale logic).
    UnconfiguredCompute,
    /// PDR006 — a `Configure`'s worst-case time disagrees with the
    /// characterization table (the schedule was built on other numbers).
    WcetMismatch,
    /// PDR007 — two modules declared mutually exclusive across different
    /// regions can be co-resident in some interleaving of the executive.
    ExclusionViolable,
    /// PDR008 — a region violates the Modular Design geometry rules:
    /// width below four slices or outside the device (errors), or touching
    /// a device edge where bus macros cannot straddle its boundary
    /// (warning).
    RegionGeometry,
    /// PDR009 — two reconfigurable regions overlap column-wise.
    RegionOverlap,
    /// PDR010 — a bus macro does not straddle a region boundary, sits
    /// outside the device, or collides with another macro.
    BusMacroPlacement,
    /// PDR011 — a bitstream's frame count or target disagrees with the
    /// floorplan (partial stream sized for a different window, missing
    /// stream, wrong device or region).
    BitstreamSize,
    /// PDR012 — executive/constraints cross-reference problems: a
    /// `Configure` of a module unknown to the constraints file or placed
    /// on an operator other than its constrained region, or an operator
    /// stream naming an operator absent from the architecture.
    UnknownModule,
    /// PDR013 — reconfiguration race: in some interleaving of the
    /// executive, a `Configure` targeting a region is enabled while a
    /// `Compute` of that region's resident module is enabled on another
    /// operator — the fabric can be rewritten mid-computation. Found by
    /// the exhaustive model checker; carries a schedule witness.
    ReconfigRace,
    /// PDR014 — use-after-reconfigure: data produced by a dynamic module
    /// is handed off (sent) after some interleaving has already
    /// overwritten the module's region — the transfer would carry results
    /// of stale or partially-reconfigured logic. Carries a schedule
    /// witness.
    UseAfterReconfigure,
    /// PDR015 — timing-interval violation: the `[best, worst]`-clock
    /// abstract interpretation of the executive proves (error) or cannot
    /// refute (warning) that a dynamic module's compute completes after
    /// its §4 `deadline_us` constraint.
    TimingViolation,
    /// PDR016 — an executive instruction that no interleaving ever
    /// executes (dead macro-code behind a deadlock or an unpaired
    /// rendezvous).
    UnreachableInstr,
    /// PDR017 — the model checker's state budget was exhausted before the
    /// state space was covered: results above are sound but incomplete.
    /// Carries the bound reached.
    StateBudgetExceeded,
}

impl Code {
    /// The stable `PDRnnn` form.
    pub const fn as_str(self) -> &'static str {
        match self {
            Code::DanglingRendezvous => "PDR001",
            Code::RendezvousMismatch => "PDR002",
            Code::DuplicateTag => "PDR003",
            Code::Deadlock => "PDR004",
            Code::UnconfiguredCompute => "PDR005",
            Code::WcetMismatch => "PDR006",
            Code::ExclusionViolable => "PDR007",
            Code::RegionGeometry => "PDR008",
            Code::RegionOverlap => "PDR009",
            Code::BusMacroPlacement => "PDR010",
            Code::BitstreamSize => "PDR011",
            Code::UnknownModule => "PDR012",
            Code::ReconfigRace => "PDR013",
            Code::UseAfterReconfigure => "PDR014",
            Code::TimingViolation => "PDR015",
            Code::UnreachableInstr => "PDR016",
            Code::StateBudgetExceeded => "PDR017",
        }
    }

    /// Parse the stable `PDRnnn` form back to a code (CLI `--code`
    /// filters); `None` for anything that is not a defined code.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// The severity this code is reported at.
    pub const fn severity(self) -> Severity {
        match self {
            Code::DanglingRendezvous
            | Code::RendezvousMismatch
            | Code::DuplicateTag
            | Code::Deadlock
            | Code::UnconfiguredCompute
            | Code::ExclusionViolable
            | Code::RegionGeometry
            | Code::RegionOverlap
            | Code::BusMacroPlacement
            | Code::BitstreamSize
            | Code::ReconfigRace
            | Code::UseAfterReconfigure
            | Code::TimingViolation => Severity::Error,
            Code::WcetMismatch
            | Code::UnknownModule
            | Code::UnreachableInstr
            | Code::StateBudgetExceeded => Severity::Warning,
        }
    }

    /// Every defined code, in numeric order.
    pub const ALL: [Code; 17] = [
        Code::DanglingRendezvous,
        Code::RendezvousMismatch,
        Code::DuplicateTag,
        Code::Deadlock,
        Code::UnconfiguredCompute,
        Code::WcetMismatch,
        Code::ExclusionViolable,
        Code::RegionGeometry,
        Code::RegionOverlap,
        Code::BusMacroPlacement,
        Code::BitstreamSize,
        Code::UnknownModule,
        Code::ReconfigRace,
        Code::UseAfterReconfigure,
        Code::TimingViolation,
        Code::UnreachableInstr,
        Code::StateBudgetExceeded,
    ];
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// An instruction of one operator's macro-code stream.
    Instr {
        /// Operator name.
        operator: String,
        /// Zero-based instruction index in the operator's sequence.
        index: usize,
    },
    /// An operator's whole stream.
    Operator(String),
    /// A reconfigurable region of the floorplan.
    Region(String),
    /// A dynamic module (constraints-file / bitstream identity).
    Module(String),
}

impl Location {
    /// Instruction location helper.
    pub fn instr(operator: impl Into<String>, index: usize) -> Self {
        Location::Instr {
            operator: operator.into(),
            index,
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Instr { operator, index } => write!(f, "{operator}[{index}]"),
            Location::Operator(o) => write!(f, "operator {o}"),
            Location::Region(r) => write!(f, "region {r}"),
            Location::Module(m) => write!(f, "module {m}"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (defaults to the code's severity).
    pub severity: Severity,
    /// One-line human message.
    pub message: String,
    /// Primary location, when one exists.
    pub location: Option<Location>,
    /// Supporting lines — for [`Code::Deadlock`] this is the cyclic
    /// wait-for witness trace, one edge per line.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            location: None,
            notes: Vec::new(),
        }
    }

    /// Attach a location.
    pub fn at(mut self, location: Location) -> Self {
        self.location = Some(location);
        self
    }

    /// Override the code's default severity (e.g. a geometry finding that
    /// is suspicious rather than illegal).
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Attach a supporting note line.
    pub fn note(mut self, line: impl Into<String>) -> Self {
        self.notes.push(line.into());
        self
    }

    /// JSON form (stable field order).
    pub fn to_json(&self) -> Value {
        let location = match &self.location {
            None => Value::Null,
            Some(Location::Instr { operator, index }) => Value::obj(vec![
                ("kind", Value::String("instr".into())),
                ("operator", Value::String(operator.clone())),
                ("index", Value::UInt(*index as u64)),
            ]),
            Some(Location::Operator(o)) => Value::obj(vec![
                ("kind", Value::String("operator".into())),
                ("operator", Value::String(o.clone())),
            ]),
            Some(Location::Region(r)) => Value::obj(vec![
                ("kind", Value::String("region".into())),
                ("region", Value::String(r.clone())),
            ]),
            Some(Location::Module(m)) => Value::obj(vec![
                ("kind", Value::String("module".into())),
                ("module", Value::String(m.clone())),
            ]),
        };
        Value::obj(vec![
            ("code", Value::String(self.code.as_str().into())),
            ("severity", Value::String(self.severity.to_string())),
            ("message", Value::String(self.message.clone())),
            ("location", location),
            (
                "notes",
                Value::Array(
                    self.notes
                        .iter()
                        .map(|n| Value::String(n.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(loc) = &self.location {
            write!(f, " {loc}")?;
        }
        write!(f, ": {}", self.message)?;
        for n in &self.notes {
            write!(f, "\n    | {n}")?;
        }
        Ok(())
    }
}

/// The aggregated result of a lint run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All findings, in analysis order (stable for a given input).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Empty (clean) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append every diagnostic of `batch`.
    pub fn extend(&mut self, batch: Vec<Diagnostic>) {
        self.diagnostics.extend(batch);
    }

    /// Findings of one severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Any error-level findings?
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// No findings at all?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Should a lint gate fail? Errors always fail; warnings fail when
    /// `deny_warnings` is set.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.has_errors() || (deny_warnings && self.count(Severity::Warning) > 0)
    }

    /// Does the report contain a finding with `code`?
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// All findings with `code`.
    pub fn with_code(&self, code: Code) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// A deterministically ordered copy of the report: diagnostics sorted
    /// by code, then by the operator/region/module the location names,
    /// then by instruction index, then by message. Analysis order is
    /// already stable for a fixed input; this ordering is additionally
    /// stable across analysis *implementations*, which is what the JSON
    /// consumers (CLI `--format json`, `pdr-server` verify payloads)
    /// want to diff against.
    pub fn sorted(&self) -> Report {
        fn key(d: &Diagnostic) -> (&'static str, &str, usize, &str) {
            let (name, index): (&str, usize) = match &d.location {
                None => ("", 0),
                Some(Location::Instr { operator, index }) => (operator, *index + 1),
                Some(Location::Operator(o)) => (o, 0),
                Some(Location::Region(r)) => (r, 0),
                Some(Location::Module(m)) => (m, 0),
            };
            (d.code.as_str(), name, index, &d.message)
        }
        let mut diagnostics = self.diagnostics.clone();
        diagnostics.sort_by(|a, b| key(a).cmp(&key(b)));
        Report { diagnostics }
    }

    /// One-line summary, e.g. `2 errors, 1 warning, 0 notes`.
    pub fn summary(&self) -> String {
        let e = self.count(Severity::Error);
        let w = self.count(Severity::Warning);
        let n = self.count(Severity::Note);
        format!(
            "{e} error{}, {w} warning{}, {n} note{}",
            if e == 1 { "" } else { "s" },
            if w == 1 { "" } else { "s" },
            if n == 1 { "" } else { "s" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_unique_and_ordered() {
        let strs: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), Code::ALL.len(), "codes must be unique");
        assert_eq!(strs[0], "PDR001");
        assert_eq!(strs[Code::ALL.len() - 1], "PDR017");
        for (i, s) in strs.iter().enumerate() {
            assert_eq!(*s, format!("PDR{:03}", i + 1), "numeric order");
        }
    }

    #[test]
    fn code_parse_roundtrips() {
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c));
        }
        assert_eq!(Code::parse("PDR999"), None);
        assert_eq!(Code::parse("pdr001"), None);
    }

    #[test]
    fn severity_ordering_puts_errors_on_top() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }

    #[test]
    fn report_counting_and_gating() {
        let mut r = Report::new();
        assert!(r.is_clean());
        assert!(!r.fails(true));
        r.extend(vec![Diagnostic::new(Code::WcetMismatch, "off by 1 ms")]);
        assert!(!r.has_errors());
        assert!(!r.fails(false));
        assert!(r.fails(true));
        r.extend(vec![
            Diagnostic::new(Code::Deadlock, "cycle").at(Location::instr("dsp", 3))
        ]);
        assert!(r.has_errors());
        assert!(r.fails(false));
        assert!(r.has_code(Code::Deadlock));
        assert_eq!(r.with_code(Code::Deadlock).len(), 1);
        assert_eq!(r.summary(), "1 error, 1 warning, 0 notes");
    }

    #[test]
    fn sorted_orders_by_code_then_operator_then_index() {
        let mut r = Report::new();
        r.extend(vec![
            Diagnostic::new(Code::Deadlock, "z").at(Location::instr("dsp", 3)),
            Diagnostic::new(Code::DanglingRendezvous, "y").at(Location::instr("dsp", 7)),
            Diagnostic::new(Code::DanglingRendezvous, "x").at(Location::instr("dsp", 2)),
            Diagnostic::new(Code::DanglingRendezvous, "w").at(Location::instr("cpu", 9)),
            Diagnostic::new(Code::DanglingRendezvous, "v"),
        ]);
        let sorted = r.sorted();
        let msgs: Vec<&str> = sorted
            .diagnostics
            .iter()
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(msgs, vec!["v", "w", "x", "y", "z"]);
        // Idempotent and content-preserving.
        assert_eq!(sorted.sorted(), sorted);
        assert_eq!(sorted.diagnostics.len(), r.diagnostics.len());
    }

    #[test]
    fn diagnostic_display_includes_code_location_and_notes() {
        let d = Diagnostic::new(Code::Deadlock, "cyclic wait")
            .at(Location::instr("op_dyn", 2))
            .note("op_dyn[2] waits for dsp");
        let text = d.to_string();
        assert!(text.contains("error[PDR004] op_dyn[2]: cyclic wait"));
        assert!(text.contains("| op_dyn[2] waits for dsp"));
    }

    #[test]
    fn diagnostic_json_shape() {
        let d =
            Diagnostic::new(Code::RegionOverlap, "a overlaps b").at(Location::Region("a".into()));
        let j = d.to_json();
        assert_eq!(j.get("code"), Some(&Value::String("PDR009".into())));
        assert_eq!(j.get("severity"), Some(&Value::String("error".into())));
        let loc = j.get("location").unwrap();
        assert_eq!(loc.get("region"), Some(&Value::String("a".into())));
    }
}
