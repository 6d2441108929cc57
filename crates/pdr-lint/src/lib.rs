//! # pdr-lint — static analysis for compiled flow artifacts
//!
//! The §3 synchronized executive is straight-line macro-code per operator
//! whose correctness hinges on *cross-operator* properties: every
//! rendezvous must pair up, the pairing must be acyclic enough to make
//! progress, every `Compute` on a dynamic region must run behind a
//! matching `Configure`, and the §4 exclusion relations plus the §5
//! Modular Design floorplan rules must hold. Simulation only discovers
//! violations as hangs; this crate proves or refutes them statically,
//! before any simulation runs.
//!
//! ## Analyses
//!
//! | Codes | Pass | Property |
//! |---|---|---|
//! | PDR001–003 | [`rendezvous`] | every `Send{tag}` has exactly one peer `Receive{tag}`, attributes mirrored, no duplicate/self tags |
//! | PDR005–007, PDR012 | [`reconfig`] | Configure dominates Compute, worst-case times match the characterization, exclusion groups are statically safe, cross-references resolve |
//! | PDR008–011 | [`floorplan`] | Modular Design geometry, bus-macro straddling, bitstream/frame consistency |
//! | PDR004, PDR013–017 | [`model`] | exhaustive interleaving exploration: sound deadlock with a minimal schedule, reconfiguration races, stale hand-offs, `[best,worst]`-clock deadlines, dead instructions, explicit budget truncation |
//!
//! The [`model`] checker is the only deadlock analysis; its state budget
//! is tuned with [`IrLintInput::with_model_check`], and its schedule
//! witnesses can be independently validated with [`replay`].
//!
//! ## Entry point
//!
//! ```
//! use pdr_adequation::executive::Executive;
//! use pdr_ir::SymbolTable;
//! use pdr_lint::{lint_ir, IrLintInput};
//!
//! let executive = Executive::default();
//! let mut table = SymbolTable::new();
//! let ir = executive.lower(&mut table);
//! let report = lint_ir(&IrLintInput::new(&ir, &table));
//! assert!(report.is_clean());
//! ```
//!
//! [`lint_ir`] is the one entry point. It runs over the lowered,
//! index-based [`pdr_ir::IrExecutive`] and the symbol table it was
//! lowered through, as `pdr-core`'s flow artifacts carry them, and
//! renders diagnostics back through that table. Architecture,
//! characterization, constraints and floorplan inputs are optional:
//! passes needing an absent input are skipped, so the same entry point
//! serves the full `DesignFlow::verify()` stage and narrow
//! unit/mutation tests.

pub mod diag;
pub mod floorplan;
pub mod model;
pub mod reconfig;
pub mod render;
pub mod rendezvous;
pub mod replay;

pub use diag::{Code, Diagnostic, Location, Report, Severity};
pub use model::{ModelConfig, ModelStats};
pub use rendezvous::RendezvousPair;

use pdr_codegen::floorplan::FloorplanResult;
use pdr_graph::{ArchGraph, Characterization, ConstraintsFile};
use pdr_ir::{IrExecutive, SymbolTable};

/// Everything the linter can look at: a lowered executive and the symbol
/// table that resolves its interned names. Only those two are mandatory.
pub struct IrLintInput<'a> {
    /// The lowered executive (always analyzed).
    pub ir: &'a IrExecutive,
    /// The symbol table the executive was lowered through.
    pub table: &'a SymbolTable,
    /// Architecture graph — enables the reconfiguration-safety pass.
    pub arch: Option<&'a ArchGraph>,
    /// Characterization tables — enables worst-case-time checking.
    pub chars: Option<&'a Characterization>,
    /// Constraints file — enables module/exclusion checking.
    pub constraints: Option<&'a ConstraintsFile>,
    /// Placed design — enables the floorplan/bitstream pass.
    pub floorplan: Option<&'a FloorplanResult>,
    /// Configuration of the exhaustive interleaving model checker
    /// (PDR004, PDR013–PDR017).
    pub model: ModelConfig,
}

impl<'a> IrLintInput<'a> {
    /// Lint input over just a lowered executive.
    pub fn new(ir: &'a IrExecutive, table: &'a SymbolTable) -> Self {
        IrLintInput {
            ir,
            table,
            arch: None,
            chars: None,
            constraints: None,
            floorplan: None,
            model: ModelConfig::default(),
        }
    }

    /// Attach the architecture graph.
    pub fn with_arch(mut self, arch: &'a ArchGraph) -> Self {
        self.arch = Some(arch);
        self
    }

    /// Attach the characterization tables.
    pub fn with_chars(mut self, chars: &'a Characterization) -> Self {
        self.chars = Some(chars);
        self
    }

    /// Attach the constraints file.
    pub fn with_constraints(mut self, constraints: &'a ConstraintsFile) -> Self {
        self.constraints = Some(constraints);
        self
    }

    /// Attach the placed design.
    pub fn with_floorplan(mut self, floorplan: &'a FloorplanResult) -> Self {
        self.floorplan = Some(floorplan);
        self
    }

    /// Run the model checker under `config` instead of the default.
    pub fn with_model_check(mut self, config: ModelConfig) -> Self {
        self.model = config;
        self
    }
}

/// Run every applicable analysis over an already-lowered executive.
///
/// The model checker (PDR004, PDR013–PDR017; PDR015 needs architecture
/// and constraints) only runs when the rendezvous pass found no errors:
/// with unmatched or mismatched pairs, every stuck state would just
/// restate the PDR001/PDR002 findings.
pub fn lint_ir(input: &IrLintInput<'_>) -> Report {
    let mut report = Report::new();

    let rv = rendezvous::check(input.ir, input.table);
    let rendezvous_clean = rv.diagnostics.is_empty();
    report.extend(rv.diagnostics);

    if rendezvous_clean {
        report.extend(model::run_for_lint(
            input.ir,
            input.table,
            &rv.pairs,
            input.arch,
            input.chars,
            input.constraints,
            &input.model,
        ));
    }

    if let (Some(arch), Some(chars), Some(constraints)) =
        (input.arch, input.chars, input.constraints)
    {
        report.extend(reconfig::check(
            input.ir,
            input.table,
            &rv.pairs,
            arch,
            chars,
            constraints,
        ));
    }

    if let Some(fp) = input.floorplan {
        report.extend(floorplan::check(fp));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_adequation::executive::{Executive, MacroInstr};

    /// Lower `e` through a fresh table and lint it.
    fn lint_executive(e: &Executive) -> Report {
        let mut table = SymbolTable::new();
        let ir = e.lower(&mut table);
        lint_ir(&IrLintInput::new(&ir, &table))
    }

    fn send(to: &str, tag: u32) -> MacroInstr {
        MacroInstr::Send {
            to: to.into(),
            medium: "m".into(),
            bits: 8,
            tag,
        }
    }

    #[test]
    fn empty_executive_is_clean() {
        assert!(lint_executive(&Executive::default()).is_clean());
    }

    #[test]
    fn deadlock_pass_is_suppressed_by_rendezvous_errors() {
        // A dangling send blocks forever, but the finding must be the
        // precise PDR001, not a redundant PDR004 on top.
        let mut e = Executive::default();
        e.per_operator.insert("a".into(), vec![send("b", 1)]);
        let r = lint_executive(&e);
        assert!(r.has_code(Code::DanglingRendezvous));
        assert!(!r.has_code(Code::Deadlock));
    }

    #[test]
    fn crossed_waits_reach_the_deadlock_pass() {
        let recv = |from: &str, tag| MacroInstr::Receive {
            from: from.into(),
            medium: "m".into(),
            bits: 8,
            tag,
        };
        let mut e = Executive::default();
        e.per_operator
            .insert("a".into(), vec![send("b", 1), recv("b", 2)]);
        e.per_operator
            .insert("b".into(), vec![send("a", 2), recv("a", 1)]);
        let r = lint_executive(&e);
        assert_eq!(r.with_code(Code::Deadlock).len(), 1);
        assert!(!r.with_code(Code::Deadlock)[0].notes.is_empty());
    }

    #[test]
    fn report_does_not_depend_on_the_lowering_table() {
        // One executive exercising PDR002 + (suppressed) deadlock paths,
        // lowered once through a fresh table and once through a table
        // that already interns other names (so every symbol id shifts):
        // the rendered diagnostics must be byte-identical.
        let mut e = Executive::default();
        e.per_operator.insert("a".into(), vec![send("b", 1)]);
        e.per_operator.insert(
            "b".into(),
            vec![MacroInstr::Receive {
                from: "c".into(),
                medium: "other".into(),
                bits: 16,
                tag: 1,
            }],
        );
        let fresh = lint_executive(&e);
        let mut table = SymbolTable::new();
        for name in ["z", "other", "b", "unrelated"] {
            table.intern(name);
        }
        let ir = e.lower(&mut table);
        let shared = lint_ir(&IrLintInput::new(&ir, &table));
        assert!(fresh.has_code(Code::RendezvousMismatch));
        assert_eq!(fresh, shared);
        assert_eq!(
            render::to_text(&fresh),
            render::to_text(&shared),
            "rendered text must be byte-identical"
        );
    }
}
