//! Exhaustive interleaving-level model checking (PDR004, PDR013–PDR017).
//!
//! The executive's rendezvous semantics is confluent: all enabled
//! transitions at a state are pairwise independent, so there is exactly
//! one terminal state and one interleaving would settle deadlock. It
//! would not see properties that only hold in *some* interleavings — a
//! `Configure` racing a `Compute` on the region it rewrites, or a result
//! handed off after its module was evicted. This module explores **all**
//! cross-operator interleavings and is the crate's only deadlock
//! analysis.
//!
//! ## State vector
//!
//! One explicit state is
//!
//! * a program counter per operator stream,
//! * the resident module per dynamic region (from the §4 constraints),
//! * the in-flight datum per stream: which tracked module produced the
//!   data the stream is about to send, if any.
//!
//! Transitions are `Local` (a `Compute`/`Configure` advances one stream)
//! or `Rendezvous` (a matched `Send`/`Receive` pair advances both
//! streams at once, as in the synchronized executive's semantics).
//!
//! ## Partial-order reduction
//!
//! Breadth-first search with a visibility-aware ample set: at a state
//! where some enabled transition is *invisible* (a static `Compute`, an
//! untracked `Configure`, or a rendezvous carrying no tracked datum),
//! only the first such transition is expanded; otherwise every enabled
//! transition is. All enabled transitions are pairwise independent
//! (each stream contributes at most one), the state space is acyclic
//! (program counters strictly increase), and the checked predicates
//! only read *visible* state (residency, produced data, enabledness of
//! visible transitions), so the reduction preserves every reported
//! property — the classic ample-set conditions C0–C3 with C3 vacuous.
//! `synthetic_large` (512 instructions, 8 streams) verifies in under a
//! thousand states instead of the unreduced combinatorial blow-up
//! (hundreds of thousands of states — see `bench_model`).
//!
//! ## Soundness and completeness
//!
//! On an executive with clean rendezvous matching the checker is sound
//! and complete for PDR004/PDR013/PDR014 *within the state budget*
//! ([`ModelConfig::max_states`]): every report is a real reachable
//! defect (each carries a concrete minimal-length schedule witness,
//! replayable via [`crate::replay`]), and a clean report means no
//! reachable state violates the property. When the budget is exhausted
//! the run stops early and says so explicitly (PDR017) instead of
//! silently under-reporting. Witness floods are capped at
//! [`MAX_WITNESSES_PER_CODE`] distinct sites per code.
//!
//! PDR015 is a separate `[best, worst]`-clock abstract interpretation
//! ([`check_timing`]) over the happens-before structure: reconfiguration
//! latency is counted at worst-case (the `Configure`'s carried time) in
//! the upper clock and zero in the lower clock (§4 prefetching can hide
//! it entirely), and rendezvous join both clocks with `max` plus the
//! medium transfer time. A module's §4 `deadline_us` is violated for
//! certain when even the best-case completion clock exceeds it (error)
//! and violated possibly when only the worst-case clock does (warning).

use crate::diag::{Code, Diagnostic, Location};
use crate::rendezvous::RendezvousPair;
use pdr_fabric::TimePs;
use pdr_graph::{ArchGraph, Characterization, ConstraintsFile};
use pdr_ir::{IrExecutive, IrInstr, ModuleId, SymbolTable};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// "no module" sentinel in the dense residency/produced tables.
const NONE: u8 = u8::MAX;

/// At most this many dense module/region indices are tracked; a
/// constraints file larger than this disables residency tracking (the
/// exploration still runs for deadlock).
const MAX_TRACKED: usize = 250;

/// Distinct defect sites reported per code before further witnesses of
/// that code are dropped (they would restate the same root cause).
pub const MAX_WITNESSES_PER_CODE: usize = 16;

/// Schedule steps rendered into a diagnostic's notes before eliding;
/// [`Witness::schedule`] always carries the full schedule.
const MAX_RENDERED_STEPS: usize = 24;

/// Tuning knobs for the explorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Distinct states explored before giving up with PDR017.
    pub max_states: usize,
    /// Apply the ample-set partial-order reduction (disable only to
    /// measure the reduction factor).
    pub por: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            max_states: 1 << 20,
            por: true,
        }
    }
}

impl ModelConfig {
    /// Override the state budget.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Disable the partial-order reduction.
    pub fn without_por(mut self) -> Self {
        self.por = false;
        self
    }
}

/// Everything the explorer looks at. `pairs` must come from a rendezvous
/// pass with no errors (as [`crate::lint_ir`] guarantees); constraints
/// are optional — without them only deadlock and reachability are
/// checked.
pub struct ModelInput<'a> {
    /// The lowered executive.
    pub ir: &'a IrExecutive,
    /// Symbol table resolving its interned names.
    pub table: &'a SymbolTable,
    /// Matched rendezvous pairs.
    pub pairs: &'a [RendezvousPair],
    /// §4 constraints — enables residency tracking (PDR013/PDR014).
    pub constraints: Option<&'a ConstraintsFile>,
}

/// One step of a schedule witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A local instruction of one stream fires.
    Local {
        /// Stream index.
        stream: usize,
        /// Instruction index within the stream.
        index: usize,
    },
    /// A matched rendezvous completes, advancing both streams.
    Rendezvous {
        /// The completed pair.
        pair: RendezvousPair,
    },
}

/// What a witness demonstrates, in stream/instruction coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessDetail {
    /// PDR004: the schedule ends in a state with no enabled transition;
    /// these streams are stuck at these instruction indices.
    Deadlock {
        /// `(stream, pc)` per unfinished stream.
        stuck: Vec<(usize, usize)>,
    },
    /// PDR013: at the schedule's final state, the `Configure` at
    /// `configure` and the `Compute` at `compute` are both enabled, and
    /// the computed module is resident on the configured region.
    Race {
        /// `(stream, index)` of the racing `Configure`.
        configure: (usize, usize),
        /// `(stream, index)` of the racing `Compute`.
        compute: (usize, usize),
        /// The module being computed (and currently resident).
        module: ModuleId,
        /// The raced region's name.
        region: String,
    },
    /// PDR014: the schedule's final step is a rendezvous whose sender
    /// hands off data produced by `producer`, whose region no longer
    /// holds it.
    StaleData {
        /// `(stream, index)` of the `Send`.
        send: (usize, usize),
        /// The module that produced the handed-off data.
        producer: ModuleId,
        /// The region that was reconfigured away from it.
        region: String,
    },
}

/// A concrete counterexample: a minimal-length schedule (BFS order)
/// reaching the defect, plus what the defect is. Replay it with
/// [`crate::replay::replay_witness`] and corroborate it against the
/// timed simulator with [`crate::replay::confirm_in_sim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The code this witness supports.
    pub code: Code,
    /// The schedule from the initial state to the defect.
    pub schedule: Vec<Step>,
    /// The defect demonstrated at the schedule's end.
    pub detail: WitnessDetail,
}

/// Exploration statistics (what `bench_model` reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Distinct states visited.
    pub states: u64,
    /// Transitions applied (edges of the explored graph).
    pub transitions: u64,
    /// Did the state budget cut the exploration short?
    pub truncated: bool,
}

/// The checker's full result. [`crate::lint_ir`] folds `diagnostics`
/// into the report; benches and tests also read `stats`/`witnesses`.
#[derive(Debug, Clone)]
pub struct ModelOutcome {
    /// Findings, in deterministic order.
    pub diagnostics: Vec<Diagnostic>,
    /// Exploration statistics.
    pub stats: ModelStats,
    /// One replayable witness per PDR004/PDR013/PDR014 finding, in the
    /// same order as their diagnostics.
    pub witnesses: Vec<Witness>,
}

/// Dense per-instruction classification, precomputed once.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Invisible local instruction (static compute, untracked configure).
    Local,
    /// Compute of a tracked dynamic module: sets the stream's produced
    /// datum. Visible.
    ComputeTracked { module: u8 },
    /// Configure of a tracked module: rewrites its region's residency.
    /// Visible.
    ConfigureTracked { module: u8, region: u8 },
    /// Send side of a matched rendezvous (fires the pair when the peer
    /// is co-positioned). Visible only while carrying a tracked datum.
    Send { pair: u32 },
    /// Receive side of a matched rendezvous (fired from the send side),
    /// or an unpaired communication: never fires by itself.
    Wait,
}

/// One interleaving state.
#[derive(Clone, PartialEq, Eq)]
struct State {
    pcs: Vec<u32>,
    resident: Vec<u8>,
    produced: Vec<u8>,
}

impl State {
    fn pack(&self, buf: &mut Vec<u8>) {
        buf.clear();
        for pc in &self.pcs {
            buf.extend_from_slice(&pc.to_le_bytes());
        }
        buf.extend_from_slice(&self.resident);
        buf.extend_from_slice(&self.produced);
    }
}

/// The tracked-module universe derived from the constraints file.
struct Tracked {
    /// Dense module index -> interned symbol.
    modules: Vec<ModuleId>,
    /// Dense module index -> dense region index.
    region_of: Vec<u8>,
    /// Dense region index -> region name.
    regions: Vec<String>,
    /// Reverse map for classification.
    module_ix: HashMap<ModuleId, u8>,
}

impl Tracked {
    fn build(table: &SymbolTable, constraints: Option<&ConstraintsFile>) -> Tracked {
        let mut t = Tracked {
            modules: Vec::new(),
            region_of: Vec::new(),
            regions: Vec::new(),
            module_ix: HashMap::new(),
        };
        let Some(cons) = constraints else { return t };
        if cons.modules().len() > MAX_TRACKED {
            return t;
        }
        let mut region_ix: HashMap<&str, u8> = HashMap::new();
        for mc in cons.modules() {
            // A module name the executive never interned cannot appear in
            // any instruction; skip it.
            let Some(sym) = table.lookup(&mc.module) else {
                continue;
            };
            let region = *region_ix.entry(mc.region.as_str()).or_insert_with(|| {
                t.regions.push(mc.region.clone());
                (t.regions.len() - 1) as u8
            });
            let ix = t.modules.len() as u8;
            t.modules.push(ModuleId::new(sym));
            t.region_of.push(region);
            t.module_ix.insert(ModuleId::new(sym), ix);
        }
        t
    }
}

/// An enabled transition at some state.
#[derive(Debug, Clone, Copy)]
struct Trans {
    step: Step,
    action: Action,
    stream: usize,
}

struct Explorer<'a> {
    ir: &'a IrExecutive,
    pairs: &'a [RendezvousPair],
    actions: Vec<Vec<Action>>,
    tracked: Tracked,
    config: ModelConfig,
    /// `(parent node, incoming step)` per visited state; the root's
    /// parent is `u32::MAX`.
    nodes: Vec<(u32, Step)>,
    executed: Vec<Vec<bool>>,
    stats: ModelStats,
}

impl<'a> Explorer<'a> {
    fn new(input: &ModelInput<'a>, config: ModelConfig) -> Explorer<'a> {
        let ir = input.ir;
        let tracked = Tracked::build(input.table, input.constraints);
        // Send-side endpoint of every pair, for classification. A pair
        // with out-of-range receive coordinates (possible only when a
        // caller hands in pairs that did not come from the rendezvous
        // pass) is dropped: its send side then classifies as `Wait`,
        // i.e. permanently blocked, instead of indexing out of bounds.
        let mut send_at: HashMap<(usize, usize), u32> = HashMap::new();
        for (k, p) in input.pairs.iter().enumerate() {
            let recv_valid =
                p.recv_stream < ir.operator_count() && p.recv_idx < ir.program(p.recv_stream).len();
            if recv_valid {
                send_at.insert((p.send_stream, p.send_idx), k as u32);
            }
        }
        let mut actions = Vec::with_capacity(ir.operator_count());
        for stream in 0..ir.operator_count() {
            let mut list = Vec::with_capacity(ir.program(stream).len());
            for (index, instr) in ir.program(stream).iter().enumerate() {
                let action = match instr {
                    IrInstr::Compute { function, .. } => match tracked.module_ix.get(function) {
                        Some(&m) => Action::ComputeTracked { module: m },
                        None => Action::Local,
                    },
                    IrInstr::Configure { module, .. } => match tracked.module_ix.get(module) {
                        Some(&m) => Action::ConfigureTracked {
                            module: m,
                            region: tracked.region_of[m as usize],
                        },
                        None => Action::Local,
                    },
                    IrInstr::Send { .. } => match send_at.get(&(stream, index)) {
                        Some(&pair) => Action::Send { pair },
                        None => Action::Wait,
                    },
                    IrInstr::Receive { .. } => Action::Wait,
                };
                list.push(action);
            }
            actions.push(list);
        }
        let executed = (0..ir.operator_count())
            .map(|s| vec![false; ir.program(s).len()])
            .collect();
        Explorer {
            ir,
            pairs: input.pairs,
            actions,
            tracked,
            config,
            nodes: Vec::new(),
            executed,
            stats: ModelStats::default(),
        }
    }

    fn initial(&self) -> State {
        State {
            pcs: vec![0; self.ir.operator_count()],
            resident: vec![NONE; self.tracked.regions.len()],
            produced: vec![NONE; self.ir.operator_count()],
        }
    }

    /// All enabled transitions at `state`, in stream order (rendezvous
    /// enumerated at their send side).
    fn enabled(&self, state: &State) -> Vec<Trans> {
        let mut out = Vec::new();
        for stream in 0..self.ir.operator_count() {
            let pc = state.pcs[stream] as usize;
            if pc >= self.actions[stream].len() {
                continue;
            }
            let action = self.actions[stream][pc];
            match action {
                Action::Wait => {}
                Action::Send { pair } => {
                    let p = self.pairs[pair as usize];
                    if state.pcs[p.recv_stream] as usize == p.recv_idx {
                        out.push(Trans {
                            step: Step::Rendezvous { pair: p },
                            action,
                            stream,
                        });
                    }
                }
                _ => out.push(Trans {
                    step: Step::Local { stream, index: pc },
                    action,
                    stream,
                }),
            }
        }
        out
    }

    /// Is `t` invisible to every checked predicate at `state`?
    fn invisible(&self, state: &State, t: &Trans) -> bool {
        match t.action {
            Action::Local => true,
            Action::Send { .. } => state.produced[t.stream] == NONE,
            _ => false,
        }
    }

    /// Apply `t`; the defect hook reports a stale hand-off (PDR014).
    fn apply(&mut self, state: &State, t: &Trans) -> (State, Option<(usize, usize, u8)>) {
        let mut next = state.clone();
        let mut stale = None;
        match t.step {
            Step::Local { stream, index } => {
                self.executed[stream][index] = true;
                next.pcs[stream] += 1;
                match t.action {
                    Action::ComputeTracked { module } => next.produced[stream] = module,
                    Action::ConfigureTracked { module, region } => {
                        next.resident[region as usize] = module;
                    }
                    _ => {}
                }
            }
            Step::Rendezvous { pair } => {
                self.executed[pair.send_stream][pair.send_idx] = true;
                self.executed[pair.recv_stream][pair.recv_idx] = true;
                next.pcs[pair.send_stream] += 1;
                next.pcs[pair.recv_stream] += 1;
                let produced = state.produced[pair.send_stream];
                if produced != NONE {
                    let region = self.tracked.region_of[produced as usize] as usize;
                    if next.resident[region] != produced {
                        stale = Some((pair.send_stream, pair.send_idx, produced));
                    }
                    next.produced[pair.send_stream] = NONE;
                }
            }
        }
        self.stats.transitions += 1;
        (next, stale)
    }

    /// Reconstruct the schedule from the root to `node`.
    fn schedule_to(&self, node: u32) -> Vec<Step> {
        let mut steps = Vec::new();
        let mut cur = node;
        while cur != u32::MAX {
            let (parent, step) = self.nodes[cur as usize];
            if parent == u32::MAX {
                break;
            }
            steps.push(step);
            cur = parent;
        }
        steps.reverse();
        steps
    }
}

/// Run the explorer and report PDR004, PDR013, PDR014, PDR016, PDR017.
pub fn check(input: &ModelInput<'_>, config: &ModelConfig) -> ModelOutcome {
    let mut ex = Explorer::new(input, *config);
    let mut seen: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut queue: VecDeque<(u32, State)> = VecDeque::new();
    let mut key = Vec::new();

    let root = ex.initial();
    root.pack(&mut key);
    seen.insert(key.clone(), 0);
    ex.nodes.push((
        u32::MAX,
        Step::Local {
            stream: 0,
            index: 0,
        },
    ));
    queue.push_back((0, root));

    let mut deadlock: Option<Witness> = None;
    let mut races: BTreeMap<(usize, usize, usize, usize), Witness> = BTreeMap::new();
    let mut stales: BTreeMap<(usize, usize, u8), Witness> = BTreeMap::new();

    while let Some((node, state)) = queue.pop_front() {
        let enabled = ex.enabled(&state);

        // PDR004: terminal state with unfinished streams.
        if enabled.is_empty() {
            let stuck: Vec<(usize, usize)> = state
                .pcs
                .iter()
                .enumerate()
                .filter(|&(s, &pc)| (pc as usize) < ex.ir.program(s).len())
                .map(|(s, &pc)| (s, pc as usize))
                .collect();
            if !stuck.is_empty() && deadlock.is_none() {
                deadlock = Some(Witness {
                    code: Code::Deadlock,
                    schedule: ex.schedule_to(node),
                    detail: WitnessDetail::Deadlock { stuck },
                });
            }
            continue;
        }

        // PDR013: a Configure co-enabled with a Compute of the module its
        // target region currently holds, on different streams.
        for c in &enabled {
            let Action::ConfigureTracked { region, .. } = c.action else {
                continue;
            };
            for w in &enabled {
                let Action::ComputeTracked { module } = w.action else {
                    continue;
                };
                if w.stream == c.stream
                    || ex.tracked.region_of[module as usize] != region
                    || state.resident[region as usize] != module
                {
                    continue;
                }
                let (ci, wi) = (state.pcs[c.stream] as usize, state.pcs[w.stream] as usize);
                let site = (c.stream, ci, w.stream, wi);
                if races.len() < MAX_WITNESSES_PER_CODE && !races.contains_key(&site) {
                    races.insert(
                        site,
                        Witness {
                            code: Code::ReconfigRace,
                            schedule: ex.schedule_to(node),
                            detail: WitnessDetail::Race {
                                configure: (c.stream, ci),
                                compute: (w.stream, wi),
                                module: ex.tracked.modules[module as usize],
                                region: ex.tracked.regions[region as usize].clone(),
                            },
                        },
                    );
                }
            }
        }

        // Ample set: expand one invisible transition when possible.
        let ample: Vec<Trans> = if ex.config.por {
            match enabled.iter().find(|t| ex.invisible(&state, t)) {
                Some(t) => vec![*t],
                None => enabled,
            }
        } else {
            enabled
        };

        for t in &ample {
            let (next, stale) = ex.apply(&state, t);
            if let Some((send_stream, send_idx, produced)) = stale {
                let site = (send_stream, send_idx, produced);
                if stales.len() < MAX_WITNESSES_PER_CODE && !stales.contains_key(&site) {
                    let mut schedule = ex.schedule_to(node);
                    schedule.push(t.step);
                    stales.insert(
                        site,
                        Witness {
                            code: Code::UseAfterReconfigure,
                            schedule,
                            detail: WitnessDetail::StaleData {
                                send: (send_stream, send_idx),
                                producer: ex.tracked.modules[produced as usize],
                                region: ex.tracked.regions
                                    [ex.tracked.region_of[produced as usize] as usize]
                                    .clone(),
                            },
                        },
                    );
                }
            }
            next.pack(&mut key);
            if seen.contains_key(&key) {
                continue;
            }
            if ex.nodes.len() >= ex.config.max_states {
                ex.stats.truncated = true;
                continue;
            }
            let id = ex.nodes.len() as u32;
            seen.insert(key.clone(), id);
            ex.nodes.push((node, t.step));
            queue.push_back((id, next));
        }
    }

    ex.stats.states = ex.nodes.len() as u64;

    // Assemble diagnostics + witnesses in deterministic order.
    let mut diagnostics = Vec::new();
    let mut witnesses = Vec::new();
    if let Some(w) = deadlock {
        diagnostics.push(render_deadlock(ex.ir, input.table, ex.pairs, &w));
        witnesses.push(w);
    }
    for w in races.into_values() {
        diagnostics.push(render_race(ex.ir, input.table, &w));
        witnesses.push(w);
    }
    for w in stales.into_values() {
        diagnostics.push(render_stale(ex.ir, input.table, &w));
        witnesses.push(w);
    }
    if !ex.stats.truncated {
        diagnostics.extend(unreachable_instrs(ex.ir, input.table, &ex.executed));
    } else {
        diagnostics.push(Diagnostic::new(
            Code::StateBudgetExceeded,
            format!(
                "state budget exhausted: {} states explored (budget {}); \
                 findings above are sound but the exploration is incomplete",
                ex.nodes.len(),
                ex.config.max_states
            ),
        ));
    }

    ModelOutcome {
        diagnostics,
        stats: ex.stats,
        witnesses,
    }
}

/// PDR016: instructions no explored interleaving ever executed. Only
/// meaningful on a complete exploration; one finding per stream, at the
/// first dead instruction.
fn unreachable_instrs(
    ir: &IrExecutive,
    table: &SymbolTable,
    executed: &[Vec<bool>],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (stream, marks) in executed.iter().enumerate() {
        let Some(first) = marks.iter().position(|&e| !e) else {
            continue;
        };
        let dead = marks.len() - first;
        let operator = ir.operator_sym(stream).resolve(table);
        out.push(
            Diagnostic::new(
                Code::UnreachableInstr,
                format!(
                    "{dead} instruction{} of `{operator}` can never execute \
                     in any interleaving (dead macro-code behind a blocked \
                     rendezvous)",
                    if dead == 1 { "" } else { "s" }
                ),
            )
            .at(Location::instr(operator, first)),
        );
    }
    out
}

/// Render one schedule step for a witness trace note.
fn render_step(ir: &IrExecutive, table: &SymbolTable, step: &Step) -> String {
    match step {
        Step::Local { stream, index } => {
            let op = ir.operator_sym(*stream).resolve(table);
            match ir.program(*stream).get(*index) {
                Some(IrInstr::Compute { function, .. }) => {
                    format!("{op}[{index}] compute {}", function.resolve(table))
                }
                Some(IrInstr::Configure { module, .. }) => {
                    format!("{op}[{index}] configure {}", module.resolve(table))
                }
                _ => format!("{op}[{index}]"),
            }
        }
        Step::Rendezvous { pair } => {
            let s = ir.operator_sym(pair.send_stream).resolve(table);
            let r = ir.operator_sym(pair.recv_stream).resolve(table);
            format!(
                "rendezvous tag {}: {s}[{}] -> {r}[{}]",
                pair.tag, pair.send_idx, pair.recv_idx
            )
        }
    }
}

/// Append the witness schedule to a diagnostic, eliding long middles.
fn note_schedule(
    mut d: Diagnostic,
    ir: &IrExecutive,
    table: &SymbolTable,
    schedule: &[Step],
) -> Diagnostic {
    d = d.note(format!(
        "witness schedule ({} step{}):",
        schedule.len(),
        if schedule.len() == 1 { "" } else { "s" }
    ));
    for (k, step) in schedule.iter().take(MAX_RENDERED_STEPS).enumerate() {
        d = d.note(format!("  {k}: {}", render_step(ir, table, step)));
    }
    if schedule.len() > MAX_RENDERED_STEPS {
        d = d.note(format!(
            "  … {} more steps elided",
            schedule.len() - MAX_RENDERED_STEPS
        ));
    }
    d
}

fn render_deadlock(
    ir: &IrExecutive,
    table: &SymbolTable,
    pairs: &[RendezvousPair],
    w: &Witness,
) -> Diagnostic {
    let WitnessDetail::Deadlock { stuck } = &w.detail else {
        unreachable!("deadlock witness carries deadlock detail");
    };
    let peer_of: BTreeMap<(usize, usize), &RendezvousPair> = pairs
        .iter()
        .flat_map(|p| {
            [
                ((p.send_stream, p.send_idx), p),
                ((p.recv_stream, p.recv_idx), p),
            ]
        })
        .collect();
    let op = |s: usize| ir.operator_sym(s).resolve(table);
    let names: Vec<&str> = stuck.iter().map(|&(s, _)| op(s)).collect();
    let (s0, i0) = stuck[0];
    let mut d = Diagnostic::new(
        Code::Deadlock,
        format!(
            "deadlock: {} operator{} can never finish in any interleaving \
             ({})",
            stuck.len(),
            if stuck.len() == 1 { "" } else { "s" },
            names.join(", "),
        ),
    )
    .at(Location::instr(op(s0), i0));
    for &(stream, idx) in stuck {
        let (verb, tag) = match ir.program(stream).get(idx) {
            Some(IrInstr::Send { tag, .. }) => ("send", Some(*tag)),
            Some(IrInstr::Receive { tag, .. }) => ("receive", Some(*tag)),
            _ => ("instruction", None),
        };
        let name = op(stream);
        let mut line = match tag {
            Some(tag) => format!("{name}[{idx}] blocks on {verb} tag {tag}"),
            None => format!("{name}[{idx}] blocks on {verb}"),
        };
        if let Some(p) = peer_of.get(&(stream, idx)) {
            let (peer, pidx) = if p.send_stream == stream {
                (p.recv_stream, p.recv_idx)
            } else {
                (p.send_stream, p.send_idx)
            };
            line.push_str(&format!(", waiting for {}[{pidx}]", op(peer)));
        }
        d = d.note(line);
    }
    note_schedule(d, ir, table, &w.schedule)
}

fn render_race(ir: &IrExecutive, table: &SymbolTable, w: &Witness) -> Diagnostic {
    let WitnessDetail::Race {
        configure,
        compute,
        module,
        region,
    } = &w.detail
    else {
        unreachable!("race witness carries race detail");
    };
    let cfg_op = ir.operator_sym(configure.0).resolve(table);
    let cmp_op = ir.operator_sym(compute.0).resolve(table);
    let cfg_target = match ir.program(configure.0).get(configure.1) {
        Some(IrInstr::Configure { module, .. }) => module.resolve(table),
        _ => "?",
    };
    let module = module.resolve(table);
    let d = Diagnostic::new(
        Code::ReconfigRace,
        format!(
            "reconfiguration race: configure of `{cfg_target}` at \
             {cfg_op}[{}] can interleave with the compute of `{module}` at \
             {cmp_op}[{}] while region `{region}` holds `{module}` — the \
             fabric can be rewritten mid-computation",
            configure.1, compute.1
        ),
    )
    .at(Location::instr(cfg_op, configure.1))
    .note(
        "both instructions are enabled after the witness schedule below; \
         no rendezvous orders the configure after the compute",
    );
    note_schedule(d, ir, table, &w.schedule)
}

fn render_stale(ir: &IrExecutive, table: &SymbolTable, w: &Witness) -> Diagnostic {
    let WitnessDetail::StaleData {
        send,
        producer,
        region,
    } = &w.detail
    else {
        unreachable!("stale witness carries stale detail");
    };
    let op = ir.operator_sym(send.0).resolve(table);
    let producer = producer.resolve(table);
    let d = Diagnostic::new(
        Code::UseAfterReconfigure,
        format!(
            "use-after-reconfigure: the send at {op}[{}] hands off data \
             produced by `{producer}` after region `{region}` was \
             reconfigured away from it in some interleaving",
            send.1
        ),
    )
    .at(Location::instr(op, send.1));
    note_schedule(d, ir, table, &w.schedule)
}

// ---------------------------------------------------------------- timing

/// PDR015: `[best, worst]`-clock abstract interpretation against the §4
/// `deadline_us` constraints.
///
/// Clocks advance along the executive's happens-before structure (the
/// fixpoint co-advance is sound because the semantics is confluent):
/// `Compute` adds its characterized duration to both clocks, `Configure`
/// adds its worst-case time to the upper clock only (§4 prefetching can
/// hide a reconfiguration completely, so the lower bound is zero), and a
/// rendezvous joins both sides with `max` plus the medium's transfer
/// time. A deadlined module's compute that cannot meet its deadline even
/// in the best case is an error; one that misses it only in the worst
/// case is a warning.
pub fn check_timing(
    ir: &IrExecutive,
    table: &SymbolTable,
    pairs: &[RendezvousPair],
    arch: &ArchGraph,
    constraints: &ConstraintsFile,
) -> Vec<Diagnostic> {
    let deadlines: BTreeMap<&str, TimePs> = constraints
        .modules()
        .iter()
        .filter_map(|mc| {
            mc.deadline_us
                .map(|us| (mc.module.as_str(), TimePs::from_us(us)))
        })
        .collect();
    if deadlines.is_empty() {
        return Vec::new();
    }

    let media: HashMap<&str, TimePs> = {
        let mut m = HashMap::new();
        for p in pairs {
            if let Some(IrInstr::Send { medium, bits, .. }) =
                ir.program(p.send_stream).get(p.send_idx)
            {
                let name = ir.medium_sym(*medium).resolve(table);
                let time = arch
                    .media()
                    .find(|(_, med)| med.name == name)
                    .map(|(_, med)| med.transfer_time(*bits))
                    .unwrap_or(TimePs::ZERO);
                m.insert(name, time);
            }
        }
        m
    };
    let transfer = |p: &RendezvousPair| -> TimePs {
        match ir.program(p.send_stream).get(p.send_idx) {
            Some(IrInstr::Send { medium, .. }) => media
                .get(ir.medium_sym(*medium).resolve(table))
                .copied()
                .unwrap_or(TimePs::ZERO),
            _ => TimePs::ZERO,
        }
    };

    let streams = ir.operator_count();
    let mut pc = vec![0usize; streams];
    let mut best = vec![TimePs::ZERO; streams];
    let mut worst = vec![TimePs::ZERO; streams];
    let mut diagnostics = Vec::new();
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();

    loop {
        let mut progressed = false;
        for stream in 0..streams {
            let program = ir.program(stream);
            while pc[stream] < program.len() && !program[pc[stream]].is_comm() {
                match &program[pc[stream]] {
                    IrInstr::Compute {
                        function, duration, ..
                    } => {
                        let (eb, ew) = (best[stream] + *duration, worst[stream] + *duration);
                        let name = function.resolve(table);
                        if let Some(&deadline) = deadlines.get(name) {
                            if eb > deadline && reported.insert((stream, pc[stream])) {
                                let operator = ir.operator_sym(stream).resolve(table);
                                diagnostics.push(
                                    Diagnostic::new(
                                        Code::TimingViolation,
                                        format!(
                                            "compute of `{name}` finishes at {eb} at the \
                                             earliest — past its §4 deadline of {deadline}"
                                        ),
                                    )
                                    .at(Location::instr(operator, pc[stream]))
                                    .note(format!("completion clock interval: [{eb}, {ew}]")),
                                );
                            } else if ew > deadline && reported.insert((stream, pc[stream])) {
                                let operator = ir.operator_sym(stream).resolve(table);
                                diagnostics.push(
                                    Diagnostic::new(
                                        Code::TimingViolation,
                                        format!(
                                            "compute of `{name}` can finish as late as {ew}, \
                                             past its §4 deadline of {deadline} (best case \
                                             {eb} meets it)"
                                        ),
                                    )
                                    .with_severity(crate::diag::Severity::Warning)
                                    .at(Location::instr(operator, pc[stream]))
                                    .note(format!("completion clock interval: [{eb}, {ew}]"))
                                    .note(
                                        "worst case counts every reconfiguration at its \
                                         carried worst-case time; best case assumes §4 \
                                         prefetching hides them all",
                                    ),
                                );
                            }
                        }
                        best[stream] = eb;
                        worst[stream] = ew;
                    }
                    IrInstr::Configure { worst_case, .. } => {
                        worst[stream] += *worst_case;
                    }
                    _ => unreachable!("is_comm filtered"),
                }
                pc[stream] += 1;
                progressed = true;
            }
        }
        for p in pairs {
            if pc[p.send_stream] == p.send_idx && pc[p.recv_stream] == p.recv_idx {
                let t = transfer(p);
                let eb = best[p.send_stream].max(best[p.recv_stream]) + t;
                let ew = worst[p.send_stream].max(worst[p.recv_stream]) + t;
                best[p.send_stream] = eb;
                best[p.recv_stream] = eb;
                worst[p.send_stream] = ew;
                worst[p.recv_stream] = ew;
                pc[p.send_stream] += 1;
                pc[p.recv_stream] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    diagnostics
}

/// Convenience for `lint_ir`: everything the model layer contributes.
pub(crate) fn run_for_lint(
    ir: &IrExecutive,
    table: &SymbolTable,
    pairs: &[RendezvousPair],
    arch: Option<&ArchGraph>,
    _chars: Option<&Characterization>,
    constraints: Option<&ConstraintsFile>,
    config: &ModelConfig,
) -> Vec<Diagnostic> {
    let input = ModelInput {
        ir,
        table,
        pairs,
        constraints,
    };
    let mut diagnostics = check(&input, config).diagnostics;
    if let (Some(arch), Some(constraints)) = (arch, constraints) {
        diagnostics.extend(check_timing(ir, table, pairs, arch, constraints));
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rendezvous;
    use pdr_ir::IrBuilder;

    fn pairs_of(ir: &IrExecutive, table: &SymbolTable) -> Vec<RendezvousPair> {
        let r = rendezvous::check(ir, table);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        r.pairs
    }

    fn run(ir: &IrExecutive, table: &SymbolTable, cons: Option<&ConstraintsFile>) -> ModelOutcome {
        let pairs = pairs_of(ir, table);
        check(
            &ModelInput {
                ir,
                table,
                pairs: &pairs,
                constraints: cons,
            },
            &ModelConfig::default(),
        )
    }

    fn cons_two_regions() -> ConstraintsFile {
        let mut f = ConstraintsFile::new();
        f.add(pdr_graph::constraints::ModuleConstraints::new(
            "mod_a", "d1",
        ))
        .unwrap();
        f.add(pdr_graph::constraints::ModuleConstraints::new(
            "mod_b", "d2",
        ))
        .unwrap();
        f
    }

    #[test]
    fn straight_pipeline_is_clean_and_small() {
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("a");
            b.compute("x", "f", TimePs::from_us(1));
            b.send("b", "m", 8, 1);
            b.begin_operator("b");
            b.receive("a", "m", 8, 1);
            b.compute("y", "g", TimePs::from_us(1));
            b.finish()
        };
        let out = run(&ir, &table, None);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert!(!out.stats.truncated);
        assert!(out.stats.states >= 2);
    }

    #[test]
    fn crossed_waits_deadlock_with_minimal_schedule() {
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("a");
            b.send("b", "m", 8, 1);
            b.receive("b", "m", 8, 2);
            b.begin_operator("b");
            b.send("a", "m", 8, 2);
            b.receive("a", "m", 8, 1);
            b.finish()
        };
        let out = run(&ir, &table, None);
        assert_eq!(out.witnesses.len(), 1);
        let w = &out.witnesses[0];
        assert_eq!(w.code, Code::Deadlock);
        // The initial state already deadlocks: minimal schedule is empty.
        assert!(w.schedule.is_empty(), "{:?}", w.schedule);
        let WitnessDetail::Deadlock { stuck } = &w.detail else {
            panic!("deadlock detail");
        };
        assert_eq!(stuck.len(), 2);
        let ds = deadlocks(&out);
        assert_eq!(ds.len(), 1);
        let d = ds[0];
        assert!(d.notes.iter().any(|n| n.starts_with("a[0] blocks")), "{d}");
        assert!(d.notes.iter().any(|n| n.starts_with("b[0] blocks")), "{d}");
        // PDR016 rides along: the dead instructions behind the deadlock.
        assert!(out
            .diagnostics
            .iter()
            .any(|d| d.code == Code::UnreachableInstr));
    }

    /// The PDR004 diagnostics, asserting one per deadlock witness.
    fn deadlocks(out: &ModelOutcome) -> Vec<&Diagnostic> {
        let ds: Vec<_> = out
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::Deadlock)
            .collect();
        let witnesses = out
            .witnesses
            .iter()
            .filter(|w| w.code == Code::Deadlock)
            .count();
        assert_eq!(ds.len(), witnesses, "one PDR004 per deadlocked state");
        ds
    }

    #[test]
    fn straight_rendezvous_pipeline_has_no_deadlock() {
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("a");
            b.send("b", "m", 8, 1);
            b.send("b", "m", 8, 2);
            b.begin_operator("b");
            b.receive("a", "m", 8, 1);
            b.receive("a", "m", 8, 2);
            b.send("c", "m", 8, 3);
            b.begin_operator("c");
            b.receive("b", "m", 8, 3);
            b.finish()
        };
        let out = run(&ir, &table, None);
        assert!(deadlocks(&out).is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn three_party_cycle_is_one_diagnostic() {
        // a waits on c, c waits on b, b waits on a.
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("a");
            b.receive("c", "m", 8, 3);
            b.send("b", "m", 8, 1);
            b.begin_operator("b");
            b.receive("a", "m", 8, 1);
            b.send("c", "m", 8, 2);
            b.begin_operator("c");
            b.receive("b", "m", 8, 2);
            b.send("a", "m", 8, 3);
            b.finish()
        };
        let out = run(&ir, &table, None);
        assert_eq!(deadlocks(&out).len(), 1);
        let WitnessDetail::Deadlock { stuck } = &out.witnesses[0].detail else {
            panic!("deadlock detail");
        };
        assert_eq!(stuck.len(), 3);
    }

    #[test]
    fn local_instructions_do_not_block() {
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("a");
            b.configure("m", TimePs::from_ms(4));
            b.compute("o", "m", TimePs::from_us(1));
            b.send("b", "m", 8, 1);
            b.begin_operator("b");
            b.receive("a", "m", 8, 1);
            b.finish()
        };
        let out = run(&ir, &table, None);
        assert!(deadlocks(&out).is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn reorder_dependent_race_is_found_with_witness() {
        // d1 computes mod_a (resident); a *different* stream configures
        // mod_a concurrently — no rendezvous orders them.
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("ctl");
            b.configure("mod_a", TimePs::from_ms(4));
            b.begin_operator("d1");
            b.configure("mod_a", TimePs::from_ms(4));
            b.compute("eq", "mod_a", TimePs::from_us(1));
            b.finish()
        };
        let cons = cons_two_regions();
        let out = run(&ir, &table, Some(&cons));
        let races: Vec<_> = out
            .witnesses
            .iter()
            .filter(|w| w.code == Code::ReconfigRace)
            .collect();
        assert_eq!(races.len(), 1, "{:?}", out.diagnostics);
        let WitnessDetail::Race { region, .. } = &races[0].detail else {
            panic!("race detail");
        };
        assert_eq!(region, "d1");
    }

    #[test]
    fn sequential_use_after_reconfigure_is_found() {
        // d1 computes mod_a, reconfigures to mod_c on the same region,
        // then sends the (now stale) result.
        let mut f = ConstraintsFile::new();
        f.add(pdr_graph::constraints::ModuleConstraints::new(
            "mod_a", "d1",
        ))
        .unwrap();
        f.add(pdr_graph::constraints::ModuleConstraints::new(
            "mod_c", "d1",
        ))
        .unwrap();
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("d1");
            b.configure("mod_a", TimePs::from_ms(4));
            b.compute("eq", "mod_a", TimePs::from_us(1));
            b.configure("mod_c", TimePs::from_ms(4));
            b.send("sink", "m", 8, 1);
            b.begin_operator("sink");
            b.receive("d1", "m", 8, 1);
            b.finish()
        };
        let out = run(&ir, &table, Some(&f));
        let stale: Vec<_> = out
            .witnesses
            .iter()
            .filter(|w| w.code == Code::UseAfterReconfigure)
            .collect();
        assert_eq!(stale.len(), 1, "{:?}", out.diagnostics);
        // The schedule's final step is the stale hand-off itself.
        assert!(matches!(
            stale[0].schedule.last(),
            Some(Step::Rendezvous { .. })
        ));
    }

    #[test]
    fn clean_configure_compute_send_is_clean() {
        let mut f = ConstraintsFile::new();
        f.add(pdr_graph::constraints::ModuleConstraints::new(
            "mod_a", "d1",
        ))
        .unwrap();
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("d1");
            b.configure("mod_a", TimePs::from_ms(4));
            b.compute("eq", "mod_a", TimePs::from_us(1));
            b.send("sink", "m", 8, 1);
            b.begin_operator("sink");
            b.receive("d1", "m", 8, 1);
            b.finish()
        };
        let out = run(&ir, &table, Some(&f));
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn tiny_budget_reports_pdr017() {
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("a");
            for k in 0..8 {
                b.send("b", "m", 8, k);
            }
            b.begin_operator("b");
            for k in 0..8 {
                b.receive("a", "m", 8, k);
            }
            b.finish()
        };
        let pairs = pairs_of(&ir, &table);
        let out = check(
            &ModelInput {
                ir: &ir,
                table: &table,
                pairs: &pairs,
                constraints: None,
            },
            &ModelConfig::default().with_max_states(2),
        );
        assert!(out.stats.truncated);
        assert!(out
            .diagnostics
            .iter()
            .any(|d| d.code == Code::StateBudgetExceeded));
    }

    #[test]
    fn por_and_full_exploration_agree_on_findings() {
        // Same race fixture, with and without reduction: identical codes,
        // strictly fewer states under POR.
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("ctl");
            b.compute("pad0", "soft", TimePs::from_us(1));
            b.configure("mod_a", TimePs::from_ms(4));
            b.begin_operator("d1");
            b.configure("mod_a", TimePs::from_ms(4));
            b.compute("eq", "mod_a", TimePs::from_us(1));
            b.send("sink", "m", 8, 1);
            b.begin_operator("sink");
            b.compute("pad1", "soft", TimePs::from_us(1));
            b.receive("d1", "m", 8, 1);
            b.finish()
        };
        let cons = cons_two_regions();
        let pairs = pairs_of(&ir, &table);
        let input = ModelInput {
            ir: &ir,
            table: &table,
            pairs: &pairs,
            constraints: Some(&cons),
        };
        let with_por = check(&input, &ModelConfig::default());
        let without = check(&input, &ModelConfig::default().without_por());
        let codes = |o: &ModelOutcome| -> Vec<&'static str> {
            let mut v: Vec<_> = o.diagnostics.iter().map(|d| d.code.as_str()).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        assert_eq!(codes(&with_por), codes(&without));
        assert!(with_por.stats.states <= without.stats.states);
    }

    #[test]
    fn timing_deadline_violations_split_error_and_warning() {
        let mut arch = ArchGraph::new("t");
        arch.add_operator("d1", pdr_graph::OperatorKind::FpgaStatic)
            .unwrap();
        let mut f = ConstraintsFile::new();
        let mut mc = pdr_graph::constraints::ModuleConstraints::new("mod_a", "d1");
        mc.deadline_us = Some(10);
        f.add(mc).unwrap();

        // Worst case misses (configure 4 ms), best case meets: warning.
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("d1");
            b.configure("mod_a", TimePs::from_ms(4));
            b.compute("eq", "mod_a", TimePs::from_us(1));
            b.finish()
        };
        let ds = check_timing(&ir, &table, &[], &arch, &f);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::TimingViolation);
        assert_eq!(ds[0].severity, crate::diag::Severity::Warning);

        // Even the best case misses (compute alone 20 us): error.
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("d1");
            b.configure("mod_a", TimePs::from_ms(4));
            b.compute("eq", "mod_a", TimePs::from_us(20));
            b.finish()
        };
        let ds = check_timing(&ir, &table, &[], &arch, &f);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].severity, crate::diag::Severity::Error);

        // No deadline: nothing to check.
        let ds = check_timing(&ir, &table, &[], &arch, &ConstraintsFile::new());
        assert!(ds.is_empty());
    }
}
