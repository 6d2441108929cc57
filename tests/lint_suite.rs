//! Regression and mutation suite for the `pdr-lint` static analyzer.
//!
//! Two directions of evidence:
//!
//! * **soundness on good designs** — every gallery flow, and every
//!   executive generated from a random valid graph, lints clean;
//! * **sensitivity to bad designs** — one targeted mutation per
//!   diagnostic code (PDR001–PDR017), each caught with exactly the
//!   expected code.
//!
//! The model-checker codes (PDR004, PDR013, PDR014) additionally carry
//! schedule witnesses; those are replayed through an independent
//! reference executor and corroborated against the timed simulator.

use pdr_adequation::executive::{generate_executive, MacroInstr};
use pdr_adequation::{adequate, AdequationOptions};
use pdr_core::gallery;
use pdr_core::{DesignFlow, FlowArtifacts};
use pdr_fabric::{Bitstream, BusMacro, BusMacroDirection, Floorplan, ReconfigRegion, TimePs};
use pdr_graph::constraints::{ConstraintsFile, ModuleConstraints};
use pdr_graph::prelude::*;
use pdr_ir::{IrBuilder, SymbolTable};
use pdr_lint::model::{self, ModelInput};
use pdr_lint::{lint_ir, render, rendezvous, replay};
use pdr_lint::{Code, IrLintInput, ModelConfig, RendezvousPair, Report, Severity};
use pdr_sim::{IrSimSystem, SimConfig, SimError};
use proptest::prelude::*;

/// Build and run one gallery flow, returning the flow and its artifacts.
fn built(name: &str) -> (DesignFlow, FlowArtifacts) {
    let g = gallery::by_name(name).expect("gallery flow exists");
    let art = g.flow.run().expect("gallery flow runs");
    (g.flow, art)
}

/// The instruction stream of `operator`, for mutation.
fn stream_mut<'a>(art: &'a mut FlowArtifacts, operator: &str) -> &'a mut Vec<MacroInstr> {
    art.executive
        .per_operator
        .get_mut(operator)
        .expect("operator stream exists")
}

/// Re-lower after mutating the string executive: `DesignFlow::verify`
/// analyzes the index-based twin, so a mutation must land in both forms
/// of the artifact to be observable.
fn relower(art: &mut FlowArtifacts) {
    art.ir_executive = art.executive.lower(&mut art.symbols);
}

// ------------------------------------------------------- clean designs

#[test]
fn every_gallery_flow_lints_clean() {
    for g in gallery::all() {
        let art = g.flow.run().expect("gallery flow runs");
        let report = g.flow.verify(&art);
        assert!(
            report.is_clean(),
            "gallery flow `{}` is not lint-clean:\n{}",
            g.name,
            render::to_text(&report)
        );
    }
}

#[test]
fn run_verified_accepts_every_gallery_flow() {
    for g in gallery::all() {
        g.flow
            .run_verified()
            .unwrap_or_else(|e| panic!("gallery flow `{}` rejected: {e}", g.name));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Executives generated from random valid layered graphs on the paper
    /// platform always lint clean — the generator and the analyzer agree
    /// on what a well-formed executive is.
    #[test]
    fn random_graph_executives_lint_clean(
        layers in 1usize..5,
        width in 1usize..5,
        wcets in prop::collection::vec(1u64..50, 25),
        edge_mask in prop::collection::vec(any::<bool>(), 64),
    ) {
        let arch = pdr_graph::paper::sundance_architecture();
        let mut g = AlgorithmGraph::new("lint_prop");
        let mut chars = Characterization::new();
        let src = g.add_op("src", OpKind::Source).unwrap();
        let mut prev = vec![src];
        let mut mask = edge_mask.iter().cycle();
        let mut wcet = wcets.iter().cycle();
        for l in 0..layers {
            let mut layer = Vec::new();
            for w in 0..width {
                let name = format!("n_{l}_{w}");
                let id = g.add_compute(&name).unwrap();
                let us = *wcet.next().unwrap();
                chars.set_duration(&name, "fpga_static", TimePs::from_us(us));
                chars.set_duration(&name, "dsp", TimePs::from_us(us * 10));
                layer.push(id);
            }
            for (i, &b) in layer.iter().enumerate() {
                g.connect(prev[i % prev.len()], b, 32).unwrap();
                for &a in &prev {
                    if *mask.next().unwrap() && !g.predecessors(b).contains(&a) {
                        g.connect(a, b, 32).unwrap();
                    }
                }
            }
            prev = layer;
        }
        let sink = g.add_op("sink", OpKind::Sink).unwrap();
        for &a in &prev {
            g.connect(a, sink, 32).unwrap();
        }
        let constraints = ConstraintsFile::new();
        let r = adequate(&g, &arch, &chars, &constraints, &AdequationOptions::default()).unwrap();
        let executive =
            generate_executive(&g, &arch, &chars, &r.mapping, &r.schedule).unwrap();
        let mut table = SymbolTable::new();
        let ir = executive.lower(&mut table);
        let report = lint_ir(
            &IrLintInput::new(&ir, &table)
                .with_arch(&arch)
                .with_chars(&chars)
                .with_constraints(&constraints),
        );
        prop_assert!(report.is_clean(), "{}", render::to_text(&report));
    }
}

// ---------------------------------------------------- executive mutations

#[test]
fn dropped_receive_is_pdr001() {
    let (flow, mut art) = built("paper");
    let stream = stream_mut(&mut art, "op_dyn");
    let idx = stream
        .iter()
        .position(|i| matches!(i, MacroInstr::Receive { .. }))
        .expect("op_dyn receives its input");
    stream.remove(idx);
    relower(&mut art);
    let report = flow.verify(&art);
    assert!(report.has_errors());
    assert!(report.has_code(Code::DanglingRendezvous));
}

#[test]
fn swapped_tags_are_pdr002() {
    // Swap the tags of the two sends from fpga_static to op_dyn: each
    // send now pairs with the other's receive, whose payload size differs.
    let (flow, mut art) = built("paper");
    let stream = stream_mut(&mut art, "fpga_static");
    let sends: Vec<usize> = stream
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, MacroInstr::Send { to, .. } if to == "op_dyn"))
        .map(|(idx, _)| idx)
        .collect();
    assert!(sends.len() >= 2, "paper flow has two sends to op_dyn");
    let (a, b) = (sends[0], sends[1]);
    let tag_a = match &stream[a] {
        MacroInstr::Send { tag, .. } => *tag,
        _ => unreachable!(),
    };
    let tag_b = match &stream[b] {
        MacroInstr::Send { tag, .. } => *tag,
        _ => unreachable!(),
    };
    if let MacroInstr::Send { tag, .. } = &mut stream[a] {
        *tag = tag_b;
    }
    if let MacroInstr::Send { tag, .. } = &mut stream[b] {
        *tag = tag_a;
    }
    relower(&mut art);
    let report = flow.verify(&art);
    assert!(report.has_errors());
    assert!(report.has_code(Code::RendezvousMismatch));
}

#[test]
fn duplicated_tag_is_pdr003() {
    // Give fpga_static's second receive-from-dsp the tag of its first:
    // the same operator now uses one tag twice.
    let (flow, mut art) = built("paper");
    let stream = stream_mut(&mut art, "fpga_static");
    let recvs: Vec<usize> = stream
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, MacroInstr::Receive { from, .. } if from == "dsp"))
        .map(|(idx, _)| idx)
        .collect();
    assert!(recvs.len() >= 2, "paper flow receives twice from the dsp");
    let first_tag = match &stream[recvs[0]] {
        MacroInstr::Receive { tag, .. } => *tag,
        _ => unreachable!(),
    };
    if let MacroInstr::Receive { tag, .. } = &mut stream[recvs[1]] {
        *tag = first_tag;
    }
    relower(&mut art);
    let report = flow.verify(&art);
    assert!(report.has_errors());
    assert!(report.has_code(Code::DuplicateTag));
}

#[test]
fn crossed_rendezvous_order_is_pdr004_with_witness_trace() {
    // Reverse the order of op_dyn's two receives: fpga_static sends the
    // first tag while op_dyn waits for the second — a two-party cycle.
    let (flow, mut art) = built("paper");
    let stream = stream_mut(&mut art, "op_dyn");
    let recvs: Vec<usize> = stream
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, MacroInstr::Receive { .. }))
        .map(|(idx, _)| idx)
        .collect();
    assert!(recvs.len() >= 2, "op_dyn receives data and selector");
    stream.swap(recvs[0], recvs[1]);
    relower(&mut art);
    let report = flow.verify(&art);
    assert!(report.has_errors());
    assert!(report.has_code(Code::Deadlock));
    // Every tag still pairs up: the defect is purely one of ordering.
    assert!(!report.has_code(Code::DanglingRendezvous));
    assert!(!report.has_code(Code::RendezvousMismatch));
    // The diagnostic carries the cyclic wait-for witness, one hop per note.
    let deadlocks = report.with_code(Code::Deadlock);
    assert!(
        deadlocks[0].notes.len() >= 2,
        "witness trace covers the cycle"
    );
    assert!(deadlocks[0].notes.iter().any(|n| n.contains("blocks on")));
}

#[test]
fn removed_configure_is_pdr005() {
    let (flow, mut art) = built("paper");
    let stream = stream_mut(&mut art, "op_dyn");
    let idx = stream
        .iter()
        .position(|i| matches!(i, MacroInstr::Configure { .. }))
        .expect("op_dyn configures its module");
    stream.remove(idx);
    relower(&mut art);
    let report = flow.verify(&art);
    assert!(report.has_errors());
    assert!(report.has_code(Code::UnconfiguredCompute));
}

#[test]
fn perturbed_worst_case_is_pdr006() {
    let (flow, mut art) = built("paper");
    let stream = stream_mut(&mut art, "op_dyn");
    let idx = stream
        .iter()
        .position(|i| matches!(i, MacroInstr::Configure { .. }))
        .expect("op_dyn configures its module");
    if let MacroInstr::Configure { worst_case, .. } = &mut stream[idx] {
        *worst_case += TimePs::from_ms(1);
    }
    relower(&mut art);
    let report = flow.verify(&art);
    assert!(report.has_code(Code::WcetMismatch));
    // A stale worst-case is a warning: it only gates under --deny-warnings.
    assert!(!report.has_errors());
    assert!(report.fails(true));
    assert!(!report.fails(false));
}

#[test]
fn cross_region_exclusion_is_pdr007() {
    // Declare the two preloaded SDR modules mutually exclusive even
    // though they live in different regions. Both are configured once and
    // never released, so no rendezvous chain can order the residencies.
    let g = gallery::by_name("two_regions").expect("gallery flow");
    let art = g.flow.run().expect("flow runs");
    let mut constraints = ConstraintsFile::new();
    for (module, region) in [
        ("fir_narrow", "d1"),
        ("fir_wide", "d1"),
        ("dec_viterbi", "d2"),
        ("dec_turbo", "d2"),
    ] {
        let mut mc = ModuleConstraints::new(module, region);
        if module == "fir_wide" {
            mc.exclusive_with = vec!["dec_turbo".to_string()];
        }
        constraints.add(mc).expect("unique module names");
    }
    let arch = gallery::sdr_architecture();
    let chars = gallery::sdr_characterization();
    let report = lint_ir(
        &IrLintInput::new(&art.ir_executive, &art.symbols)
            .with_arch(&arch)
            .with_chars(&chars)
            .with_constraints(&constraints),
    );
    assert!(report.has_errors());
    assert!(report.has_code(Code::ExclusionViolable));
    let notes = &report.with_code(Code::ExclusionViolable)[0].notes;
    assert!(!notes.is_empty(), "PDR007 explains both residency spans");
}

// ---------------------------------------------------- floorplan mutations

#[test]
fn shrunk_region_is_pdr008() {
    let (flow, mut art) = built("paper");
    let fp = &art.design.floorplan.floorplan;
    let mut regions = fp.regions().to_vec();
    regions[0].clb_col_width = 1; // below the four-slice minimum
    art.design.floorplan.floorplan =
        Floorplan::from_parts(fp.device.clone(), regions, fp.bus_macros().to_vec());
    let report = flow.verify(&art);
    assert!(report.has_errors());
    assert!(report.has_code(Code::RegionGeometry));
}

#[test]
fn overlapping_regions_are_pdr009() {
    let (flow, mut art) = built("two_regions");
    let fp = &art.design.floorplan.floorplan;
    let mut regions = fp.regions().to_vec();
    assert!(regions.len() >= 2, "two-region flow places two regions");
    regions[1].clb_col_start = regions[0].clb_col_start;
    art.design.floorplan.floorplan =
        Floorplan::from_parts(fp.device.clone(), regions, fp.bus_macros().to_vec());
    let report = flow.verify(&art);
    assert!(report.has_errors());
    assert!(report.has_code(Code::RegionOverlap));
}

#[test]
fn stray_bus_macro_is_pdr010() {
    let (flow, mut art) = built("paper");
    let fp = &art.design.floorplan.floorplan;
    let region = &fp.regions()[0];
    // A column strictly inside the static part, far from any boundary.
    let stray_col = region.clb_col_end() + 10;
    let mut bus_macros = fp.bus_macros().to_vec();
    bus_macros.push(BusMacro::new(0, stray_col, BusMacroDirection::IntoRegion));
    art.design.floorplan.floorplan =
        Floorplan::from_parts(fp.device.clone(), fp.regions().to_vec(), bus_macros);
    let report = flow.verify(&art);
    assert!(report.has_errors());
    assert!(report.has_code(Code::BusMacroPlacement));
}

#[test]
fn mis_sized_bitstream_is_pdr011() {
    // Replace a module's partial bitstream with one generated for a wider
    // window: right region name, wrong frame count.
    let (flow, mut art) = built("paper");
    let device = flow.device().clone();
    let wide = ReconfigRegion::new("op_dyn", 26, 8).expect("legal region shape");
    let bogus = Bitstream::partial_for_region(&device, &wide, 42);
    art.design
        .floorplan
        .bitstreams
        .insert("mod_qpsk".to_string(), bogus);
    let report = flow.verify(&art);
    assert!(report.has_errors());
    assert!(report.has_code(Code::BitstreamSize));
}

#[test]
fn unknown_configured_module_is_pdr012() {
    let (flow, mut art) = built("paper");
    let stream = stream_mut(&mut art, "op_dyn");
    let idx = stream
        .iter()
        .position(|i| matches!(i, MacroInstr::Configure { .. }))
        .expect("op_dyn configures its module");
    if let MacroInstr::Configure { module, .. } = &mut stream[idx] {
        *module = "ghost_module".to_string();
    }
    relower(&mut art);
    let report = flow.verify(&art);
    assert!(report.has_code(Code::UnknownModule));
}

// ------------------------------------------------- model-checker mutations

/// Append a configure of `mod_qam16` to the dsp stream: nothing orders it
/// against `op_dyn`'s compute of the module, so some interleaving rewrites
/// the region mid-computation.
fn mutate_race(art: &mut FlowArtifacts) {
    stream_mut(art, "dsp").push(MacroInstr::Configure {
        module: "mod_qam16".to_string(),
        // Long enough that the simulated reconfiguration window overlaps
        // op_dyn's compute (the model finding itself is time-independent).
        worst_case: TimePs::from_ms(10),
    });
    relower(art);
}

/// Insert a configure of `mod_qpsk` between `op_dyn`'s compute and its
/// result send: the handed-off datum was produced by a module its region
/// no longer holds.
fn mutate_stale(art: &mut FlowArtifacts) {
    let stream = stream_mut(art, "op_dyn");
    let send_at = stream
        .iter()
        .position(|i| matches!(i, MacroInstr::Send { .. }))
        .expect("op_dyn sends its result");
    stream.insert(
        send_at,
        MacroInstr::Configure {
            module: "mod_qpsk".to_string(),
            // The characterized reconfiguration time for this region: the
            // mutation is clean for every pass except the model checker.
            worst_case: TimePs::from_ms(4),
        },
    );
    relower(art);
}

/// Swap `op_dyn`'s two receives: the classic two-party rendezvous cycle.
fn mutate_deadlock(art: &mut FlowArtifacts) {
    let stream = stream_mut(art, "op_dyn");
    let recvs: Vec<usize> = stream
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, MacroInstr::Receive { .. }))
        .map(|(idx, _)| idx)
        .collect();
    assert!(recvs.len() >= 2, "op_dyn receives data and selector");
    stream.swap(recvs[0], recvs[1]);
    relower(art);
}

/// Model-check a mutated artifact directly, handing back the witnesses
/// plus the rendezvous pairs the replayers need.
fn model_check_art(
    flow: &DesignFlow,
    art: &FlowArtifacts,
) -> (Vec<model::Witness>, Vec<RendezvousPair>) {
    let rv = rendezvous::check(&art.ir_executive, &art.symbols);
    assert!(rv.diagnostics.is_empty(), "{:?}", rv.diagnostics);
    let out = model::check(
        &ModelInput {
            ir: &art.ir_executive,
            table: &art.symbols,
            pairs: &rv.pairs,
            constraints: Some(flow.constraints()),
        },
        &ModelConfig::default(),
    );
    (out.witnesses, rv.pairs)
}

#[test]
fn concurrent_configure_is_pdr013() {
    let (flow, mut art) = built("paper");
    mutate_race(&mut art);
    let report = flow.verify(&art);
    assert!(report.has_errors());
    assert!(report.has_code(Code::ReconfigRace));
    // The diagnostic carries the interleaving that reaches the race.
    let races = report.with_code(Code::ReconfigRace);
    assert!(races[0]
        .notes
        .iter()
        .any(|n| n.contains("witness schedule")));
}

#[test]
fn stale_handoff_is_pdr014() {
    let (flow, mut art) = built("paper");
    mutate_stale(&mut art);
    let report = flow.verify(&art);
    assert!(report.has_errors());
    assert!(report.has_code(Code::UseAfterReconfigure));
    // The inserted configure is characterization-clean (right region,
    // characterized worst case): only the model checker sees the defect.
    assert!(!report.has_code(Code::WcetMismatch));
    assert!(!report.has_code(Code::UnknownModule));
}

/// Rebuild `flow`'s constraints with a §4 deadline on `module`.
fn with_deadline(flow: &DesignFlow, module: &str, deadline_us: u64) -> DesignFlow {
    let mut cons = ConstraintsFile::new();
    for mc in flow.constraints().modules() {
        let mut mc = mc.clone();
        if mc.module == module {
            mc.deadline_us = Some(deadline_us);
        }
        cons.add(mc).expect("modules stay unique");
    }
    flow.clone().with_constraints(cons)
}

#[test]
fn missed_deadline_is_pdr015() {
    let (flow, art) = built("paper");
    // 1 µs: even the best case (every reconfiguration hidden by
    // prefetching) misses it — an error.
    let report = with_deadline(&flow, "mod_qam16", 1).verify(&art);
    assert!(report.has_code(Code::TimingViolation));
    assert!(report.has_errors());
    // 2 ms: met when prefetching hides the 4 ms reconfiguration, missed
    // when it does not — a warning.
    let report = with_deadline(&flow, "mod_qam16", 2_000).verify(&art);
    assert!(report.has_code(Code::TimingViolation));
    assert!(!report.has_errors());
    assert!(report.count(Severity::Warning) >= 1);
    // 1 s: comfortably met either way.
    let report = with_deadline(&flow, "mod_qam16", 1_000_000).verify(&art);
    assert!(report.is_clean(), "{}", render::to_text(&report));
}

#[test]
fn dead_code_behind_a_deadlock_is_pdr016() {
    let (flow, mut art) = built("paper");
    mutate_deadlock(&mut art);
    let report = flow.verify(&art);
    assert!(report.has_code(Code::Deadlock));
    // The instructions behind the blocked rendezvous can never execute in
    // any interleaving.
    assert!(report.has_code(Code::UnreachableInstr));
}

#[test]
fn exhausted_state_budget_is_pdr017() {
    let (flow, art) = built("paper");
    let report = flow.verify_with(&art, ModelConfig::default().with_max_states(4));
    assert!(report.has_code(Code::StateBudgetExceeded));
    // Truncation is honest: no defect is invented, and PDR016 stays
    // silent because reachability was not fully explored.
    assert!(!report.has_errors());
    assert!(!report.has_code(Code::UnreachableInstr));
}

/// Every witness the model checker emits for the PDR004/PDR013/PDR014
/// mutations replays through the independent reference executor and is
/// corroborated by the timed simulator.
#[test]
fn model_witnesses_replay_and_confirm_in_sim() {
    type Mutation = fn(&mut FlowArtifacts);
    let cases: [(&str, Code, Mutation); 3] = [
        ("deadlock", Code::Deadlock, mutate_deadlock),
        ("race", Code::ReconfigRace, mutate_race),
        ("stale", Code::UseAfterReconfigure, mutate_stale),
    ];
    for (name, code, mutate) in cases {
        let (flow, mut art) = built("paper");
        mutate(&mut art);
        let (witnesses, pairs) = model_check_art(&flow, &art);
        let matching: Vec<&model::Witness> = witnesses.iter().filter(|w| w.code == code).collect();
        assert!(!matching.is_empty(), "{name}: no {code:?} witness");
        for w in matching {
            replay::replay_witness(
                &art.ir_executive,
                &art.symbols,
                &pairs,
                Some(flow.constraints()),
                w,
            )
            .unwrap_or_else(|e| panic!("{name}: replay rejected the witness: {e}"));
            replay::confirm_in_sim(flow.architecture(), &art.ir_executive, &art.symbols, w)
                .unwrap_or_else(|e| panic!("{name}: simulator contradicts the witness: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential test: on random executives over the paper platform,
    /// the model checker's deadlock verdict agrees with the timed
    /// simulator — model-clean executives simulate to completion, and
    /// model-reported deadlocks deadlock the simulator. Deadlock
    /// witnesses also replay.
    #[test]
    fn model_deadlock_verdict_matches_simulator(
        events in prop::collection::vec(
            (0usize..2, any::<bool>(), any::<u64>(), any::<u64>()), 0..10),
    ) {
        // Rendezvous restricted to the sundance links: dsp—fpga_static
        // over shb, fpga_static—op_dyn over lio. Per-endpoint keys order
        // each stream's communications independently, which is exactly
        // what produces (or avoids) cyclic waits.
        let stream_names = ["dsp", "fpga_static", "op_dyn"];
        let media = ["shb", "lio"];
        struct Ep { key: u64, tag: u32, is_send: bool, peer: usize, medium: usize }
        let mut eps: [Vec<Ep>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, &(ch, dir, ka, kb)) in events.iter().enumerate() {
            let tag = (i + 1) as u32;
            let (a, b) = if ch == 0 { (0, 1) } else { (1, 2) };
            let sender = if dir { a } else { b };
            eps[a].push(Ep { key: ka, tag, is_send: sender == a, peer: b, medium: ch });
            eps[b].push(Ep { key: kb, tag, is_send: sender == b, peer: a, medium: ch });
        }
        for list in &mut eps {
            list.sort_by_key(|e| (e.key, e.tag));
        }
        let mut table = SymbolTable::new();
        let ir = {
            let mut bld = IrBuilder::new(&mut table);
            for (s, name) in stream_names.iter().enumerate() {
                bld.begin_operator(name);
                bld.compute("pad", "soft", TimePs::from_us(1));
                for e in &eps[s] {
                    if e.is_send {
                        bld.send(stream_names[e.peer], media[e.medium], 32, e.tag);
                    } else {
                        bld.receive(stream_names[e.peer], media[e.medium], 32, e.tag);
                    }
                }
            }
            bld.finish()
        };
        let rv = rendezvous::check(&ir, &table);
        prop_assert!(rv.diagnostics.is_empty(), "{:?}", rv.diagnostics);
        let out = model::check(
            &ModelInput { ir: &ir, table: &table, pairs: &rv.pairs, constraints: None },
            &ModelConfig::default(),
        );
        let model_deadlock = out.diagnostics.iter().any(|d| d.code == Code::Deadlock);
        if let Some(w) = out.witnesses.iter().find(|w| w.code == Code::Deadlock) {
            let r = replay::replay_witness(&ir, &table, &rv.pairs, None, w);
            prop_assert!(r.is_ok(), "witness replay failed: {r:?}");
        }
        let arch = pdr_graph::paper::sundance_architecture();
        let mut sys = IrSimSystem::new(&arch, &ir, &table);
        match sys.run(&SimConfig::iterations(1)) {
            Ok(_) => prop_assert!(
                !model_deadlock,
                "model reports a deadlock the simulator does not hit"
            ),
            Err(SimError::Deadlock { .. }) => prop_assert!(
                model_deadlock,
                "simulator deadlocks but the model says clean"
            ),
            Err(other) => prop_assert!(false, "unexpected simulator error: {other}"),
        }
    }

    /// The analyzer never panics on adversarial executives: unmatched and
    /// duplicated tags, sends to nonexistent operators, configures of
    /// unknown modules, and a constraints file whose names half-overlap
    /// the executive's. Both the full `lint_ir` front door and the
    /// explorer called directly (with pairs from a *dirty* rendezvous
    /// pass) must degrade to diagnostics, not panics.
    #[test]
    fn adversarial_executives_never_panic(
        instrs in prop::collection::vec(
            (0u8..4, 0usize..4, 0u32..6, 1u64..200), 0..24),
        streams in 1usize..4,
        cons_mods in prop::collection::vec((0usize..4, 0usize..3), 0..6),
    ) {
        let modules = ["mod_x", "mod_y", "s0", "ghost"];
        let regions = ["r0", "r1", "s0"];
        let mut cons = ConstraintsFile::new();
        for &(m, r) in &cons_mods {
            // Duplicate module names are rejected by `add`; that is fine.
            let _ = cons.add(ModuleConstraints::new(modules[m], regions[r]));
        }
        let mut table = SymbolTable::new();
        let ir = {
            let mut bld = IrBuilder::new(&mut table);
            for s in 0..streams {
                bld.begin_operator(&format!("s{s}"));
                for (i, &(kind, x, tag, dur)) in instrs.iter().enumerate() {
                    if i % streams != s {
                        continue;
                    }
                    match kind {
                        0 => bld.compute("op", modules[x], TimePs::from_us(dur)),
                        1 => bld.configure(modules[x], TimePs::from_us(dur)),
                        2 => bld.send(&format!("s{x}"), "m", dur, tag),
                        _ => bld.receive(&format!("s{x}"), "m", dur, tag),
                    }
                }
            }
            bld.finish()
        };
        let budget = ModelConfig::default().with_max_states(2_000);
        let _ = lint_ir(
            &IrLintInput::new(&ir, &table)
                .with_constraints(&cons)
                .with_model_check(budget),
        );
        let rv = rendezvous::check(&ir, &table);
        let _ = model::check(
            &ModelInput { ir: &ir, table: &table, pairs: &rv.pairs, constraints: Some(&cons) },
            &budget,
        );
    }
}

// -------------------------------------------------------------- coverage

/// Every diagnostic code the analyzer defines is exercised by a mutation
/// in this suite — adding a code without a mutation test fails here.
#[test]
fn all_codes_have_mutation_coverage() {
    let covered = [
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
    assert_eq!(covered.len(), Code::ALL.len());
    for code in Code::ALL {
        assert!(covered.contains(&code), "no mutation test for {code:?}");
    }
}

/// Mutations leave the text renderer with something meaningful to say:
/// the rendered report names the code and the location.
#[test]
fn rendered_mutation_report_names_code_and_location() {
    let (flow, mut art) = built("paper");
    let stream = stream_mut(&mut art, "op_dyn");
    let idx = stream
        .iter()
        .position(|i| matches!(i, MacroInstr::Receive { .. }))
        .expect("op_dyn receives its input");
    stream.remove(idx);
    relower(&mut art);
    let report = flow.verify(&art);
    let text = render::to_text(&report);
    assert!(text.contains("PDR001"), "{text}");
    assert!(text.contains("error"), "{text}");
    let _report_is_reusable: &Report = &report;
}
