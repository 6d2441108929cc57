//! The cold Fig. 3 path as one op — `model_digest` → `build_index` →
//! `run_with_index` → `verify` → `DeployedSystem` → `simulate_rtr` — and
//! the `gallery_e2e` / `synthetic_4k` workloads built on it.
//!
//! The timed op calls the public entry points directly. The traced op
//! rebuilds `run_with_index` and `simulate_rtr` from their public parts
//! with a span around each call, and the first traced pass checks that
//! the rebuilt pipeline still produces exactly what the real one does.

use crate::report::{Counters, E2e, Outcome};
use crate::rng::{selection_trace, Rng};
use crate::trace::Tracer;
use crate::{alloc, timed_loop, SETUP_REPS};
use pdr_core::adequation::adequate_with_index;
use pdr_core::adequation::executive::generate_executive;
use pdr_core::codegen::{generate_design, ucf, vhdl, CostModel};
use pdr_core::deploy::{DeployedSystem, RuntimeOptions};
use pdr_core::fabric::Bitstream;
use pdr_core::flow::{DesignFlow, FlowArtifacts};
use pdr_core::gallery::{self, SyntheticParams};
use pdr_core::lint::{model, rendezvous, ModelConfig, Report};
use pdr_core::sim::{IrSimSystem, SimConfig, SimReport};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Simulated iterations per op: enough that the summed `lockup_ms`
/// repeats from seed to seed (within ~3% on the gallery and ~6% on the
/// generated flows over ten seeds), while the 4,096-op flows still spend
/// most of each op outside the simulator.
const GALLERY_SIM_ITERATIONS: u32 = 64;
const SYNTHETIC_SIM_ITERATIONS: u32 = 48;
/// Generated flows in `synthetic_4k`, and their size.
const SYNTHETIC_FLOWS: u64 = 4;
const SYNTHETIC_OPS: usize = 4096;
/// Requests the `rtr.replay` probe issues per op (the selection trace,
/// repeated), so that it runs long enough to time.
const REPLAY_REQUESTS: usize = 65_536;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowWorkload {
    Gallery,
    Synthetic,
}

/// One distinct input: a flow and the selection trace it is simulated on.
pub struct FlowInput {
    pub name: String,
    pub flow: DesignFlow,
    pub sim: SimConfig,
}

/// Everything an op produces that a later op must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutput {
    pub model_digest: u64,
    pub artifact_digest: u64,
    pub makespan_ps: u64,
    pub lint: Report,
    pub sim: SimReport,
}

fn deploy<'a>(flow: &'a DesignFlow, art: &'a FlowArtifacts) -> DeployedSystem<'a> {
    DeployedSystem::new(
        flow.architecture(),
        art,
        flow.device().clone(),
        RuntimeOptions::paper_baseline(),
    )
}

/// The timed op: the cold path through the public entry points.
pub fn cold_op(input: &FlowInput) -> Result<(FlowOutput, FlowArtifacts), String> {
    let flow = &input.flow;
    let model_digest = flow.model_digest();
    let index = flow.build_index().map_err(|e| e.to_string())?;
    let art = flow.run_with_index(&index).map_err(|e| e.to_string())?;
    let lint = flow.verify(&art);
    let sim = deploy(flow, &art)
        .simulate_rtr(&input.sim)
        .map_err(|e| e.to_string())?;
    let out = FlowOutput {
        model_digest,
        artifact_digest: art.digest(),
        makespan_ps: art.adequation.makespan.as_ps(),
        lint,
        sim,
    };
    Ok((out, art))
}

/// Work counters of one traced op, summed over pass 0.
fn count_op(c: &mut Counters, input: &FlowInput, art: &FlowArtifacts, sim: &SimReport) {
    c.add(
        "adequation.ops",
        input.flow.algorithm().ops().count() as f64,
    );
    let transfers: usize = art
        .adequation
        .schedule
        .medium_items
        .values()
        .map(Vec::len)
        .sum();
    c.add("adequation.transfers", transfers as f64);
    let bytes: usize = art
        .design
        .floorplan
        .bitstreams
        .values()
        .map(Bitstream::len_bytes)
        .sum();
    c.add("codegen.bitstream_kb", bytes as f64 / 1024.0);
    c.add("ir.instructions", art.ir_executive.len() as f64);
    c.add("sim.reconfigs", sim.reconfig_count() as f64);
    c.add_all("sim.iterations", f64::from(sim.iterations));
}

/// The traced op: `run_with_index` and `simulate_rtr` rebuilt from their
/// public parts, one span per layer call.
pub fn traced_op(
    input: &FlowInput,
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<(FlowOutput, FlowArtifacts), String> {
    let flow = &input.flow;
    t.span("flowbench.op", |t| {
        let model_digest = t.span("core.model_digest", |_| flow.model_digest());
        let index = t
            .span("adequation.index", |_| flow.build_index())
            .map_err(|e| e.to_string())?;
        let art = t.span("core.run_with_index", |t| rebuilt_run(flow, &index, t))?;
        let lint = t.span("lint.verify", |_| flow.verify(&art));
        let (sim, engine_stats) = t.span("core.simulate_rtr", |t| {
            rebuilt_simulate(&deploy(flow, &art), flow, &art, &input.sim, t)
        })?;
        count_op(c, input, &art, &sim);
        engine_stats.add_to(c);
        let out = FlowOutput {
            model_digest,
            artifact_digest: art.digest(),
            makespan_ps: art.adequation.makespan.as_ps(),
            lint,
            sim,
        };
        Ok((out, art))
    })
}

/// `DesignFlow::run_with_index`, call for call.
fn rebuilt_run(
    flow: &DesignFlow,
    index: &pdr_core::adequation::AdequationIndex,
    t: &mut Tracer,
) -> Result<FlowArtifacts, String> {
    let (algo, arch, chars) = (
        flow.algorithm(),
        flow.architecture(),
        flow.characterization(),
    );
    let constraints = flow.constraints();
    let adequation = t
        .span("adequation.schedule", |_| {
            adequate_with_index(
                algo,
                arch,
                chars,
                constraints,
                flow.adequation_options(),
                index,
            )
        })
        .map_err(|e| e.to_string())?;
    let executive = t
        .span("adequation.executive", |_| {
            generate_executive(algo, arch, chars, &adequation.mapping, &adequation.schedule)
        })
        .map_err(|e| e.to_string())?;
    // Every flow the benchmark runs keeps the default cost model; the
    // composition check catches any flow that does not.
    let design = t
        .span("codegen.design", |_| {
            generate_design(
                algo,
                arch,
                chars,
                constraints,
                &adequation.mapping,
                &executive,
                flow.device(),
                &CostModel::default(),
            )
        })
        .map_err(|e| e.to_string())?;
    let (vhdl_out, ucf_text) = t.span("codegen.emit", |_| {
        let mut out = BTreeMap::new();
        for (name, entity) in &design.entities {
            out.insert(format!("{name}.vhd"), vhdl::emit_entity(entity));
        }
        for module in &design.modules {
            out.insert(
                format!("dyn_{}.vhd", module.module),
                vhdl::emit_module(module),
            );
        }
        (out, ucf::emit_ucf(&design.floorplan))
    });
    let mut symbols = arch.symbols().clone();
    symbols.absorb(algo.symbols());
    let ir_executive = t.span("ir.lower", |_| executive.lower(&mut symbols));
    Ok(FlowArtifacts {
        adequation,
        executive,
        ir_executive,
        symbols,
        constraints_text: constraints.to_string(),
        design,
        vhdl: vhdl_out,
        ucf: ucf_text,
    })
}

/// Engine counters read after a simulation.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    pub requests: u64,
    pub already_loaded: u64,
    pub fetches: u64,
    pub prefetch_hits: u64,
    pub refusals: u64,
}

impl EngineStats {
    pub fn add_to(&self, c: &mut Counters) {
        c.add("rtr.requests", self.requests as f64);
        c.add("rtr.already_loaded", self.already_loaded as f64);
        c.add("rtr.fetches", self.fetches as f64);
        c.add("rtr.prefetch_hits", self.prefetch_hits as f64);
        c.add("rtr.refusals", self.refusals as f64);
    }
}

fn region_names(art: &FlowArtifacts) -> Vec<String> {
    art.design
        .floorplan
        .floorplan
        .regions()
        .iter()
        .map(|r| r.name.clone())
        .collect()
}

/// `DeployedSystem::simulate_rtr`, call for call.
pub fn rebuilt_simulate(
    dep: &DeployedSystem<'_>,
    flow: &DesignFlow,
    art: &FlowArtifacts,
    config: &SimConfig,
    t: &mut Tracer,
) -> Result<(SimReport, EngineStats), String> {
    let engine = t
        .span("rtr.engine_build", |_| dep.rtr_engine())
        .map_err(|e| e.to_string())?;
    t.span("sim.run", |_| {
        let mut sys = IrSimSystem::new(flow.architecture(), &art.ir_executive, &art.symbols);
        let names = region_names(art);
        let bindings: Vec<(&str, &str)> = names.iter().map(|n| (n.as_str(), n.as_str())).collect();
        sys.attach_engine(engine, &bindings);
        let report = sys.run(config).map_err(|e| e.to_string())?;
        let mut stats = EngineStats::default();
        if let Some(engine) = sys.engine() {
            for r in 0..engine.region_count() as u32 {
                let s = engine.stats(r);
                stats.requests += s.requests;
                stats.already_loaded += s.already_loaded;
                stats.fetches += s.fetches;
                stats.prefetch_hits += s.prefetch_hits;
            }
            stats.refusals = engine.refusals();
        }
        Ok((report, stats))
    })
}

/// Probes outside the op: the static bitstream alone, the model checker
/// alone, and the op's selection trace replayed straight into the engine.
pub fn probes(
    input: &FlowInput,
    art: &FlowArtifacts,
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<(), String> {
    let flow = &input.flow;
    t.span("fabric.static_bitstream", |_| {
        black_box(Bitstream::full_for_device(
            black_box(flow.device()),
            black_box(0x57a7_1c00),
        ))
    });
    let stats = t.span("lint.model_check", |_| {
        let pairs = rendezvous::check(&art.ir_executive, &art.symbols).pairs;
        let input = model::ModelInput {
            ir: &art.ir_executive,
            table: &art.symbols,
            pairs: &pairs,
            constraints: Some(flow.constraints()),
        };
        model::check(&input, &ModelConfig::default()).stats
    });
    let requests = replay_probe(&deploy(flow, art), &input.sim, t)?;
    c.add("lint.model_states", stats.states as f64);
    c.add("lint.model_transitions", stats.transitions as f64);
    c.add_all("rtr.replay_requests", requests as f64);
    Ok(())
}

/// Replay `config`'s selections through a fresh engine with
/// `RtrEngine::request`, repeated to about [`REPLAY_REQUESTS`] requests.
/// Returns the requests issued.
pub fn replay_probe(
    dep: &DeployedSystem<'_>,
    config: &SimConfig,
    t: &mut Tracer,
) -> Result<u64, String> {
    let mut engine = dep.rtr_engine().map_err(|e| e.to_string())?;
    // Resolve names to ids up front, as the simulator does.
    let mut plan: Vec<(u32, Vec<u32>)> = Vec::new();
    for (region, modules) in &config.selections {
        let rid = engine
            .region_index(region)
            .ok_or_else(|| format!("no region `{region}`"))?;
        let ids = modules
            .iter()
            .map(|m| {
                engine
                    .module_index(m)
                    .ok_or_else(|| format!("no module `{m}`"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        plan.push((rid, ids));
    }
    let per_round: usize = plan.iter().map(|(_, ids)| ids.len()).sum();
    if per_round == 0 {
        return Ok(0);
    }
    let rounds = REPLAY_REQUESTS.div_ceil(per_round);
    t.span("rtr.replay", |_| {
        let mut now = pdr_core::fabric::TimePs::ZERO;
        for _ in 0..rounds {
            for i in 0..config.iterations as usize {
                for (rid, ids) in &plan {
                    // A refused load (cross-region exclusion) leaves the
                    // clock where it was; the engine counts the refusal.
                    if let Ok(timing) = engine.request(*rid, ids[i], now) {
                        now = timing.ready_at;
                    }
                }
            }
        }
        black_box(&engine);
    });
    Ok((per_round * rounds) as u64)
}

/// Check one warm-up output against the oracles: the pinned Virtex-II
/// digests for gallery flows, and the reference-manager simulator for
/// every `SimReport`.
fn check_oracles(input: &FlowInput, out: &FlowOutput, art: &FlowArtifacts) -> Result<(), String> {
    if let Some((_, pinned)) = pdr_bench::fabric_study::V2_PINNED
        .iter()
        .find(|(n, _)| *n == input.name)
    {
        // The pinned digest covers the gallery flow's own fresh artifacts;
        // the benchmark's must equal those.
        let got = pdr_bench::fabric_study::v2_flow_digest(&input.name);
        let fresh = input.flow.run().map_err(|e| e.to_string())?;
        if got != *pinned || fresh != *art {
            return Err(format!(
                "`{}`: artifacts differ from the pinned digest {pinned:016x}",
                input.name
            ));
        }
    }
    let reference = deploy(&input.flow, art)
        .simulate_ir(&input.sim)
        .map_err(|e| e.to_string())?;
    if reference != out.sim {
        return Err(format!(
            "`{}`: simulate_rtr differs from the reference managers",
            input.name
        ));
    }
    Ok(())
}

/// Model construction: the workload's distinct inputs, from the seed.
fn build_inputs(workload: FlowWorkload, seed: u64) -> Vec<FlowInput> {
    let mut rng = Rng::new(seed);
    let flows: Vec<(String, DesignFlow)> = match workload {
        FlowWorkload::Gallery => gallery::all()
            .into_iter()
            .map(|g| (g.name.to_string(), g.flow))
            .collect(),
        FlowWorkload::Synthetic => (0..SYNTHETIC_FLOWS)
            .map(|i| {
                let params = SyntheticParams {
                    seed: rng.fork(i).next_u64(),
                    ..SyntheticParams::sized(SYNTHETIC_OPS)
                };
                (format!("synthetic_4k#{i}"), gallery::synthetic(&params))
            })
            .collect(),
    };
    let iterations = match workload {
        FlowWorkload::Gallery => GALLERY_SIM_ITERATIONS,
        FlowWorkload::Synthetic => SYNTHETIC_SIM_ITERATIONS,
    };
    let mut inputs: Vec<FlowInput> = flows
        .into_iter()
        .enumerate()
        .map(|(i, (name, flow))| {
            let sim = selection_trace(&mut rng.fork(100 + i as u64), i, &flow, iterations);
            FlowInput { name, flow, sim }
        })
        .collect();
    rng.shuffle(&mut inputs);
    inputs
}

/// Set-up: model construction plus one warm-up op per distinct input.
struct Setup {
    inputs: Vec<FlowInput>,
    warm: Vec<(FlowOutput, FlowArtifacts)>,
}

fn setup(workload: FlowWorkload, seed: u64) -> Result<Setup, String> {
    let inputs = build_inputs(workload, seed);
    let warm = inputs.iter().map(cold_op).collect::<Result<Vec<_>, _>>()?;
    Ok(Setup { inputs, warm })
}

pub fn run(workload: FlowWorkload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut e2e = E2e::default();
    let mut state = None;
    let mut reference: Option<Vec<FlowOutput>> = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        let built = setup(workload, seed);
        e2e.setup_s.push(t0.elapsed().as_secs_f64());
        let Setup { inputs, warm } = match built {
            Ok(s) => s,
            Err(e) => return Outcome::setup_failure(&e),
        };
        // Oracle checks run outside the set-up clock, on the first set-up;
        // every later set-up must reproduce the first one's outputs.
        let outs: Vec<FlowOutput> = warm.iter().map(|(o, _)| o.clone()).collect();
        match &reference {
            None => {
                for (input, (out, art)) in inputs.iter().zip(&warm) {
                    if let Err(e) = check_oracles(input, out, art) {
                        return Outcome::setup_failure(&e);
                    }
                }
                e2e.makespan_us = outs.iter().map(|o| o.makespan_ps as f64 / 1e6).sum();
                e2e.lockup_ms = outs
                    .iter()
                    .map(|o| o.sim.lockup_time().as_ps() as f64 / 1e9)
                    .sum();
                reference = Some(outs);
            }
            Some(first) if *first != outs => {
                return Outcome::setup_failure("set-up outputs differ between repetitions")
            }
            Some(_) => {}
        }
        drop(warm);
        state = Some(inputs);
    }
    let inputs = state.expect("set-up ran");
    let expected = reference.expect("set-up ran");
    if trace {
        return traced(&inputs, &expected, seconds);
    }
    alloc::reset_peak();
    let timed = timed_loop(
        seconds,
        inputs.len(),
        |i| matches!(cold_op(&inputs[i]), Ok((out, _)) if out == expected[i]),
    );
    e2e.peak_mb = alloc::peak_mb();
    e2e.finish(timed)
}

/// The traced run: each pass runs every input once untraced and once
/// traced, so the difference is the tracing overhead.
fn traced(inputs: &[FlowInput], expected: &[FlowOutput], seconds: f64) -> Outcome {
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch);
    let mut c = Counters::default();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let (mut plain_ns, mut traced_ns) = (0u128, 0u128);
    let mut pass = 0u32;
    while pass == 0 || epoch.elapsed().as_secs_f64() < seconds {
        for (i, input) in inputs.iter().enumerate() {
            attempted += 1;
            let t0 = Instant::now();
            let plain = cold_op(input);
            plain_ns += t0.elapsed().as_nanos();
            t.begin_op(attempted, pass);
            c.pass0 = pass == 0;
            let t0 = Instant::now();
            let rebuilt = traced_op(input, &mut t, &mut c);
            traced_ns += t0.elapsed().as_nanos();
            let ok = match (&plain, &rebuilt) {
                (Ok((p, p_art)), Ok((r, r_art))) => {
                    // Composition check: the rebuilt pipeline is the real one.
                    let composed = pass > 0 || (p_art == r_art && p_art.digest() == r_art.digest());
                    composed
                        && *p == expected[i]
                        && *r == expected[i]
                        && probes(input, r_art, &mut t, &mut c).is_ok()
                }
                _ => false,
            };
            if !ok {
                eprintln!("traced op on `{}` failed its check", input.name);
                failed += 1;
            }
        }
        pass += 1;
    }
    c.finish_trace(t.into_spans(), attempted, plain_ns, traced_ns, failed)
}
