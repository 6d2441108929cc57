//! `runtime_replay`: nothing compiles in the timed phase. Set-up compiles
//! five flows and deploys each under eight runtime policies; every op
//! simulates one kept deployment on its seeded selection trace, so the
//! runtime manager (`rtr`) and the interpreter (`sim`) do all the work.

use crate::flow::{rebuilt_simulate, replay_probe};
use crate::report::{Counters, E2e, Outcome};
use crate::rng::{selection_trace, Rng};
use crate::trace::Tracer;
use crate::{alloc, timed_loop, SETUP_REPS};
use pdr_core::deploy::{DeployedSystem, EvictionChoice, PrefetchChoice, RuntimeOptions};
use pdr_core::flow::{DesignFlow, FlowArtifacts};
use pdr_core::gallery;
use pdr_core::sim::{SimConfig, SimReport};
use std::time::Instant;

const FLOWS: &[&str] = &[
    "paper",
    "two_regions",
    "two_regions_xc2v4000",
    "synthetic_large",
    "sdr_series7",
];

/// Trace length per flow, scaled so that ops cost about the same: long
/// traces on the small flows, short ones on the 518-op flow.
fn iterations(flow: &DesignFlow) -> u32 {
    if flow.algorithm().ops().count() > 100 {
        128
    } else {
        1024
    }
}

/// Iterations of each trace the reference managers replay.
const ORACLE_ITERATIONS: u32 = 32;

/// The first `n` iterations of `sim`.
fn prefix(sim: &SimConfig, n: u32) -> SimConfig {
    let n = n.min(sim.iterations);
    let mut head = SimConfig::iterations(n);
    for (region, seq) in &sim.selections {
        head = head.with_selection(region, seq[..n as usize].to_vec());
    }
    head
}

struct Compiled {
    flow: DesignFlow,
    art: FlowArtifacts,
    sim: SimConfig,
}

/// The runtime policies every flow is deployed under: four prefetchers
/// × two staging-cache eviction policies, with a one-module staging
/// cache so that only prefetching can hide a fetch.
fn policies(load_sequence: &[String]) -> Vec<RuntimeOptions> {
    let prefetchers = [
        PrefetchChoice::None,
        PrefetchChoice::ScheduleDriven(load_sequence.to_vec()),
        PrefetchChoice::LastValue,
        PrefetchChoice::Markov,
    ];
    let mut out = Vec::new();
    for eviction in [EvictionChoice::Lru, EvictionChoice::Lfu] {
        for prefetch in &prefetchers {
            out.push(RuntimeOptions {
                cache_modules: 1,
                prefetch: prefetch.clone(),
                eviction,
                ..RuntimeOptions::default()
            });
        }
    }
    out
}

/// The load sequence a schedule-driven prefetcher is given: the first
/// region's selections with repeats collapsed (the paper's off-line
/// setting, where the reconfiguration order is known in advance).
fn load_sequence(sim: &SimConfig) -> Vec<String> {
    let mut seq: Vec<String> = Vec::new();
    if let Some(first) = sim.selections.values().next() {
        for m in first {
            if seq.last() != Some(m) {
                seq.push(m.clone());
            }
        }
    }
    seq
}

fn compile(seed: u64) -> Result<Vec<Compiled>, String> {
    let mut rng = Rng::new(seed);
    FLOWS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let flow = gallery::by_name(name)
                .ok_or_else(|| format!("no gallery flow `{name}`"))?
                .flow;
            let art = flow.run().map_err(|e| e.to_string())?;
            let sim = selection_trace(&mut rng.fork(i as u64), i, &flow, iterations(&flow));
            Ok(Compiled { flow, art, sim })
        })
        .collect()
}

fn deploy_all(compiled: &[Compiled]) -> Vec<(usize, DeployedSystem<'_>)> {
    let mut deps = Vec::new();
    for (i, c) in compiled.iter().enumerate() {
        for options in policies(&load_sequence(&c.sim)) {
            let dep = DeployedSystem::new(
                c.flow.architecture(),
                &c.art,
                c.flow.device().clone(),
                options,
            );
            deps.push((i, dep));
        }
    }
    deps
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut e2e = E2e::default();
    let mut reference: Option<Vec<SimReport>> = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let compiled = match compile(seed) {
            Ok(c) => c,
            Err(e) => return Outcome::setup_failure(&e),
        };
        let mut deps = deploy_all(&compiled);
        let warm: Result<Vec<SimReport>, String> = deps
            .iter()
            .map(|(i, d)| d.simulate_rtr(&compiled[*i].sim).map_err(|e| e.to_string()))
            .collect();
        e2e.setup_s.push(t0.elapsed().as_secs_f64());
        let warm = match warm {
            Ok(w) => w,
            Err(e) => return Outcome::setup_failure(&e),
        };
        match &reference {
            None => {
                // Oracle: the reference managers must agree with the engine.
                // They are far slower per reconfiguration, so they replay
                // the head of each trace; set-up repetitions and timed ops
                // must then reproduce the engine's full-trace reports.
                for (i, d) in &deps {
                    let head = prefix(&compiled[*i].sim, ORACLE_ITERATIONS);
                    match (d.simulate_ir(&head), d.simulate_rtr(&head)) {
                        (Ok(r), Ok(e)) if r == e => {}
                        _ => {
                            return Outcome::setup_failure(&format!(
                                "`{}`: simulate_rtr differs from the reference managers",
                                FLOWS[*i]
                            ))
                        }
                    }
                }
                e2e.makespan_us = compiled
                    .iter()
                    .map(|c| c.art.adequation.makespan.as_ps() as f64 / 1e6)
                    .sum();
                e2e.lockup_ms = warm
                    .iter()
                    .map(|r| r.lockup_time().as_ps() as f64 / 1e9)
                    .sum();
                reference = Some(warm);
            }
            Some(first) if *first != warm => {
                return Outcome::setup_failure("set-up outputs differ between repetitions")
            }
            Some(_) => {}
        }
        if rep + 1 < SETUP_REPS {
            continue;
        }
        let expected = reference.take().expect("set-up ran");
        // Ops visit the deployments in seeded order.
        let mut order: Vec<usize> = (0..deps.len()).collect();
        Rng::new(seed ^ 0x5e1ec7).shuffle(&mut order);
        let mut slots: Vec<Option<_>> = deps.into_iter().map(Some).collect();
        deps = order
            .iter()
            .map(|&k| slots[k].take().expect("a permutation"))
            .collect();
        let expected: Vec<SimReport> = order.iter().map(|&k| expected[k].clone()).collect();
        if trace {
            return traced(&compiled, &deps, &expected, seconds);
        }
        alloc::reset_peak();
        let timed = timed_loop(seconds, deps.len(), |k| {
            let (i, d) = &deps[k];
            matches!(d.simulate_rtr(&compiled[*i].sim), Ok(r) if r == expected[k])
        });
        e2e.peak_mb = alloc::peak_mb();
        return e2e.finish(timed);
    }
    unreachable!("SETUP_REPS is at least one")
}

fn traced(
    compiled: &[Compiled],
    deps: &[(usize, DeployedSystem<'_>)],
    expected: &[SimReport],
    seconds: f64,
) -> Outcome {
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch);
    let mut c = Counters::default();
    let (mut failed, mut attempted) = (0u64, 0u64);
    let (mut plain_ns, mut traced_ns) = (0u128, 0u128);
    let mut pass = 0u32;
    while pass == 0 || epoch.elapsed().as_secs_f64() < seconds {
        c.pass0 = pass == 0;
        for (k, (i, dep)) in deps.iter().enumerate() {
            let comp = &compiled[*i];
            attempted += 1;
            let t0 = Instant::now();
            let plain = dep.simulate_rtr(&comp.sim);
            plain_ns += t0.elapsed().as_nanos();
            t.begin_op(attempted, pass);
            let t0 = Instant::now();
            let rebuilt = t.span("core.simulate_rtr", |t| {
                rebuilt_simulate(dep, &comp.flow, &comp.art, &comp.sim, t)
            });
            traced_ns += t0.elapsed().as_nanos();
            let ok = match (plain, rebuilt) {
                (Ok(p), Ok((r, stats))) => {
                    stats.add_to(&mut c);
                    c.add("sim.reconfigs", r.reconfig_count() as f64);
                    c.add_all("sim.iterations", f64::from(r.iterations));
                    p == expected[k] && r == expected[k]
                }
                _ => false,
            };
            let replayed = replay_probe(dep, &comp.sim, &mut t);
            let ok = ok && replayed.is_ok();
            if let Ok(n) = replayed {
                c.add_all("rtr.replay_requests", n as f64);
            }
            if !ok {
                eprintln!("traced op on `{}` failed its check", FLOWS[*i]);
                failed += 1;
            }
        }
        pass += 1;
    }
    c.finish_trace(t.into_spans(), attempted, plain_ns, traced_ns, failed)
}
