//! `serve_mix`: two closed-loop clients drive an in-process `Server` with
//! two workers through `Server::handle_line` — rendered JSON lines in,
//! rendered JSON lines out, no TCP.
//!
//! Each request carries a constraints override that flips the load and
//! unload policies of the flow's modules. The two clients draw override
//! variants from disjoint halves of the variant space, so they never
//! share a content key. Each client sends the same mix every episode —
//! per flow three compiles, three verifies and three simulates with fresh
//! overrides — plus twelve repeats of its own earlier content, in seeded
//! order. The cache state of every request is therefore fixed by the
//! seed, and the benchmark checks it. Because no content is shared,
//! single-flight coalescing is never exercised.
//!
//! The timed phase is a series of episodes. Each starts a fresh server,
//! warms its shared index pool with one base compile per index (untimed),
//! then runs both clients' seeded request sequences to completion.

use crate::report::{quantile, Counters, E2e, Outcome, Timed};
use crate::rng::Rng;
use crate::trace::{Span, Tracer};
use crate::{alloc, MIN_OPS, SETUP_REPS};
use pdr_core::flow::DesignFlow;
use pdr_core::gallery;
use pdr_core::graph::ConstraintsFile;
use pdr_server::compute;
use pdr_server::protocol::{parse_line, Command};
use pdr_server::{CacheState, Metrics, Request, RequestKind, Response, Server, ServerConfig};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// The gallery flows with dynamic modules.
const FLOWS: &[&str] = &[
    "paper",
    "two_regions",
    "two_regions_xc2v4000",
    "synthetic_large",
    "sdr_series7",
];
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Never reached: each client has at most one request outstanding.
const QUEUE_LIMIT: usize = 64;
/// Fresh requests per client per episode, per flow: compile, verify,
/// simulate in equal shares, as in `pdr_bench::server_study::workload`.
const KIND_MIX: [usize; 3] = [3, 3, 3];
/// Requests per client per episode that repeat the client's own earlier
/// content, about a fifth of all. An assumption: no measured request
/// stream backs this share.
const REPEATS: usize = 12;
/// Requests per client per episode.
const EPISODE_REQUESTS: usize = FLOWS.len() * (KIND_MIX[0] + KIND_MIX[1] + KIND_MIX[2]) + REPEATS;
const SIM_ITERATIONS: u32 = 32;

/// One distinct request content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Content {
    kind: usize,
    flow: usize,
    variant: u64,
}

impl Content {
    /// The iteration count the server keys this content on: the protocol
    /// sends none for compile and verify, which then default to 64.
    fn iterations(&self) -> u32 {
        if KINDS[self.kind] == RequestKind::Simulate {
            SIM_ITERATIONS
        } else {
            64
        }
    }
}

const KINDS: [RequestKind; 3] = [
    RequestKind::Compile,
    RequestKind::Verify,
    RequestKind::Simulate,
];

/// Flip the load (bit 2i) and unload (bit 2i+1) policy of module i.
fn variant_text(base: &str, variant: u64) -> String {
    let mut module = usize::MAX;
    let mut out = String::new();
    for line in base.lines() {
        if line.starts_with("[module") {
            module = module.wrapping_add(1);
        }
        let bit = |b: usize| module < 32 && variant >> (2 * module + b) & 1 == 1;
        let line = match line {
            "load = at_start" if bit(0) => "load = on_demand",
            "load = on_demand" if bit(0) => "load = at_start",
            "unload = explicit" if bit(1) => "unload = evict",
            "unload = evict" if bit(1) => "unload = explicit",
            other => other,
        };
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Everything the seed fixes: the distinct contents, their request lines
/// and cache keys, and each client's request sequence with the cache
/// state every request must see.
struct Plan {
    base: Vec<DesignFlow>,
    contents: Vec<Content>,
    texts: Vec<String>,
    /// Per client: (content index, rendered request line, expected state).
    clients: Vec<Vec<(usize, String, CacheState)>>,
}

impl Plan {
    fn build(seed: u64) -> Result<Plan, String> {
        let base: Vec<DesignFlow> = FLOWS
            .iter()
            .map(|n| {
                gallery::by_name(n)
                    .map(|g| g.flow)
                    .ok_or_else(|| format!("no gallery flow `{n}`"))
            })
            .collect::<Result<_, _>>()?;
        let module_counts: Vec<usize> = base
            .iter()
            .map(|f| f.constraints().modules().len())
            .collect();
        let mut contents = Vec::new();
        let mut rng = Rng::new(seed);
        let mut sequences = Vec::new();
        for c in 0..CLIENTS {
            let mut crng = rng.fork(c as u64);
            // The same (kind, flow) slots for every client and seed, in
            // seeded order, each with a fresh variant from the client's
            // half: the seed moves order and variants, not the mix.
            let mut slots: Vec<(usize, usize)> = (0..FLOWS.len())
                .flat_map(|f| {
                    KIND_MIX
                        .iter()
                        .enumerate()
                        .flat_map(move |(k, &n)| (0..n).map(move |_| (k, f)))
                })
                .collect();
            crng.shuffle(&mut slots);
            let mut seq: Vec<usize> = Vec::new();
            let mut used = HashSet::new();
            for (kind, flow) in slots {
                // Client c owns the variants whose lowest bit is c.
                let span = 1u64 << (2 * module_counts[flow] - 1);
                let content = (0..256)
                    .find_map(|_| {
                        let variant = (crng.next_u64() % span) << 1 | c as u64;
                        let content = Content {
                            kind,
                            flow,
                            variant,
                        };
                        (variant != 0 && used.insert(content)).then_some(content)
                    })
                    .ok_or("too few override variants for a client")?;
                contents.push(content);
                seq.push(contents.len() - 1);
            }
            // Repeats of the client's own earlier requests, at seeded
            // positions after the first.
            for _ in 0..REPEATS {
                let at = 1 + crng.below(seq.len());
                let k = seq[crng.below(at)];
                seq.insert(at, k);
            }
            sequences.push(seq);
        }
        // Resolve every content's model digest, as the server will.
        let mut texts = Vec::new();
        let mut keys = Vec::new();
        for content in &contents {
            let base_text = base[content.flow].constraints().to_string();
            let text = variant_text(&base_text, content.variant);
            let digest = variant_flow(&base[content.flow], &text)?.model_digest();
            keys.push(compute::cache_key(
                KINDS[content.kind],
                digest,
                content.iterations(),
            ));
            texts.push(text);
        }
        // The clients must never share a content key, or hits would
        // depend on thread timing.
        let owned: Vec<HashSet<u64>> = sequences
            .iter()
            .map(|s| s.iter().map(|&k| keys[k]).collect())
            .collect();
        if !owned[0].is_disjoint(&owned[1]) {
            return Err("the clients' content keys overlap".into());
        }
        let clients = sequences
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                let mut seen = HashSet::new();
                seq.iter()
                    .enumerate()
                    .map(|(j, &k)| {
                        let content = contents[k];
                        let req = Request::new(
                            (c * EPISODE_REQUESTS + j) as u64,
                            KINDS[content.kind],
                            FLOWS[content.flow],
                        )
                        .with_constraints(texts[k].clone())
                        .with_iterations(content.iterations());
                        let state = if seen.insert(keys[k]) {
                            CacheState::Miss
                        } else {
                            CacheState::Hit
                        };
                        (k, req.render(), state)
                    })
                    .collect()
            })
            .collect();
        Ok(Plan {
            base,
            contents,
            texts,
            clients,
        })
    }

    fn expected(&self, state: CacheState) -> u64 {
        self.clients
            .iter()
            .flatten()
            .filter(|(_, _, s)| *s == state)
            .count() as u64
    }

    fn requests(&self) -> u64 {
        self.clients.iter().map(|c| c.len() as u64).sum()
    }
}

fn variant_flow(base: &DesignFlow, text: &str) -> Result<DesignFlow, String> {
    let parsed = ConstraintsFile::parse(text).map_err(|e| e.to_string())?;
    Ok(base.clone().with_constraints(parsed))
}

fn start_server() -> Server {
    Server::start(ServerConfig {
        workers: WORKERS,
        queue_limit: QUEUE_LIMIT,
        ..ServerConfig::default()
    })
}

/// Warm a fresh server's index pool: one base-constraints compile per
/// distinct index. No client ever sends the base constraints.
fn warm_indexes(server: &Server, plan: &Plan) -> bool {
    let mut seen = HashSet::new();
    plan.base.iter().zip(FLOWS).all(|(flow, name)| {
        !seen.insert(flow.index_digest())
            || server
                .submit(Request::new(0, RequestKind::Compile, *name))
                .is_ok()
    })
}

/// One request as a client sees it.
struct Served {
    latency_ms: f64,
    ok: bool,
    metrics: Option<Metrics>,
}

/// Run both clients' sequences against `server` concurrently. `payloads`
/// holds the expected payload line per content; a request is correct
/// when its payload and its cache state are the expected ones.
fn run_clients(
    server: &Server,
    plan: &Plan,
    payloads: &[String],
    tracers: Option<&mut Vec<Tracer>>,
) -> Vec<Served> {
    let run_one = |c: usize, mut tracer: Option<&mut Tracer>| -> Vec<Served> {
        plan.clients[c]
            .iter()
            .enumerate()
            .map(|(j, (k, line, state))| {
                let t0 = Instant::now();
                let reply = match tracer.as_deref_mut() {
                    None => server.handle_line(line),
                    Some(t) => {
                        // The episode's pass and op offset are set when
                        // its spans are merged.
                        t.begin_op((c * EPISODE_REQUESTS + j) as u64, 0);
                        traced_handle_line(server, line, t)
                    }
                };
                let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                let resp = Response::parse(&reply).ok();
                let ok = resp.as_ref().is_some_and(|r| {
                    r.cache_state() == Some(*state) && r.payload_line() == payloads[*k]
                });
                let metrics = match resp {
                    Some(Response::Ok { metrics, .. }) => Some(metrics),
                    _ => None,
                };
                Served {
                    latency_ms,
                    ok,
                    metrics,
                }
            })
            .collect()
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = match tracers {
            None => (0..CLIENTS)
                .map(|c| s.spawn(move || run_one(c, None)))
                .collect(),
            Some(ts) => ts
                .iter_mut()
                .enumerate()
                .map(|(c, t)| s.spawn(move || run_one(c, Some(t))))
                .collect(),
        };
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// `Server::handle_line`, call for call.
fn traced_handle_line(server: &Server, line: &str, t: &mut Tracer) -> String {
    match t.span("server.parse", |_| parse_line(line)) {
        Ok(Command::Run(req)) => {
            let resp = t.span("server.submit", |_| server.submit(req));
            t.span("server.render", |_| resp.render())
        }
        Ok(Command::Stats { id }) => Response::Stats {
            id,
            payload: server.stats_snapshot(),
        }
        .render(),
        Err(message) => Response::Error { id: 0, message }.render(),
    }
}

/// Lifetime counters of a server, by name.
fn counters(server: &Server) -> BTreeMap<&'static str, u64> {
    let snap = server.stats_snapshot();
    [
        "requests",
        "cache_hits",
        "coalesced",
        "executed",
        "overloaded",
        "errors",
    ]
    .into_iter()
    .map(|k| (k, snap.get(k).and_then(|v| v.as_u64()).unwrap_or(u64::MAX)))
    .collect()
}

/// One episode on a fresh server: the client-side results, the
/// client-phase wall time, the server's own counter deltas, and whether
/// those equal the counts the seed predicts.
fn episode(
    plan: &Plan,
    payloads: &[String],
    tracers: Option<&mut Vec<Tracer>>,
) -> (Vec<Served>, f64, BTreeMap<&'static str, u64>, bool) {
    let server = start_server();
    let warmed = warm_indexes(&server, plan);
    let before = counters(&server);
    let t0 = Instant::now();
    let served = run_clients(&server, plan, payloads, tracers);
    let wall = t0.elapsed().as_secs_f64();
    let delta: BTreeMap<&'static str, u64> = counters(&server)
        .into_iter()
        .map(|(k, v)| (k, v.wrapping_sub(before[k])))
        .collect();
    let guard = warmed
        && delta["requests"] == plan.requests()
        && delta["cache_hits"] == plan.expected(CacheState::Hit)
        && delta["executed"] == plan.expected(CacheState::Miss)
        && delta["coalesced"] == 0
        && delta["overloaded"] == 0
        && delta["errors"] == 0;
    if !guard {
        eprintln!("serve_mix: server counters {delta:?} differ from the seed's prediction");
    }
    (served, wall, delta, guard)
}

/// The warm-up pass: every distinct content once, on a set-up server.
fn warm_up(plan: &Plan) -> Result<Vec<String>, String> {
    let server = start_server();
    let mut payloads = vec![String::new(); plan.contents.len()];
    let firsts: Vec<Vec<(usize, &String)>> = plan
        .clients
        .iter()
        .map(|seq| {
            let mut seen = HashSet::new();
            seq.iter()
                .filter(|(k, _, _)| seen.insert(*k))
                .map(|(k, line, _)| (*k, line))
                .collect()
        })
        .collect();
    let replies: Vec<Vec<(usize, String)>> = std::thread::scope(|s| {
        let handles: Vec<_> = firsts
            .iter()
            .map(|items| {
                let server = &server;
                s.spawn(move || {
                    items
                        .iter()
                        .map(|(k, line)| (*k, server.handle_line(line)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client panicked"))
            .collect()
    });
    for (k, reply) in replies.into_iter().flatten() {
        let resp = Response::parse(&reply)?;
        if !resp.is_ok() {
            return Err(format!("warm-up request failed: {reply}"));
        }
        payloads[k] = resp.payload_line();
    }
    Ok(payloads)
}

/// Oracle: every warm-up payload must equal `compute::execute` on the
/// same content, computed here without the server.
fn check_payloads(plan: &Plan, payloads: &[String]) -> Result<(), String> {
    let mut indexes = HashMap::new();
    for (k, content) in plan.contents.iter().enumerate() {
        let flow = variant_flow(&plan.base[content.flow], &plan.texts[k])?;
        let digest = flow.index_digest();
        if let Entry::Vacant(slot) = indexes.entry(digest) {
            slot.insert(flow.build_index().map_err(|e| e.to_string())?);
        }
        let (_, payload) = compute::execute(
            KINDS[content.kind],
            &flow,
            FLOWS[content.flow],
            content.iterations(),
            &indexes[&digest],
        )?;
        let expected = Response::Ok {
            id: 0,
            metrics: Metrics {
                queue_us: 0,
                service_us: 0,
                cache: CacheState::Miss,
            },
            payload,
        }
        .payload_line();
        if expected != payloads[k] {
            return Err(format!(
                "served payload for `{}` differs from compute::execute",
                FLOWS[content.flow]
            ));
        }
    }
    Ok(())
}

/// A numeric field of every distinct content's payload, with the
/// content's flow.
fn payload_field<'a>(
    plan: &'a Plan,
    payloads: &'a [String],
    kind: usize,
    field: &'a str,
) -> impl Iterator<Item = (usize, f64)> + 'a {
    plan.contents
        .iter()
        .zip(payloads)
        .filter(move |(c, _)| c.kind == kind)
        .filter_map(move |(c, line)| {
            let value = serde::json::parse(line).ok()?;
            let v = value.get("payload")?.get(field)?.as_u64()?;
            Some((c.flow, v as f64))
        })
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut e2e = E2e::default();
    let mut state: Option<(Plan, Vec<String>)> = None;
    for rep in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        let built = Plan::build(seed).and_then(|plan| warm_up(&plan).map(|p| (plan, p)));
        e2e.setup_s.push(t0.elapsed().as_secs_f64());
        let (plan, payloads) = match built {
            Ok(s) => s,
            Err(e) => return Outcome::setup_failure(&e),
        };
        if rep == 0 {
            if let Err(e) = check_payloads(&plan, &payloads) {
                return Outcome::setup_failure(&e);
            }
        }
        state = Some((plan, payloads));
    }
    let (plan, payloads) = state.expect("set-up ran");
    // Compile payloads carry the adequation makespan (one per flow: the
    // overrides never change the schedule), simulate payloads the lockup
    // time of each distinct deployment.
    let makespans: BTreeMap<usize, f64> =
        payload_field(&plan, &payloads, 0, "makespan_ps").collect();
    e2e.makespan_us = makespans.values().sum::<f64>() / 1e6;
    e2e.lockup_ms = payload_field(&plan, &payloads, 2, "lockup_ps")
        .map(|(_, v)| v)
        .sum::<f64>()
        / 1e9;
    if trace {
        return traced(&plan, &payloads, seconds);
    }
    let mut latencies_ms = Vec::new();
    let mut pass_rates = Vec::new();
    let mut failed = 0;
    let mut wall_s = 0.0;
    // Which large responses the two workers hold at once depends on
    // thread timing, so each episode's peak heap varies; report the mean
    // over episodes.
    let mut peaks = Vec::new();
    while wall_s < seconds || latencies_ms.len() < MIN_OPS {
        alloc::reset_peak();
        let (served, wall, _, guard) = episode(&plan, &payloads, None);
        peaks.push(alloc::peak_mb());
        wall_s += wall;
        let mut ok = 0;
        // A counter mismatch fails the whole episode.
        for s in served {
            if s.ok && guard {
                latencies_ms.push(s.latency_ms);
                ok += 1;
            } else {
                failed += 1;
                latencies_ms.push(f64::INFINITY);
            }
        }
        pass_rates.push(f64::from(ok) / wall);
    }
    e2e.peak_mb = peaks.iter().sum::<f64>() / peaks.len() as f64;
    e2e.finish(Timed {
        latencies_ms,
        pass_rates,
        failed,
    })
}

/// Traced run: untraced and traced episodes alternate; the first traced
/// episode supplies the counts.
fn traced(plan: &Plan, payloads: &[String], seconds: f64) -> Outcome {
    let epoch = Instant::now();
    let mut c = Counters::default();
    let mut spans: Vec<Span> = Vec::new();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let (mut ops, mut failed) = (0u64, 0u64);
    let (mut queue, mut service, mut hit) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass = 0u32;
    while pass == 0 || epoch.elapsed().as_secs_f64() < seconds {
        let (plain, wall, _, plain_guard) = episode(plan, payloads, None);
        plain_s += wall;
        let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::new(epoch)).collect();
        let (served, wall, delta, guard) = episode(plan, payloads, Some(&mut tracers));
        traced_s += wall;
        // Request j fails if it failed untraced or traced, or if either
        // episode's counters missed the prediction.
        failed += served
            .iter()
            .zip(&plain)
            .filter(|(a, b)| !(a.ok && b.ok && guard && plain_guard))
            .count() as u64;
        let first_op = ops;
        ops += served.len() as u64;
        if pass == 0 {
            c.set("server.hits", delta["cache_hits"] as f64);
            c.set("server.misses", delta["executed"] as f64);
            c.set("server.coalesced", delta["coalesced"] as f64);
            c.set("server.overloaded", delta["overloaded"] as f64);
            c.set(
                "server.reuse_ratio",
                delta["cache_hits"] as f64 / delta["requests"].max(1) as f64,
            );
        }
        for m in served.iter().filter_map(|s| s.metrics) {
            if m.cache == CacheState::Hit {
                hit.push(m.service_us as f64);
            } else {
                queue.push(m.queue_us as f64);
                service.push(m.service_us as f64 / 1e3);
            }
        }
        for t in tracers {
            let base = spans.len();
            spans.extend(t.into_spans().into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s.op += first_op;
                s.pass = pass;
                s
            }));
        }
        pass += 1;
    }
    c.set("server.queue_us_p50", quantile(&queue, 50));
    c.set("server.queue_us_p90", quantile(&queue, 90));
    c.set("server.service_ms_p50", quantile(&service, 50));
    c.set("server.service_ms_p90", quantile(&service, 90));
    c.set("server.hit_us_p50", quantile(&hit, 50));
    let to_ns = |s: f64| (s * 1e9) as u128;
    c.finish_trace(spans, ops, to_ns(plain_s), to_ns(traced_s), failed)
}
