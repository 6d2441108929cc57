//! The result line: end-to-end metrics for timed runs, per-layer metrics
//! for traced runs.

use crate::trace::{self, Span};
use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit). Every timed run reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_ops_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("schedule_makespan_us", "sim_us"),
    ("lockup_ms", "sim_ms"),
];

/// Spans whose self time and pass-0 allocations are reported.
pub const SPANS: &[&str] = &[
    "core.model_digest",
    "core.run_with_index",
    "core.simulate_rtr",
    "adequation.index",
    "adequation.schedule",
    "adequation.executive",
    "codegen.design",
    "codegen.emit",
    "fabric.static_bitstream",
    "ir.lower",
    "lint.verify",
    "lint.model_check",
    "rtr.engine_build",
    "rtr.replay",
    "sim.run",
    "server.parse",
    "server.submit",
    "server.render",
];

/// Per-layer metrics beyond the span times: (name, unit).
pub const COUNTERS: &[(&str, &str)] = &[
    ("adequation.ops", "count"),
    ("adequation.transfers", "count"),
    ("codegen.bitstream_kb", "KiB"),
    ("ir.instructions", "count"),
    ("lint.model_states", "count"),
    ("lint.model_transitions", "count"),
    ("rtr.replay_mreq_s", "Mreq/s"),
    ("rtr.requests", "count"),
    ("rtr.fetches", "count"),
    ("rtr.prefetch_hits", "count"),
    ("rtr.prefetch_hit_ratio", "ratio"),
    ("rtr.refusals", "count"),
    ("sim.us_per_iteration", "us"),
    ("sim.reconfigs", "count"),
    ("server.queue_us_p50", "us"),
    ("server.queue_us_p90", "us"),
    ("server.service_ms_p50", "ms"),
    ("server.service_ms_p90", "ms"),
    ("server.hit_us_p50", "us"),
    ("server.hits", "count"),
    ("server.misses", "count"),
    ("server.coalesced", "count"),
    ("server.overloaded", "count"),
    ("server.reuse_ratio", "ratio"),
    ("trace.ops", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one run prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// A run whose set-up failed or whose warm-up outputs failed their
    /// oracle: nothing was timed.
    pub fn setup_failure(message: &str) -> Outcome {
        eprintln!("set-up failed: {message}");
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The JSON result line. A metric the run did not produce, or whose
    /// value is not finite (a failed op is infinitely slow), reads `null`,
    /// so that a broken run never reads as a fast one.
    pub fn to_json(&self, trace: bool) -> String {
        let mut names: Vec<(String, String)> = if trace {
            SPANS
                .iter()
                .flat_map(|s| {
                    [
                        (format!("{s}_ms"), "ms".to_string()),
                        (format!("{s}.allocs"), "count".to_string()),
                    ]
                })
                .chain(COUNTERS.iter().map(|(n, u)| (n.to_string(), u.to_string())))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let metrics: Vec<String> = names
            .drain(..)
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(f64::NAN, |(_, v)| *v);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit the measurement has, or `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Nearest-rank percentile of `values` (any order); NaN when empty.
pub fn quantile(values: &[f64], pct: u32) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    pdr_sweep::percentile(&sorted, pct).unwrap_or(f64::NAN)
}

/// The timed phase of a run.
pub struct Timed {
    /// One entry per op; a failed op reads as infinitely slow.
    pub latencies_ms: Vec<f64>,
    /// Correct ops per second of wall clock, one entry per complete pass
    /// over the workload's distinct inputs (per episode for `serve_mix`).
    /// Their median is the reported throughput, so that a few seconds of
    /// machine noise inside a run do not move it.
    pub pass_rates: Vec<f64>,
    pub failed: u64,
}

/// End-to-end figures gathered before and after the timed phase.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub peak_mb: f64,
    pub makespan_us: f64,
    pub lockup_ms: f64,
}

impl E2e {
    pub fn finish(self, timed: Timed) -> Outcome {
        let attempted = timed.latencies_ms.len() as u64;
        eprintln!(
            "timed: {attempted} ops ({} failed) in {} passes; set-up runs {:?}",
            timed.failed,
            timed.pass_rates.len(),
            self.setup_s
        );
        let metrics = [
            ("latency_ms_p50", quantile(&timed.latencies_ms, 50)),
            ("latency_ms_p90", quantile(&timed.latencies_ms, 90)),
            ("throughput_ops_s", quantile(&timed.pass_rates, 50)),
            ("setup_s", quantile(&self.setup_s, 50)),
            ("peak_heap_mb", self.peak_mb),
            ("schedule_makespan_us", self.makespan_us),
            ("lockup_ms", self.lockup_ms),
        ];
        Outcome {
            correct: timed.failed == 0,
            attempted,
            failed: timed.failed,
            metrics: metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            spans: Vec::new(),
        }
    }
}

/// Work counters of a traced run. `add` counts in pass 0 only, so the
/// totals cover each distinct input once and repeat exactly; `add_all`
/// counts in every pass, for rates over the whole traced run.
#[derive(Default)]
pub struct Counters {
    pub pass0: bool,
    values: BTreeMap<&'static str, f64>,
    all: BTreeMap<&'static str, f64>,
}

impl Counters {
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.pass0 {
            *self.values.entry(name).or_default() += v;
        }
    }

    pub fn add_all(&mut self, name: &'static str, v: f64) {
        *self.all.entry(name).or_default() += v;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn get_all(&self, name: &str) -> f64 {
        self.all.get(name).copied().unwrap_or(0.0)
    }

    /// Turn a finished trace into the per-layer result. `plain_ns` and
    /// `traced_ns` time the same ops untraced and traced.
    pub fn finish_trace(
        mut self,
        spans: Vec<Span>,
        ops: u64,
        plain_ns: u128,
        traced_ns: u128,
        failed: u64,
    ) -> Outcome {
        let totals = trace::totals(&spans);
        let mut metrics: Vec<(String, f64)> = Vec::new();
        for name in SPANS {
            let t = totals.get(name).copied().unwrap_or_default();
            metrics.push((
                format!("{name}_ms"),
                t.self_ns as f64 / 1e6 / ops.max(1) as f64,
            ));
            metrics.push((format!("{name}.allocs"), t.allocs_pass0 as f64));
        }
        let replay_ns = totals.get("rtr.replay").map_or(0, |t| t.self_ns);
        if replay_ns > 0 {
            let mreq = self.get_all("rtr.replay_requests") / (replay_ns as f64 / 1e9) / 1e6;
            self.set("rtr.replay_mreq_s", mreq);
        }
        let sim_ns = totals.get("sim.run").map_or(0, |t| t.self_ns);
        let iterations = self.get_all("sim.iterations");
        if iterations > 0.0 {
            self.set("sim.us_per_iteration", sim_ns as f64 / 1e3 / iterations);
        }
        let reconfig_requests = self.get("rtr.requests") - self.get("rtr.already_loaded");
        if reconfig_requests > 0.0 {
            self.set(
                "rtr.prefetch_hit_ratio",
                self.get("rtr.prefetch_hits") / reconfig_requests,
            );
        }
        self.set("trace.ops", ops as f64);
        if plain_ns > 0 {
            self.set(
                "trace.overhead_pct",
                (traced_ns as f64 - plain_ns as f64) / plain_ns as f64 * 100.0,
            );
        }
        for (name, _) in COUNTERS {
            metrics.push((name.to_string(), self.get(name)));
        }
        eprintln!("traced: {ops} ops ({failed} failed), {} spans", spans.len());
        Outcome {
            correct: failed == 0,
            attempted: ops,
            failed,
            metrics,
            spans,
        }
    }
}
