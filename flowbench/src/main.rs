//! `flowbench` — the end-to-end benchmark of the Fig. 3 design flow.
//!
//! ```text
//! cargo run --release --offline --manifest-path flowbench/Cargo.toml -- \
//!     --workload gallery_e2e --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads: `gallery_e2e`, `synthetic_4k`, `serve_mix`, `runtime_replay`
//! (see README.md). `--trace 0` times the workload and prints the
//! end-to-end metrics; `--trace 1` runs it traced and prints the
//! per-layer metrics, writing every span to
//! `flowbench-out/trace-<workload>-<seed>.jsonl`. The last line of
//! standard output is the JSON result; the exit code is 0 only when every
//! output was correct.

mod alloc;
mod flow;
mod replay;
mod report;
mod rng;
mod serve;
mod trace;

use report::{Outcome, Timed};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Every timed phase issues at least this many ops, so that p90 has at
/// least ten samples beyond it.
pub const MIN_OPS: usize = 100;

const WORKLOADS: &[&str] = &["gallery_e2e", "synthetic_4k", "serve_mix", "runtime_replay"];

/// Closed loop over `n` distinct inputs in order: op `i` runs input
/// `i % n` and reports whether its output was correct. Runs until
/// `seconds` have passed and at least [`MIN_OPS`] ops were issued.
pub fn timed_loop(seconds: f64, n: usize, mut op: impl FnMut(usize) -> bool) -> Timed {
    let mut latencies_ms = Vec::new();
    let mut pass_rates = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    let (mut pass_start, mut pass_ok) = (Instant::now(), 0u32);
    while start.elapsed().as_secs_f64() < seconds || latencies_ms.len() < MIN_OPS {
        let t0 = Instant::now();
        let ok = op(latencies_ms.len() % n);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if ok {
            latencies_ms.push(ms);
            pass_ok += 1;
        } else {
            failed += 1;
            latencies_ms.push(f64::INFINITY);
        }
        if latencies_ms.len() % n == 0 {
            pass_rates.push(f64::from(pass_ok) / pass_start.elapsed().as_secs_f64());
            (pass_start, pass_ok) = (Instant::now(), 0);
        }
    }
    Timed {
        latencies_ms,
        pass_rates,
        failed,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn write_spans(args: &Args, outcome: &Outcome) -> std::io::Result<()> {
    let dir = std::path::Path::new("flowbench-out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, trace::to_jsonl(&outcome.spans))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let outcome = match args.workload.as_str() {
        "gallery_e2e" => flow::run(flow::FlowWorkload::Gallery, seed, seconds, trace),
        "synthetic_4k" => flow::run(flow::FlowWorkload::Synthetic, seed, seconds, trace),
        "serve_mix" => serve::run(seed, seconds, trace),
        _ => replay::run(seed, seconds, trace),
    };
    if trace {
        if let Err(e) = write_spans(&args, &outcome) {
            eprintln!("flowbench: cannot write spans: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome.to_json(trace));
    // An incorrect run must not pass for a measurement.
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
