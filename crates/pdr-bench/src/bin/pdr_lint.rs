//! `pdr-lint` — static analysis of design-flow artifacts from the CLI.
//!
//! ```text
//! pdr-lint --list                         # enumerate gallery flows
//! pdr-lint --flow paper                   # lint one flow, text report
//! pdr-lint --all --format json            # lint every flow, JSON
//! pdr-lint --all --deny-warnings          # CI gate: warnings also fail
//! pdr-lint --all --code PDR004 --code PDR013   # only selected codes
//! pdr-lint --flow paper --max-states 50000     # bounded model check
//! ```
//!
//! The offline artifact model has no deserializer, so the CLI rebuilds
//! flows in-process from [`pdr_core::gallery`] and lints what `run()`
//! produces — the same artifacts `DesignFlow::verify` sees. Deadlock
//! and the other interleaving properties (PDR004, PDR013–PDR017) come
//! from the exhaustive model checker, exactly as in `verify`;
//! `--max-states` bounds its exploration (PDR017 reports when the bound
//! bites). A flow named more than once (`--all`, repeated `--flow`) is
//! linted once, in first-seen order.
//!
//! Exit status: 0 when every linted flow is acceptable, 1 when any
//! diagnostic (surviving the `--code` filter, if given) fails the gate
//! (errors always; warnings under `--deny-warnings`), 2 on usage errors.

use pdr_core::gallery;
use pdr_core::lint::render;
use pdr_core::lint::{Code, ModelConfig, Report};
use serde::json::Value;
use serde::Serialize;
use std::collections::HashSet;
use std::process::ExitCode;

struct Options {
    flows: Vec<String>,
    json: bool,
    deny_warnings: bool,
    list: bool,
    /// Show (and gate on) only these codes; empty = all.
    codes: Vec<Code>,
    max_states: Option<usize>,
}

fn usage() -> String {
    let names = gallery::names().join(", ");
    format!(
        "usage: pdr-lint [--flow NAME]... [--all] [--format text|json] \
         [--deny-warnings] [--code PDRnnn]... [--max-states N] [--list]\n\
         flows: {names}"
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        flows: Vec::new(),
        json: false,
        deny_warnings: false,
        list: false,
        codes: Vec::new(),
        max_states: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--flow" => {
                let name = it.next().ok_or("--flow needs a name")?;
                opts.flows.push(name.clone());
            }
            "--all" => {
                opts.flows
                    .extend(gallery::names().iter().map(|s| s.to_string()));
            }
            "--format" => match it.next().map(String::as_str) {
                Some("text") => opts.json = false,
                Some("json") => opts.json = true,
                other => return Err(format!("bad --format {other:?} (text|json)")),
            },
            "--deny-warnings" => opts.deny_warnings = true,
            "--code" => {
                let code = it.next().ok_or("--code needs a PDRnnn code")?;
                match Code::parse(code) {
                    Some(c) => opts.codes.push(c),
                    None => return Err(format!("unknown code `{code}` (expect PDR001..PDR017)")),
                }
            }
            "--max-states" => {
                let n = it.next().ok_or("--max-states needs a number")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("bad --max-states `{n}` (expect a positive integer)"))?;
                if n == 0 {
                    return Err("--max-states must be at least 1".into());
                }
                opts.max_states = Some(n);
            }
            "--list" => opts.list = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if !opts.list && opts.flows.is_empty() {
        return Err(format!("nothing to lint\n{}", usage()));
    }
    let mut seen = HashSet::new();
    opts.flows.retain(|name| seen.insert(name.clone()));
    Ok(opts)
}

/// Keep only diagnostics whose code is in `codes` (empty = keep all).
fn filter_codes(report: Report, codes: &[Code]) -> Report {
    if codes.is_empty() {
        return report;
    }
    Report {
        diagnostics: report
            .diagnostics
            .into_iter()
            .filter(|d| codes.contains(&d.code))
            .collect(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if opts.list {
        for g in gallery::all() {
            println!("{:24} {}", g.name, g.description);
        }
        return ExitCode::SUCCESS;
    }

    let mut model = ModelConfig::default();
    if let Some(n) = opts.max_states {
        model = model.with_max_states(n);
    }

    let mut failed = false;
    let mut json_flows: Vec<(String, Value)> = Vec::new();
    for name in &opts.flows {
        let Some(g) = gallery::by_name(name) else {
            eprintln!("unknown flow `{name}`\n{}", usage());
            return ExitCode::from(2);
        };
        let artifacts = match g.flow.run() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("flow `{name}` failed to build: {e}");
                return ExitCode::from(2);
            }
        };
        let report = filter_codes(g.flow.verify_with(&artifacts, model), &opts.codes);
        failed |= report.fails(opts.deny_warnings);
        if opts.json {
            json_flows.push((name.clone(), report.to_json()));
        } else {
            println!("== {name} ==");
            print!("{}", render::to_text(&report));
        }
    }
    if opts.json {
        let doc = Value::obj(json_flows);
        println!("{}", serde::json::to_string_pretty(&doc));
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows_of(args: &[&str]) -> Vec<String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).unwrap().flows
    }

    #[test]
    fn all_then_flow_lints_each_flow_once() {
        let all: Vec<String> = gallery::names().iter().map(|s| s.to_string()).collect();
        assert_eq!(flows_of(&["--all", "--flow", "paper"]), all);
    }

    #[test]
    fn repeated_flow_is_linted_once_in_first_seen_order() {
        assert_eq!(flows_of(&["--flow", "paper", "--flow", "paper"]), ["paper"]);
        assert_eq!(
            flows_of(&[
                "--flow",
                "two_regions",
                "--flow",
                "paper",
                "--flow",
                "two_regions"
            ]),
            ["two_regions", "paper"]
        );
    }
}
