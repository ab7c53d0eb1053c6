//! # carat-benchmark — one command, six workloads, both clocks
//!
//! ```text
//! carat-benchmark run [--seed N] [--workload W] [--seconds S | --reps R]
//!                     [--trace [0|1]] [--out F] [--trace-dir D] [--smoke]
//! carat-benchmark compare A.json B.json
//! carat-benchmark gen-expected [PATH]
//! ```
//!
//! `run` measures from one process and one thread, checks every op
//! against `expected.json`, prints every metric by name with unit,
//! spread and bound, and ends with the one-line JSON result the
//! benchmark driver reads. See README.md for the metric dictionary.

mod compare;
mod env;
mod expected;
mod json;
mod metrics;
mod probes;
mod report;
mod run;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Budget, Options};

const USAGE: &str = "usage:
  carat-benchmark run [--seed N] [--workload W] [--seconds S | --reps R] [--trace [0|1]] [--out F] [--trace-dir D] [--smoke]
  carat-benchmark compare A.json B.json
  carat-benchmark gen-expected [PATH]";

/// Default pass count when neither `--reps` nor `--seconds` is given.
const DEFAULT_REPS: usize = 3;
/// Where trace files go unless `--trace-dir` says otherwise (relative to
/// the working directory, which `cargo run` leaves at the repository
/// root).
const DEFAULT_TRACE_DIR: &str = "benchmark/out";

struct RunArgs {
    opts: Options,
    out: Option<PathBuf>,
    trace_dir: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut opts = Options {
        seed: 1,
        smoke: false,
        budget: Budget::Reps(DEFAULT_REPS),
        trace: false,
        workloads: metrics::ALL.to_vec(),
    };
    let mut out = None;
    let mut trace_dir = PathBuf::from(DEFAULT_TRACE_DIR);
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} wants a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--seed" => {
                opts.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed wants a whole number".to_string())?;
            }
            "--workload" => {
                let name = value(&mut i, flag)?;
                let known = metrics::ALL.iter().find(|w| **w == name).ok_or_else(|| {
                    format!("unknown workload `{name}` (one of {:?})", metrics::ALL)
                })?;
                opts.workloads = vec![known];
            }
            "--seconds" => {
                let s: f64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seconds wants a number".to_string())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds wants a number in (0, 3600]".to_string());
                }
                opts.budget = Budget::Seconds(s);
            }
            "--reps" => {
                let n: usize = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--reps wants a whole number".to_string())?;
                if !(1..=10_000).contains(&n) {
                    return Err("--reps wants a number in 1..=10000".to_string());
                }
                opts.budget = Budget::Reps(n);
            }
            // Bare `--trace` turns tracing on; the driver passes 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    opts.trace = false;
                    i += 1;
                }
                Some("1") => {
                    opts.trace = true;
                    i += 1;
                }
                _ => opts.trace = true,
            },
            "--out" => out = Some(PathBuf::from(value(&mut i, flag)?)),
            "--trace-dir" => trace_dir = PathBuf::from(value(&mut i, flag)?),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(RunArgs {
        opts,
        out,
        trace_dir,
    })
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let RunArgs {
        opts,
        out,
        trace_dir,
    } = parse_run(args)?;
    let reports = run::run(&opts)?;
    print!("{}", report::text(&opts, &reports));
    if opts.trace {
        match report::write_traces(&trace_dir, &reports) {
            Ok(paths) => {
                for p in paths {
                    println!("trace written to {p}");
                }
            }
            Err(e) => return Err(format!("writing traces under {}: {e}", trace_dir.display())),
        }
    }
    if let Some(path) = out {
        std::fs::write(&path, report::full(&opts, &reports).to_pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("report written to {}", path.display());
    }
    println!("{}", report::driver_line(&opts, &reports));
    Ok(reports.iter().all(run::WorkloadReport::correct))
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare wants exactly two report files".to_string());
    };
    let read = |p: &String| -> Result<json::Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, ok) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    println!("{}", if ok { "no regression" } else { "REGRESSION" });
    Ok(ok)
}

fn cmd_gen_expected(args: &[String]) -> Result<bool, String> {
    let path = args
        .first()
        .map_or_else(|| PathBuf::from("benchmark/expected.json"), PathBuf::from);
    let table = expected::generate()?;
    std::fs::write(&path, table.to_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("reference table written to {}", path.display());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, rest)) if cmd == "gen-expected" => cmd_gen_expected(rest),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("carat-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
