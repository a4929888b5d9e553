//! `lbsbench`: one paced, layer-attributed benchmark for the
//! anonymizer → engine → net → cluster pipeline. See `../README.md`.
//!
//! ```text
//! lbsbench [run] --workload W [--seed N] [--seconds S] [--trace 0|1]
//! lbsbench trace [--workload W] [--seed N] [--seconds S]
//! lbsbench compare A B        (result files, or directories of them)
//! ```
//!
//! A run prints its metrics by name and unit, appends them to
//! `$LBSBENCH_OUT/results-<workload>-seed<N>.json`, prints the result
//! as one JSON object on the last line, and exits non-zero when an
//! output was wrong.

#![forbid(unsafe_code)]

mod gen;
mod hostclock;
mod json;
mod ladder;
mod load;
mod report;
mod rng;
mod spans;
mod stats;
mod sut;
mod verify;
mod workloads;

use std::io::Write as _;
use std::process::ExitCode;

/// Where results, the span file and the WAL rung's directory go:
/// `$LBSBENCH_OUT`, or `target/benchmark` below the directory the
/// benchmark is run from.
pub fn out_dir() -> String {
    std::env::var("LBSBENCH_OUT").unwrap_or_else(|_| "target/benchmark".to_string())
}

const USAGE: &str = "usage: lbsbench [run] --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
                     \x20      lbsbench trace [--workload W] [--seed N] [--seconds S]\n\
                     \x20      lbsbench compare A B\n\
                     workloads: engine_batch node_update node_query cluster_update";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = number()?.clamp(1, 60),
            "--trace" => out.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

fn run(args: Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let w = workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let secs = args.seconds as f64;
    let report = if args.trace {
        ladder::run_traced(&w, args.seed, secs)?
    } else {
        workloads::run_end_to_end(&w, args.seed, secs)?
    };
    print!("{}", report.human());
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{out}: {e}"))?;
    let path = format!("{out}/results-{}-seed{}.json", w.name, args.seed);
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{}", report.record_line()))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("{}", report.result_line());
    Ok(report.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => {
            report::compare(&argv[1], &argv[2]).map(|(table, regressed)| {
                print!("{table}");
                !regressed
            })
        }
        Some("trace") => parse_flags(&argv[1..]).and_then(|mut a| {
            a.trace = true;
            a.workload.get_or_insert_with(|| "node_update".to_string());
            run(a)
        }),
        Some("run") => parse_flags(&argv[1..]).and_then(run),
        Some(f) if f.starts_with("--") => parse_flags(&argv).and_then(run),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lbsbench: {e}");
            ExitCode::from(2)
        }
    }
}
