//! The repo benchmark. `README.md` beside this crate says what it measures
//! and why; `BENCHMARK.json` at the repository root is the contract.
//!
//! ```text
//! perf run <workload> [--seed S] [--traced] [--seconds N] [--scale D]
//! perf --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! perf rep <workload> [--seed S] [--traced] [--seconds N] [--scale D]
//! perf selfcheck [--sets 2] [--runs N]
//! perf list
//! ```
//!
//! `run` (and the driver's form of it) is three repetitions of a workload,
//! each a `rep` child process, and reports the medians; see `reps.rs`.

mod alloc;
mod live;
mod procfs;
mod report;
mod reps;
mod selfcheck;
mod shadow;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 2025;

/// One `run` or `rep` invocation, parsed.
pub struct RunArgs {
    pub workload: &'static workload::Spec,
    pub seed: u64,
    pub seconds: u64,
    pub scale: u64,
    pub traced: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perf run <workload> [--seed S] [--traced] [--seconds N] [--scale D]\n       \
         perf --workload <name> --seed <n> --seconds <n> --trace <0|1>\n       \
         perf rep <workload> [--seed S] [--traced] [--seconds N] [--scale D]\n       \
         perf selfcheck [--sets 2] [--runs N]\n       perf list\nworkloads: {}",
        names.join(", ")
    )
}

fn number(flag: &str, value: Option<&String>) -> Result<u64, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<u64>().map_err(|_| format!("{flag}: `{v}` is not a whole number"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut name: Option<&str> = None;
    let (mut seed, mut seconds, mut scale, mut traced) =
        (DEFAULT_SEED, workload::NOMINAL_SECONDS, 1, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => name = Some(it.next().ok_or("--workload needs a value")?),
            "--seed" => seed = number("--seed", it.next())?,
            "--seconds" => seconds = number("--seconds", it.next())?.max(1),
            "--scale" => scale = number("--scale", it.next())?.max(1),
            "--trace" => traced = number("--trace", it.next())? != 0,
            "--traced" => traced = true,
            other if !other.starts_with('-') && name.is_none() => name = Some(other),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let name = name.ok_or("no workload named")?;
    let workload = workload::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    Ok(RunArgs { workload, seed, seconds, scale, traced })
}

/// Where run artefacts go (`*.trace.json`, the checkpoint spill of the
/// running process): `perf/out/`, found from the
/// crate's own manifest directory so that it stays inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("list") => {
            for w in &workload::WORKLOADS {
                println!("{}\t{}", w.name, w.why);
            }
            Ok(true)
        }
        Some("selfcheck") => selfcheck::run(&args[1..]),
        Some("rep") => parse_run(&args[1..]).and_then(|a| report::rep(process_start, &a)),
        Some("run") => parse_run(&args[1..]).and_then(|a| reps::run(&a)),
        Some(_) => parse_run(&args).and_then(|a| reps::run(&a)),
        None => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("perf: {msg}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
