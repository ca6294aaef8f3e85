//! The regression gate `verify.sh` runs after each benchmark run.
//!
//! ```text
//! perf run <workload> --seed 1 | perf_gate <baseline.json> <workload>
//! ```
//!
//! Reads the output of the repo benchmark (`perf/`) on stdin, echoes it, and
//! exits non-zero unless its result line says `"correct": true` with zero
//! failed operations, an end-to-end `rps` of at least half the committed
//! baseline's for that workload and a `heap_peak_mb` of at most 1.02× it.
//! Half, because the benchmark's own 25 % bound is as fine as this kind of
//! host resolves for a rate (`perf/README.md`, "How steady it is"): that
//! gate is for a change that halves throughput and nobody notices, not for
//! judging an optimisation. The heap peak is counted by the allocator, not
//! timed, and repeats to 0.04 % run to run, so it is held to the
//! benchmark's own 2 % bound.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::io::Read;
use std::process::ExitCode;

/// How far below the baseline `rps` may fall.
const RPS_FLOOR: f64 = 0.5;
/// How far above the baseline `heap_peak_mb` may rise.
const HEAP_CEILING: f64 = 1.02;

/// `results/perf_baseline.json`: end-to-end `rps` and `heap_peak_mb` per
/// workload, and where the numbers were taken.
#[derive(Deserialize)]
struct Baseline {
    taken_on: String,
    rps: BTreeMap<String, f64>,
    heap_peak_mb: BTreeMap<String, f64>,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
}

/// The last line `perf run` prints.
#[derive(Deserialize)]
struct RunResult {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

fn gate(baseline_path: &str, workload: &str, output: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
    let baseline: Baseline = serde_json::from_str(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let of = |metric: &str, per_workload: &BTreeMap<String, f64>| {
        per_workload
            .get(workload)
            .copied()
            .ok_or(format!("{baseline_path} has no `{metric}` for `{workload}`"))
    };
    let floor = RPS_FLOOR * of("rps", &baseline.rps)?;
    let ceiling = HEAP_CEILING * of("heap_peak_mb", &baseline.heap_peak_mb)?;
    let result: RunResult = output
        .lines()
        .last()
        .and_then(|line| serde_json::from_str(line).ok())
        .ok_or("the benchmark printed no result line")?;
    if !result.correct || result.failed > 0 {
        return Err(format!("run incorrect ({} operations failed)", result.failed));
    }
    let measured = |metric: &str| {
        result.metrics.get(metric).map(|m| m.value).ok_or(format!("the result line has no `{metric}`"))
    };
    let (rps, heap) = (measured("rps")?, measured("heap_peak_mb")?);
    if rps < floor {
        return Err(format!(
            "rps {rps:.0} is below half of the baseline ({floor:.0}; taken on {})",
            baseline.taken_on
        ));
    }
    if heap > ceiling {
        return Err(format!(
            "heap_peak_mb {heap:.2} is above {HEAP_CEILING}× the baseline ({ceiling:.2}; taken on {})",
            baseline.taken_on
        ));
    }
    Ok(format!("rps {rps:.0} ≥ floor {floor:.0}, heap_peak_mb {heap:.2} ≤ ceiling {ceiling:.2}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline, workload] = args.as_slice() else {
        eprintln!("usage: perf run <workload> --seed 1 | perf_gate <baseline.json> <workload>");
        return ExitCode::from(2);
    };
    let mut output = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut output) {
        eprintln!("perf_gate: stdin: {e}");
        return ExitCode::from(2);
    }
    print!("{output}");
    match gate(baseline, workload, &output) {
        Ok(pass) => {
            println!("   {workload}: {pass}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            println!("   FAIL {workload}: {why}");
            ExitCode::FAILURE
        }
    }
}
