//! The regression gate `verify.sh` runs after each benchmark run.
//!
//! ```text
//! perf run <workload> --seed 1 | perf_gate <baseline.json> <workload>
//! ```
//!
//! Reads the output of the repo benchmark (`perf/`) on stdin, echoes it, and
//! exits non-zero unless its result line says `"correct": true` with zero
//! failed operations, an end-to-end `rps` of at least half the committed
//! baseline's for that workload, a `setup_s` of at most twice it and a
//! `heap_peak_mb` of at most 1.02× it. Half and twice, because the
//! benchmark's own 25 % bound is as fine as this kind of host resolves for
//! a time (`perf/README.md`, "How steady it is"): those gates are for a
//! change that halves throughput or doubles the set-up (trace generation,
//! model training) and nobody notices, not for judging an optimisation.
//! The heap peak is counted by the allocator, not timed, and repeats to
//! 0.04 % run to run, so it is held to the benchmark's own 2 % bound.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::io::Read;
use std::process::ExitCode;

/// How far below the baseline `rps` may fall.
const RPS_FLOOR: f64 = 0.5;
/// How far above the baseline `setup_s` may rise.
const SETUP_CEILING: f64 = 2.0;
/// How far above the baseline `heap_peak_mb` may rise.
const HEAP_CEILING: f64 = 1.02;

/// `results/perf_baseline.json`: end-to-end `rps`, `setup_s` and
/// `heap_peak_mb` per workload, and where the numbers were taken.
#[derive(Deserialize)]
struct Baseline {
    taken_on: String,
    rps: BTreeMap<String, f64>,
    setup_s: BTreeMap<String, f64>,
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

fn gate(baseline: &Baseline, workload: &str, output: &str) -> Result<String, String> {
    let of = |metric: &str, per_workload: &BTreeMap<String, f64>| {
        per_workload
            .get(workload)
            .copied()
            .ok_or(format!("the baseline has no `{metric}` for `{workload}`"))
    };
    let floor = RPS_FLOOR * of("rps", &baseline.rps)?;
    let setup_ceiling = SETUP_CEILING * of("setup_s", &baseline.setup_s)?;
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
    let (rps, setup, heap) = (measured("rps")?, measured("setup_s")?, measured("heap_peak_mb")?);
    if rps < floor {
        return Err(format!(
            "rps {rps:.0} is below half of the baseline ({floor:.0}; taken on {})",
            baseline.taken_on
        ));
    }
    if setup > setup_ceiling {
        return Err(format!(
            "setup_s {setup:.2} is above {SETUP_CEILING}× the baseline ({setup_ceiling:.2}; taken on {})",
            baseline.taken_on
        ));
    }
    if heap > ceiling {
        return Err(format!(
            "heap_peak_mb {heap:.2} is above {HEAP_CEILING}× the baseline ({ceiling:.2}; taken on {})",
            baseline.taken_on
        ));
    }
    Ok(format!(
        "rps {rps:.0} ≥ floor {floor:.0}, setup_s {setup:.2} ≤ ceiling {setup_ceiling:.2}, \
         heap_peak_mb {heap:.2} ≤ ceiling {ceiling:.2}"
    ))
}

fn read_baseline(path: &str) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
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
    match read_baseline(baseline).and_then(|baseline| gate(&baseline, workload, &output)) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> Baseline {
        let one = |v: f64| BTreeMap::from([("w".to_string(), v)]);
        Baseline {
            taken_on: "test".into(),
            rps: one(1000.0),
            setup_s: one(3.0),
            heap_peak_mb: one(50.0),
        }
    }

    fn run(rps: f64, setup_s: f64, heap_peak_mb: f64) -> String {
        format!(
            "metric rps {rps} 1/s\n{{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {{\"rps\": {{\"value\": {rps}}}, \"setup_s\": {{\"value\": {setup_s}}}, \
             \"heap_peak_mb\": {{\"value\": {heap_peak_mb}}}}}}}"
        )
    }

    #[test]
    fn passes_within_every_bound() {
        assert!(gate(&baseline(), "w", &run(500.0, 6.0, 51.0)).is_ok());
    }

    #[test]
    fn fails_each_bound_on_its_own() {
        let b = baseline();
        assert!(gate(&b, "w", &run(499.0, 3.0, 50.0)).unwrap_err().starts_with("rps"));
        assert!(gate(&b, "w", &run(1000.0, 6.01, 50.0)).unwrap_err().starts_with("setup_s"));
        assert!(gate(&b, "w", &run(1000.0, 3.0, 51.1)).unwrap_err().starts_with("heap_peak_mb"));
        assert!(gate(&b, "other", &run(1000.0, 3.0, 50.0)).unwrap_err().contains("no `rps`"));
    }
}
