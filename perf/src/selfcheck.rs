//! `perf selfcheck`: does the benchmark repeat?
//!
//! Runs whole sets of runs back to back — workloads interleaved round-robin,
//! never grouped, so a slow phase of the host lands on every workload —
//! and compares the sets: for each workload and end-to-end metric it prints
//! each set's median and quartiles and the gap between set medians, and
//! fails if a gap exceeds the metric's bound in `BENCHMARK.json`.

use crate::report::END_TO_END;
use crate::reps;
use crate::workload::WORKLOADS;
use serde::Deserialize;

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    better: String,
    bound: f64,
}

/// The slice of `BENCHMARK.json` the check needs.
#[derive(Deserialize)]
struct Contract {
    run_seconds: u64,
    end_to_end: Vec<EndToEnd>,
}

/// Quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`; needs at least two values.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        v[lo - 1] + (v[lo] - v[lo - 1]) * (pos - lo as f64)
    };
    (q(1), q(2), q(3))
}

/// One untraced run of `workload`, as the driver starts it; its six metrics.
fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<Vec<f64>, String> {
    let argv = ["--workload", workload, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()];
    let out = reps::child(&argv.map(String::from))?;
    if !out.correct {
        return Err(format!("{workload} seed {seed} failed:\n{}", out.stdout));
    }
    END_TO_END.iter().map(|(name, _)| out.value(name)).collect()
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let (mut sets, mut runs) = (2usize, 10usize);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            || it.next().and_then(|v| v.parse::<u64>().ok()).ok_or(format!("{arg} needs a number"));
        match arg.as_str() {
            "--sets" => sets = value()?.max(2) as usize,
            "--runs" => runs = value()?.max(2) as usize,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let contract: Contract = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;

    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; sets];
    for (set, per_set) in values.iter_mut().enumerate() {
        for run in 0..runs {
            for (w, spec) in WORKLOADS.iter().enumerate() {
                // Every set replays the same seeds, one per run.
                let seed = 1 + run as u64;
                let got = one_run(spec.name, seed, contract.run_seconds)?;
                eprintln!("set {set} run {run} {} {got:?}", spec.name);
                for (slot, v) in per_set[w].iter_mut().zip(got) {
                    slot.push(v);
                }
            }
        }
    }

    let mut ok = true;
    println!("workload metric set q1 median q3 spread | gap-to-set-0 bound verdict");
    for (w, spec) in WORKLOADS.iter().enumerate() {
        for (k, (name, _)) in END_TO_END.iter().enumerate() {
            let rule = contract
                .end_to_end
                .iter()
                .find(|e| e.name == *name)
                .ok_or_else(|| format!("BENCHMARK.json lists no `{name}`"))?;
            let (_, base, _) = quartiles(&values[0][w][k]);
            for (set, per_set) in values.iter().enumerate() {
                let (q1, med, q3) = quartiles(&per_set[w][k]);
                let spread = (q3 - q1) / med;
                // Positive gap = this set is worse than set 0.
                let gap = if rule.better == "lower" { med / base - 1.0 } else { 1.0 - med / base };
                let spread_ok = *name == "setup_s" || spread <= rule.bound;
                let pass = gap <= rule.bound && spread_ok;
                ok &= pass;
                println!(
                    "{} {name} {set} {q1} {med} {q3} {spread:.5} | {gap:+.5} {} {}",
                    spec.name,
                    rule.bound,
                    if pass { "ok" } else { "FAIL" }
                );
            }
        }
    }
    Ok(ok)
}
