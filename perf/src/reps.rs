//! A run: [`REPS`] repetitions of one workload, each a `perf rep` child
//! process with an arrival order of its own, and every end-to-end metric
//! reported as the median over them.
//!
//! Why repetitions: on the shared two-core box the run-to-run noise is slow
//! excursions of seconds to tens of seconds (README.md, "How steady it is").
//! One long timed phase carries every excursion that touches it into the
//! result; the median of three whole phases drops the one that was hit.
//! Why processes: each repetition then starts as a user's process does —
//! cold allocator, fresh page faults — and `setup_s` keeps its meaning,
//! process start → first timed request, with three set-ups per run.
//!
//! A traced run is two repetitions of the same seed, one untraced and one
//! traced, so that `trace.overhead_share` compares two phases measured in
//! one invocation.

use crate::report::{m, print_result, Metric, END_TO_END};
use crate::workload::REPS;
use crate::RunArgs;
use serde::Deserialize;
use std::process::Command;

/// The head of a result line.
#[derive(Deserialize)]
struct Verdict {
    correct: bool,
    attempted: u64,
    failed: u64,
}

/// What one child process reported.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Its `metric` lines, in order.
    pub metrics: Vec<Metric>,
    pub stdout: String,
}

impl Outcome {
    pub fn value(&self, name: &str) -> Result<f64, String> {
        let found = self.metrics.iter().find(|x| x.name == name);
        found.map(|x| x.value).ok_or_else(|| format!("no `{name}` in the output"))
    }
}

/// Runs this binary with `args` and waits for it. A child that ends without
/// a result line is an error; one that failed an output check is an
/// `Outcome` with `correct == false`.
pub fn child(args: &[String]) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe).args(args).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let verdict: Option<Verdict> = stdout.lines().last().and_then(|l| serde_json::from_str(l).ok());
    let Some(verdict) = verdict else {
        return Err(format!(
            "`perf {}` ended with {} and no result:\n{stdout}{}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    };
    let metrics = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            Some(m(f.next()?, f.next()?.parse().ok()?, f.next()?))
        })
        .collect();
    Ok(Outcome {
        correct: verdict.correct && out.status.success(),
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        stdout,
    })
}

/// One repetition of `args`' workload as a child process, its output echoed
/// behind a `label |` prefix.
fn rep(args: &RunArgs, label: &str, seed: u64, traced: bool) -> Result<Outcome, String> {
    let mut argv: Vec<String> = vec!["rep".into(), args.workload.name.into()];
    for (flag, value) in [("--seed", seed), ("--seconds", args.seconds), ("--scale", args.scale)] {
        argv.extend([flag.to_string(), value.to_string()]);
    }
    if traced {
        argv.push("--traced".into());
    }
    let outcome = child(&argv)?;
    for line in outcome.stdout.lines() {
        println!("{label} | {line}");
    }
    Ok(outcome)
}

/// Middle value (mean of the middle two for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}

/// Runs one workload as the driver asks for it. `Ok(true)` when every
/// repetition passed its output checks.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    // Distinct for every (seed, repetition) pair.
    let seed = |k: u64| args.seed.wrapping_mul(REPS).wrapping_add(k);
    let (reps, metrics) = if args.traced {
        let plain = rep(args, "untraced", seed(0), false)?;
        let traced = rep(args, "traced", seed(0), true)?;
        let traced_rps = traced
            .stdout
            .lines()
            .find_map(|l| {
                l.strip_prefix("traced-run rps ")?.split_ascii_whitespace().next()?.parse::<f64>().ok()
            })
            .ok_or("the traced repetition printed no rps")?;
        let overhead = 1.0 - traced_rps / plain.value("rps")?;
        let mut metrics = traced.metrics.clone();
        metrics.push(m("trace.overhead_share", overhead, "ratio"));
        (vec![plain, traced], metrics)
    } else {
        let reps = (0..REPS)
            .map(|k| rep(args, &format!("rep {k}"), seed(k), false))
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let values: Result<Vec<f64>, String> = reps.iter().map(|r| r.value(name)).collect();
                Ok(m(name, median(values?), unit))
            })
            .collect::<Result<Vec<_>, String>>()?;
        (reps, metrics)
    };
    let correct = reps.iter().all(|r| r.correct);
    print_result(
        &metrics,
        correct,
        reps.iter().map(|r| r.attempted).sum(),
        reps.iter().map(|r| r.failed).sum(),
    );
    Ok(correct)
}
