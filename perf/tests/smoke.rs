//! Every workload at 1/100 size, plus one traced run: each finishes in
//! seconds, passes its own output checks and emits exactly the metrics
//! `BENCHMARK.json` names, once each, with the unit listed there. A run's
//! repetitions echo their own output behind a `rep <k> |` prefix, so only
//! the run's own `metric` lines start a line.

use serde::Deserialize;
use std::process::Command;

#[derive(Deserialize)]
struct Named {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Contract {
    workloads: Vec<Workload>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

fn contract() -> Contract {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// Runs the bench binary in the driver's argument form; returns its
/// `metric` lines as (name, value, unit) and its whole output.
fn run(workload: &str, seed: u64, traced: bool) -> (Vec<(String, f64, String)>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "15"])
        .args(["--trace", if traced { "1" } else { "0" }, "--scale", "100"])
        .output()
        .expect("bench binary starts");
    let text = String::from_utf8(out.stdout).expect("output is UTF-8");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = text
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let mut f = l.split_ascii_whitespace();
            let name = f.next().expect("metric name").to_string();
            let value: f64 = f.next().expect("metric value").parse().expect("value is a number");
            (name, value, f.next().expect("metric unit").to_string())
        })
        .collect();
    (metrics, text)
}

fn assert_matches(listed: &[Named], got: &[(String, f64, String)], output: &str) {
    let last_line = output.lines().last().expect("a last line");
    for (name, value, _) in got {
        assert!(
            !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name `{name}` has a character outside [A-Za-z0-9_.-]"
        );
        assert!(value.is_finite(), "{name} is not a finite number");
    }
    for want in listed {
        let hits: Vec<_> = got.iter().filter(|(n, _, _)| *n == want.name).collect();
        assert_eq!(hits.len(), 1, "{} is printed {} times", want.name, hits.len());
        assert_eq!(hits[0].2, want.unit, "unit of {}", want.name);
        assert!(
            last_line.contains(&format!("\"{}\": {{\"value\": ", want.name)),
            "{} not in the result line",
            want.name
        );
    }
    assert_eq!(got.len(), listed.len(), "metrics printed that BENCHMARK.json does not list");
    assert!(last_line.starts_with("{\"correct\": true, \"attempted\": "), "result line: {last_line}");
    assert!(last_line.contains("\"failed\": 0, "), "result line: {last_line}");
}

#[test]
fn every_workload_emits_the_end_to_end_metrics() {
    let contract = contract();
    assert_eq!(contract.workloads.len(), 4);
    for w in &contract.workloads {
        let (metrics, output) = run(&w.name, 1, false);
        assert_matches(&contract.end_to_end, &metrics, &output);
        for (name, value, _) in &metrics {
            assert!(*value > 0.0, "{}: end-to-end metric {name} is zero", w.name);
        }
    }
}

#[test]
fn a_traced_run_emits_the_per_layer_ledger() {
    let contract = contract();
    let (metrics, output) = run("socket-durable", 1, true);
    assert_matches(&contract.per_layer, &metrics, &output);
    let value = |name: &str| metrics.iter().find(|(n, _, _)| n == name).expect(name).1;
    assert!(value("shard.ckpt.cuts") >= 2.0, "no checkpoint was cut in the timed phase");
    assert!(value("cache.state_bytes") > 0.0);
    let trace = output
        .lines()
        .find_map(|l| l.strip_prefix("traced | spans written to "))
        .expect("the traced repetition names its trace file");
    assert!(trace.ends_with(".d100.trace.json"), "no scale in the name of {trace}");
    let spans = std::fs::read_to_string(trace).expect("the traced run wrote its spans");
    assert!(spans.contains("\"name\":\"cache.process\",\"parent\":\"shadow.frame\""));
}

#[test]
fn a_second_seed_changes_hoc_ohr_and_fails_no_check() {
    let ohr = |seed| {
        let (metrics, _) = run("socket-pingpong", seed, false);
        metrics.iter().find(|(n, _, _)| n == "hoc_ohr").expect("hoc_ohr is printed").1
    };
    assert_ne!(ohr(1), ohr(2));
}
