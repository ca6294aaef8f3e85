//! The two binaries refuse a bad command line before they touch a socket:
//! each exits non-zero and names the offending flag on stderr.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

/// Asserts `out` is a refusal whose stderr mentions every one of `needles`.
fn assert_refused(out: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "stderr {stderr:?} does not name {needle:?}");
    }
    assert!(!stderr.contains("panicked"), "a refusal is not a panic: {stderr}");
}

#[test]
fn a_flag_without_its_value_is_named_not_a_panic() {
    let gateway = env!("CARGO_BIN_EXE_gateway");
    assert_refused(&run(gateway, &["--shards"]), &["--shards needs a value"]);
    assert_refused(&run(gateway, &["--router"]), &["--router needs a value"]);
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    assert_refused(&run(loadgen, &["--addr"]), &["--addr needs a value"]);
    assert_refused(&run(loadgen, &["--requests", "100", "--resize"]), &["--resize needs a value"]);
}

#[test]
fn an_unparsable_value_or_unknown_flag_is_named() {
    let gateway = env!("CARGO_BIN_EXE_gateway");
    assert_refused(&run(gateway, &["--shards", "four"]), &["--shards", "four"]);
    assert_refused(&run(gateway, &["--vnodes", "64"]), &["unknown flag --vnodes"]);
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    assert_refused(&run(loadgen, &["--seed", "-1"]), &["--seed", "-1"]);
}

#[test]
fn the_ring_router_is_refused_with_its_successor_named() {
    let gateway = env!("CARGO_BIN_EXE_gateway");
    assert_refused(&run(gateway, &["--router", "ring"]), &["--router ring", "--router jump"]);
    assert_refused(&run(gateway, &["--router", "modulo"]), &["--router takes hash or jump"]);
}
