//! The two binaries refuse a bad command line before they touch a socket:
//! each exits non-zero and names the offending flag on stderr.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

/// [`run`] for a command line a broken binary would boot on: a binary still
/// up after ten seconds is killed, so the refusal check fails instead of
/// hanging the suite.
fn run_bounded(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll binary").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    child.wait_with_output().expect("collect binary output")
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

#[test]
fn an_out_of_range_size_is_refused_not_a_panic() {
    let gateway = env!("CARGO_BIN_EXE_gateway");
    let refused = |args: &[&str], needles: &[&str]| {
        let args = [&["--addr", "127.0.0.1:0"], args].concat();
        assert_refused(&run_bounded(gateway, &args), needles);
    };
    refused(&["--shards", "0"], &["--shards takes 1..=256, got 0"]);
    refused(&["--queue", "0"], &["--queue must be positive"]);
    refused(&["--batch", "0"], &["--batch must be positive"]);
    refused(&["--shards", "257"], &["--shards takes 1..=256, got 257"]);
    refused(&["--replicas", "2", "--checkpoint-every", "100"], &["--replicas takes 0 or 1", "got 2"]);
    refused(&["--replicas", "1"], &["--replicas 1 requires --checkpoint-every"]);
    refused(
        &["--replicas", "1", "--checkpoint-every", "0"],
        &["--replicas 1 requires --checkpoint-every"],
    );
}
