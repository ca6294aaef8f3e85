#!/usr/bin/env bash
# Sanitizers: ThreadSanitizer over darwin-shard's queue unit tests (each
# shard queue is a Mutex<VecDeque> with a condvar per side; the tests cover
# its blocking, wake-up, close and gauge paths) plus two whole-fleet tests,
# and AddressSanitizer over darwin-ckpt's suites (the workspace's one
# `unsafe` site, the CLMUL CRC call, lives there). Not part of tier-1 (about
# half a minute warm on 2 cores); needs a nightly toolchain, and verify.sh
# runs it only when `cargo +nightly` is installed.
#
# The nightly toolchain has no rust-src, so `-Zbuild-std` cannot rebuild
# std with instrumentation: TSan does not see the synchronization inside
# std and reports races in `Arc`'s drop and the test harness.
# ci/tsan.supp suppresses exactly those frames, none in this repository.
# Each sanitizer builds into its own target directory.
#
# usage: ci/sanitize.sh
set -euo pipefail
cd "$(dirname "$0")/.."
target=x86_64-unknown-linux-gnu

# The TSan run is chosen by full test path: the eleven `queue::tests` and
# two whole-fleet tests, one for a clean TSan run of lanes and workers and
# one polling the metrics cells while shards die, restart and fail over. A
# run that passes any other number of tests fails, so a renamed or moved
# test cannot silently leave (or join) the run.
echo "== ThreadSanitizer: darwin-shard queue unit tests + two fleet tests =="
log=$(mktemp)
trap 'rm -f "$log"' EXIT
RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer" \
TSAN_OPTIONS="suppressions=$PWD/ci/tsan.supp" \
    cargo +nightly test -q -p darwin-shard --lib --target "$target" \
        --target-dir target/sanitize-thread \
        -- queue::tests:: fleet::tests::delay_and_queue_full_faults_do_not_change_results \
        fleet::tests::polled_snapshots_never_see_a_ledger_go_backwards \
    2>&1 | tee "$log"
grep -q "test result: ok. 13 passed;" "$log" || { echo "TSan must run exactly 13 tests" >&2; exit 1; }

echo "== AddressSanitizer: darwin-ckpt =="
RUSTFLAGS="-Zsanitizer=address -Cunsafe-allow-abi-mismatch=sanitizer" \
    cargo +nightly test -q -p darwin-ckpt --target "$target" \
        --target-dir target/sanitize-address
