#!/usr/bin/env bash
# Sanitizers over the code that holds `unsafe`: ThreadSanitizer over
# darwin-shard's lock-free queue unit tests (plus one whole-fleet test),
# AddressSanitizer over darwin-ckpt's suites. Not part of tier-1 (about
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
# one whole-fleet test, kept for a clean TSan run of lanes and workers. A
# run that passes any other number of tests fails, so a renamed or moved
# test cannot silently leave (or join) the run.
echo "== ThreadSanitizer: darwin-shard queue unit tests + one fleet test =="
log=$(mktemp)
trap 'rm -f "$log"' EXIT
RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer" \
TSAN_OPTIONS="suppressions=$PWD/ci/tsan.supp" \
    cargo +nightly test -q -p darwin-shard --lib --target "$target" \
        --target-dir target/sanitize-thread \
        -- queue::tests:: fleet::tests::delay_and_queue_full_faults_do_not_change_results \
    2>&1 | tee "$log"
grep -q "test result: ok. 12 passed;" "$log" || { echo "TSan must run exactly 12 tests" >&2; exit 1; }

echo "== AddressSanitizer: darwin-ckpt =="
RUSTFLAGS="-Zsanitizer=address -Cunsafe-allow-abi-mismatch=sanitizer" \
    cargo +nightly test -q -p darwin-ckpt --target "$target" \
        --target-dir target/sanitize-address
