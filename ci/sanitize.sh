#!/usr/bin/env bash
# Sanitizers over the code that holds `unsafe`: ThreadSanitizer over
# darwin-shard's lock-free queue unit tests, AddressSanitizer over
# darwin-ckpt's suites. Not part of tier-1 (about half a minute warm on 2
# cores); needs a nightly toolchain, and verify.sh runs it only when
# `cargo +nightly` is installed.
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

echo "== ThreadSanitizer: darwin-shard queue unit tests =="
RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer" \
TSAN_OPTIONS="suppressions=$PWD/ci/tsan.supp" \
    cargo +nightly test -q -p darwin-shard --lib --target "$target" \
        --target-dir target/sanitize-thread queue

echo "== AddressSanitizer: darwin-ckpt =="
RUSTFLAGS="-Zsanitizer=address -Cunsafe-allow-abi-mismatch=sanitizer" \
    cargo +nightly test -q -p darwin-ckpt --target "$target" \
        --target-dir target/sanitize-address
