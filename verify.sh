#!/usr/bin/env bash
# Full verification gate: build, test, benchmark smoke and regression gate,
# docs, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== the serving path does not link the simulator (darwin-shard, darwin-gateway: no darwin-testbed) =="
for crate in darwin-shard darwin-gateway; do
    tree=$(cargo tree --locked --offline -e normal -p "$crate")
    if grep -q darwin-testbed <<< "$tree"; then
        echo "$crate depends on darwin-testbed" >&2
        exit 1
    fi
done

echo "== tests (workspace: unit, property and integration suites of every crate) =="
cargo test --workspace -q

echo "== repo benchmark still builds and runs (perf/: 1/100-size smoke of all four workloads + one traced run) =="
cargo test --release --manifest-path perf/Cargo.toml -q

echo "== repo benchmark regression gate (every workload correct, rps >= half, setup_s <= 2x and heap_peak_mb <= 1.02x of results/perf_baseline.json) =="
for workload in socket-bulk socket-pingpong socket-durable lanes-darwin; do
    cargo run --release --quiet --manifest-path perf/Cargo.toml -- run "$workload" --seed 1 \
        | cargo run --release --quiet -p darwin-bench --bin perf_gate -- results/perf_baseline.json "$workload"
done

echo "== paper fidelity (experiments all at scales 1 and 2 each write their 33 pinned outputs, and no other file but overhead.csv) =="
ci/paper_fidelity.sh

if cargo +nightly --version > /dev/null 2>&1; then
    echo "== sanitizers (TSan over the shard queue and the reply sink, ASan over darwin-ckpt; nightly only) =="
    ci/sanitize.sh
fi

echo "== rustdoc (--no-deps, warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== rustfmt (--check) =="
cargo fmt --all -- --check

echo "== clippy (-D warnings, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== verify: all green =="
