#!/usr/bin/env bash
# Full verification gate: build, test, benchmark smoke and regression gate,
# docs, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== tests (workspace: unit, property and integration suites of every crate) =="
cargo test --workspace -q

echo "== repo benchmark still builds and runs (perf/: 1/100-size smoke of all four workloads + one traced run) =="
cargo test --release --manifest-path perf/Cargo.toml -q

echo "== repo benchmark regression gate (every workload correct, rps >= half, setup_s <= 2x and heap_peak_mb <= 1.02x of results/perf_baseline.json) =="
for workload in socket-bulk socket-pingpong socket-durable lanes-darwin; do
    cargo run --release --quiet --manifest-path perf/Cargo.toml -- run "$workload" --seed 1 \
        | cargo run --release --quiet -p darwin-bench --bin perf_gate -- results/perf_baseline.json "$workload"
done

echo "== paper fidelity (experiments switching, fig2, table2 write the pinned bytes) =="
ci/paper_fidelity.sh

echo "== rustdoc (--no-deps, warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== rustfmt (--check) =="
cargo fmt --all -- --check

echo "== clippy (-D warnings, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== verify: all green =="
