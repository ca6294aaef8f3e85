#!/usr/bin/env bash
# Full verification gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== tests (workspace) =="
cargo test --workspace -q

echo "== shard fleet equivalence (1, 2, 8 shards) =="
cargo test -p darwin-shard --test equivalence -q -- \
    darwin_fleet_equivalent_at_1_shard \
    darwin_fleet_equivalent_at_2_shards \
    darwin_fleet_equivalent_at_8_shards

echo "== batched ingest equivalence (push_batch + producer lanes ≡ replay) =="
cargo test -p darwin-shard --test batched_ingest -q

echo "== gateway loopback smoke (127.0.0.1 replay ≡ in-process replay) =="
cargo test -p darwin-gateway --test loopback -q -- \
    static_gateway_equivalent_to_sequential_replay \
    darwin_gateway_equivalent_to_sequential_replay \
    stats_frame_returns_parseable_snapshot \
    shutdown_frame_drains_gateway \
    resize_frame_reshards_a_ring_gateway \
    hash_gateway_resizes_under_a_live_connection \
    hostile_resize_targets_get_error_acks_and_the_connection_keeps_serving \
    scripted_panic_then_resize_conserves_the_ledger

echo "== chaos: fault-plan conservation (proptest + bitwise regression) =="
cargo test -p darwin-shard --test chaos -q

echo "== journal determinism (byte-identical journals at 1, 2, 8 shards; zero dropped events) =="
cargo test -p darwin-shard --test journal_determinism -q

echo "== restore equivalence (boundary-kill warm restore bitwise at 1, 2, 8 shards) =="
cargo test -p darwin-shard --test restore -q -- \
    warm_boundary_restore_bitwise_at_1_shard \
    warm_boundary_restore_bitwise_at_2_shards \
    warm_boundary_restore_bitwise_at_8_shards \
    corrupted_checkpoint_falls_back_cold_bitwise

echo "== failover equivalence (standby promotion bitwise at 1, 2, 8 shards; zero Unavailable) =="
cargo test -p darwin-shard --test failover -q

echo "== cut envelope (both roles) + delta + RESIZE wire hostile corpus (never panic, never silent mis-apply) =="
cargo test -p darwin-rebalance --test codec_props -q
cargo test -p darwin-gateway --test wire_codec -q

echo "== delta matcher byte-identity (flat-index matcher ≡ the HashMap oracle, frame for frame) =="
cargo test -p darwin-shard --test delta_identity -q

echo "== repo benchmark still builds and runs (perf/: 1/100-size smoke of all four workloads + one traced run) =="
cargo test --release --manifest-path perf/Cargo.toml -q

echo "== repo benchmark regression gate (every workload correct, rps >= half and heap_peak_mb <= 1.02x of results/perf_baseline.json) =="
for workload in socket-bulk socket-pingpong socket-durable lanes-darwin; do
    cargo run --release --quiet --manifest-path perf/Cargo.toml -- run "$workload" --seed 1 \
        | cargo run --release --quiet -p darwin-bench --bin perf_gate -- results/perf_baseline.json "$workload"
done

echo "== chaos bench smoke (scripted shard deaths, exactly-once answering) =="
cargo run --release -p darwin-bench --bin experiments -- chaos --out target/chaos_smoke

echo "== recovery bench smoke (warm vs cold hit-ratio recovery) =="
cargo run --release -p darwin-bench --bin experiments -- recovery --out target/recovery_smoke

echo "== shard scaling smoke (live rps must bend upward with shard count) =="
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -le 1 ]; then
    echo "   skipped: $cores core visible — live scaling needs cores to spare"
else
    cargo run --release -p darwin-bench --bin experiments -- shard --out target/shard_smoke
    awk '
        /"shards": 1,/ { want = 1 }
        /"shards": 8,/ { want = 8 }
        /"live_rps":/  {
            gsub(/[",]/, "")
            if (want == 1) one = $2
            if (want == 8) eight = $2
            want = 0
        }
        END {
            if (one <= 0 || eight <= 0) { print "   missing live_rps rows"; exit 1 }
            ratio = eight / one
            printf "   live rps: 1 shard %.0f, 8 shards %.0f (%.2fx)\n", one, eight, ratio
            if (ratio <= 1.5) {
                print "   FAIL: live rps at 8 shards must exceed 1.5x the 1-shard rate"
                exit 1
            }
        }' target/shard_smoke/BENCH_shard.json
fi

echo "== overload: shed-conservation ledger (processed+dropped+unavailable+shed at 1, 2, 8 shards) =="
cargo test -p darwin-shard --test overload -q

echo "== overload: gateway valves (slow-client eviction, throttle fairness, net-fault chaos) =="
cargo test -p darwin-gateway --test overload -q

echo "== overload bench smoke (flash crowd: ledger, fairness, journal determinism over sockets) =="
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -le 1 ]; then
    echo "   skipped: $cores core visible — greedy client + fair cohort need cores to spare"
else
    cargo run --release -p darwin-bench --bin experiments -- overload --out target/overload_smoke
    awk '
        /"starved_conns":/ { gsub(/[",]/, ""); if ($2 + 0 > 0) { print "   FAIL: a fair connection starved"; exit 1 } }
        /"identical":/     { gsub(/[",]/, ""); if ($2 != "true") { print "   FAIL: net-fault journals diverged across reruns"; exit 1 } seen = 1 }
        END { if (!seen) { print "   missing identical field"; exit 1 } print "   ledger + fairness + determinism asserts held (see BENCH_overload.json)" }
    ' target/overload_smoke/BENCH_overload.json
fi

echo "== rebalance: 4->8->4 resize equivalence (ledger, journal, bitwise reruns) =="
cargo test -p darwin-rebalance --test resize -q

echo "== rebalance bench smoke (zero Unavailable, dip recovered within one checkpoint window) =="
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -le 1 ]; then
    echo "   skipped: $cores core visible — the live elastic fleet needs cores to spare"
else
    cargo run --release -p darwin-bench --bin experiments -- rebalance --out target/rebalance_smoke
    awk '
        /"unavailable":/ { gsub(/[",]/, ""); if ($2 + 0 > 0) { print "   FAIL: Unavailable verdicts during resize"; exit 1 } }
        /"conserved":/   { gsub(/[",]/, ""); if ($2 != "true") { print "   FAIL: conservation ledger broken"; exit 1 } seen = 1 }
        END { if (!seen) { print "   missing conserved field"; exit 1 } print "   conservation + recovery asserts held (see BENCH_rebalance.json)" }
    ' target/rebalance_smoke/BENCH_rebalance.json
fi

echo "== failover bench smoke (zero Unavailable with a standby, quantified fraction without) =="
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -le 1 ]; then
    echo "   skipped: $cores core visible — the replicated fleet needs cores to spare"
else
    cargo run --release -p darwin-bench --bin experiments -- failover --out target/failover_smoke
    awk '
        /"scenario": "replicated"/   { mode = "rep" }
        /"scenario": "unreplicated"/ { mode = "unrep" }
        /"unavailable":/ {
            gsub(/[",]/, "")
            if (mode == "rep" && $2 + 0 > 0) { print "   FAIL: Unavailable verdicts despite a hot standby"; exit 1 }
            if (mode == "unrep" && $2 + 0 == 0) { print "   FAIL: baseline lost its degradation — nothing to erase"; exit 1 }
        }
        /"failovers":/ { gsub(/[",]/, ""); if (mode == "rep" && $2 + 0 != 1) { print "   FAIL: expected exactly one promotion"; exit 1 } seen = 1 }
        END { if (!seen) { print "   missing failovers field"; exit 1 } print "   zero-Unavailable + promotion asserts held (see BENCH_failover.json)" }
    ' target/failover_smoke/BENCH_failover.json
fi

echo "== rustdoc (--no-deps, warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== rustfmt (--check) =="
cargo fmt --all -- --check

echo "== clippy (-D warnings, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== verify: all green =="
