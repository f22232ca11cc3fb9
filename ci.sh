#!/usr/bin/env bash
# CI gate for the VIBNN reproduction. Later PRs must keep every step
# green; the first two lines are the repository's tier-1 verify.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --no-run

echo "==> cargo doc --workspace --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace (deny warnings)"
    cargo clippy --workspace -- -D warnings
else
    echo "==> NOTICE: clippy unavailable (offline toolchain); skipping lint step"
fi

echo "==> train-determinism suite (bit-identity at 1/2/4 threads)"
cargo test -q --test train_determinism

echo "==> lane-determinism suite (LANES contract vs single-chain oracle, all float paths)"
cargo test -q --test lane_determinism

echo "==> steady-state zero-allocation suite (StepArena contract)"
cargo test -q --test alloc_steady_state

echo "==> serve-determinism suite (engine == batched inference, any order/worker count)"
cargo test -q --test serve_determinism

echo "==> cluster-determinism suite (cluster == engine == batched, any replica count, hot swap)"
cargo test -q --test cluster_determinism

echo "==> online-determinism suite (full loop bit-identical across thread counts and kill/resume)"
cargo test -q --test online_determinism

echo "==> kernel-oracle suite (fast QFormat arithmetic and flat quantized kernel == retained pre-rewrite oracles)"
cargo test -q -p vibnn_fixed kernel_oracle
cargo test -q -p vibnn_hw kernel_oracle

echo "==> backend-determinism suite (quantized == historical path, cycle == ticked model, mixed-pool attribution)"
cargo test -q --test backend_determinism

echo "==> ingest protocol suite (fault injection over live sockets; skips itself if sockets are unavailable)"
cargo test -q --test ingest_protocol

echo "==> ingest determinism suite (wire == direct submit, lanes/deadlines; skips itself if sockets are unavailable)"
cargo test -q --test ingest_determinism

echo "==> sampler determinism suite (ExactN == pre-policy bits, EarlyExit invariant everywhere, typed abstentions)"
cargo test -q --test sampler_determinism

echo "==> VIBNN_SCALE=quick smoke run (table1 + machine-readable GRNG bench)"
VIBNN_SCALE=quick cargo run --release -p vibnn_bench --bin table1
VIBNN_SCALE=quick VIBNN_BENCH_OUT="target/BENCH_grng.json" \
    cargo run --release -p vibnn_bench --bin bench_grng

echo "==> VIBNN_SCALE=quick training-engine bench (machine-readable, asserts bit-identity)"
VIBNN_SCALE=quick VIBNN_BENCH_OUT="target/BENCH_train.json" \
    cargo run --release -p vibnn_bench --bin bench_train
for field in phase_seconds allocations_per_step; do
    grep -q "\"$field\"" target/BENCH_train.json \
        || { echo "FAIL: BENCH_train.json lacks the $field breakdown"; exit 1; }
done

echo "==> VIBNN_SCALE=quick serving bench (machine-readable, asserts serve == batched and ExactN == batched)"
VIBNN_SCALE=quick VIBNN_BENCH_OUT="target/BENCH_serve.json" \
    cargo run --release -p vibnn_bench --bin bench_serve
for field in samples_used_mean policy_speedup; do
    grep -q "\"$field\"" target/BENCH_serve.json \
        || { echo "FAIL: BENCH_serve.json lacks the $field field"; exit 1; }
done

echo "==> VIBNN_SCALE=quick cluster bench (machine-readable, asserts cluster == batched)"
VIBNN_SCALE=quick VIBNN_BENCH_OUT="target/BENCH_cluster.json" \
    cargo run --release -p vibnn_bench --bin bench_cluster

echo "==> VIBNN_SCALE=quick ingest bench (real sockets, asserts wire == direct submit; writes a stub if sockets are unavailable)"
VIBNN_SCALE=quick VIBNN_BENCH_OUT="target/BENCH_ingest.json" \
    cargo run --release -p vibnn_bench --bin bench_ingest

echo "==> VIBNN_SCALE=quick backend bench (software/quantized/cycle, asserts determinism before timing)"
VIBNN_SCALE=quick VIBNN_BENCH_OUT="target/BENCH_backend.json" \
    cargo run --release -p vibnn_bench --bin bench_backend
for field in cycles_per_request energy_nj_per_request energy_nj_per_mac \
    weight_sample_ns_per_weight forward_ns_per_mac; do
    grep -q "\"$field\"" target/BENCH_backend.json \
        || { echo "FAIL: BENCH_backend.json lacks the $field field"; exit 1; }
done

echo "==> repo benchmark builds and gates cycle_hil (served Cycle bits == infer_forked, cycles/image == Schedule)"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload cycle_hil --seed 1 --seconds 1 --trace 0

echo "==> VIBNN_SCALE=quick online bench (drift loop, asserts report bit-identity and adaptive >= baseline)"
VIBNN_SCALE=quick VIBNN_BENCH_OUT="target/BENCH_online.json" \
    cargo run --release -p vibnn_bench --bin bench_online
for field in drift_accuracy_adaptive drift_accuracy_baseline swaps_completed; do
    grep -q "\"$field\"" target/BENCH_online.json \
        || { echo "FAIL: BENCH_online.json lacks the $field field"; exit 1; }
done

echo "CI green."
