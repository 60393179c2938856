#!/usr/bin/env bash
# Regenerate every committed BENCH_*.json baseline in results/.
#
#   scripts/bench_all.sh
#
# Runs the benches that have committed baselines (the ones
# ci_bench_gate watches) and the exp_bf_ordering driver (which emits
# BENCH_bf_ordering.json alongside its stdout table). Review the diff and commit it to refresh baselines
# intentionally.
#
# The criterion shim writes to $BENCH_OUT_DIR when set, else to
# <workspace-root>/results/. Relative values are resolved against the
# workspace root by the shim itself (not the per-package CWD `cargo
# bench` runs with), so both absolute and relative overrides are safe.
set -euo pipefail
cd "$(dirname "$0")/.."

benches=(
    bench_distances
    bench_edit_kernel
    bench_buffer_pool
    bench_candidates
    bench_phase1_collapse
    bench_phase2
    bench_service
)

for bench in "${benches[@]}"; do
    echo "==> cargo bench --bench $bench"
    cargo bench -q -p fuzzydedup-bench --bench "$bench"
done

echo "==> exp_bf_ordering (emits BENCH_bf_ordering.json)"
cargo run -q --release -p fuzzydedup-bench --bin exp_bf_ordering

echo
echo "bench_all: baselines refreshed under ${BENCH_OUT_DIR:-results/}"
echo "bench_all: review 'git diff results/' and commit deliberate changes"
