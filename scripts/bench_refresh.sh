#!/usr/bin/env bash
# Refresh committed BENCH_*.json baselines with the worst-window protocol.
#
#   scripts/bench_refresh.sh                 # all gated benches
#   scripts/bench_refresh.sh bench_candidates [bench_...]
#   BENCH_REFRESH_PASSES=5 scripts/bench_refresh.sh
#
# A single `cargo bench` pass commits whatever `min_ns` one quiet
# scheduler window produced — a baseline later runs can't reproduce, so
# the regression gate cries wolf. This script codifies the worst-window
# protocol instead:
#
#   1. run every bench N times (BENCH_REFRESH_PASSES, default 3), each
#      pass into its own scratch directory;
#   2. merge per benchmark row by taking the pass with the *largest*
#      min_ns (`bench_merge`, the whole winning row), writing the merged
#      artifacts over results/;
#   3. run one fresh ci_bench_gate pass against the merged baseline to
#      confirm a from-scratch run actually lands inside the tolerance.
#
# Review `git diff results/` and commit deliberate changes.
set -euo pipefail
cd "$(dirname "$0")/.."

passes="${BENCH_REFRESH_PASSES:-3}"
if ! [[ "$passes" =~ ^[0-9]+$ ]] || [[ "$passes" -lt 1 ]]; then
    echo "bench_refresh: BENCH_REFRESH_PASSES must be a positive integer, got '$passes'" >&2
    exit 2
fi

# Default: the benches ci_bench_gate watches (keep in sync with
# CHEAP_BENCHES in crates/bench/src/bin/ci_bench_gate.rs).
benches=("$@")
if [[ ${#benches[@]} -eq 0 ]]; then
    benches=(
        bench_edit_kernel
        bench_distances
        bench_buffer_pool
        bench_candidates
        bench_phase1_collapse
        bench_phase2
        bench_service
    )
fi

scratch="$(mktemp -d "${TMPDIR:-/tmp}/bench_refresh.XXXXXX")"
trap 'rm -rf "$scratch"' EXIT

echo "==> building bench harness"
cargo build -q --release -p fuzzydedup-bench --bin bench_merge --bin ci_bench_gate

for ((p = 1; p <= passes; p++)); do
    pass_dir="$scratch/pass_$p"
    mkdir -p "$pass_dir"
    for bench in "${benches[@]}"; do
        echo "==> pass $p/$passes: cargo bench --bench $bench"
        BENCH_OUT_DIR="$pass_dir" cargo bench -q -p fuzzydedup-bench --bench "$bench"
    done
done

pass_dirs=()
for ((p = 1; p <= passes; p++)); do pass_dirs+=("$scratch/pass_$p"); done

echo "==> worst-window merge of $passes passes -> results/"
cargo run -q --release -p fuzzydedup-bench --bin bench_merge -- \
    --out results "${pass_dirs[@]}"

# Confirmation: one fresh gate pass against the just-merged baseline. If
# this fails, the machine is too noisy for the tolerance (or a pass was
# unluckily fast everywhere) — rerun with more passes before committing.
echo "==> confirmation: ci_bench_gate against the refreshed baseline"
env BENCH_GATE_TOLERANCE="${BENCH_GATE_TOLERANCE:-0.35}" \
    cargo run -q --release -p fuzzydedup-bench --bin ci_bench_gate

# ---- headline trajectory --------------------------------------------
# Append the headline min_ns rows of this refresh to
# results/BENCH_trajectory.json (a JSON array, one entry per refresh), so
# the per-PR performance story is readable without digging through git
# history of the individual artifacts. The headline row is the live
# service's bench_service/replay/ingest_per_record; the repo benchmark's
# end-to-end medians are appended per PR by hand (see results/README.md).
trajectory="results/BENCH_trajectory.json"
extract_min_ns() { # file row-name -> min_ns or empty
    [[ -f "$1" ]] || return 0
    sed -n "s/.*\"name\": \"$2\", \"mean_ns\": [0-9.]*, \"min_ns\": \([0-9.]*\).*/\1/p" "$1"
}
service_ingest="$(extract_min_ns results/BENCH_service.json 'replay\/ingest_per_record')"
if [[ -n "$service_ingest" ]]; then
    entry="{\"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\", \"passes\": $passes"
    entry+=", \"service_ingest_per_record_min_ns\": $service_ingest}"
    if [[ -s "$trajectory" ]]; then
        # Append before the closing bracket of the existing array.
        tmp="$(mktemp)"
        sed '$ d' "$trajectory" > "$tmp" # drop trailing "]"
        # Add a comma to the previous last entry unless the array is empty.
        if grep -q '}' "$tmp"; then sed -i '$ s/$/,/' "$tmp"; fi
        printf '  %s\n]\n' "$entry" >> "$tmp"
        mv "$tmp" "$trajectory"
    else
        printf '[\n  %s\n]\n' "$entry" > "$trajectory"
    fi
    echo "bench_refresh: headline trajectory appended -> $trajectory"
fi

echo
echo "bench_refresh: baselines refreshed (worst window of $passes passes)"
echo "bench_refresh: review 'git diff results/' and commit deliberate changes"
