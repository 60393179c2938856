#!/usr/bin/env bash
# The repo benchmark. Builds the benchmark package, then either
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#       runs that one workload once and prints, as the last line of standard
#       output, the result object BENCHMARK.json describes; or
#
#   run.sh [--seed N] [--seconds S] [--smoke]
#       runs every workload, untraced and then traced, each in a process of
#       its own (so peak_rss_mb is per workload), prints every metric by name
#       with its unit, and leaves out/<workload>.json and
#       out/<workload>.trace.json. A workload whose calibration kernel
#       drifted by more than 10 % is reported as noisy and run once more.
#       --smoke runs every workload at 1/20 size for one second with every
#       check on, and also checks that the fuzzydedup CLI gives the same
#       group_id column as the library on rest_fms_pages.
set -euo pipefail

cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
out="benchmark/out"

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/fuzzydedup-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

seed=42
seconds=30
scale=1
smoke=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --smoke) smoke=1; seconds=1; scale=0.05; shift ;;
        *) echo "usage: run.sh [--workload NAME --seed N --seconds S --trace 0|1] | [--seed N] [--seconds S] [--smoke]" >&2; exit 2 ;;
    esac
done

status=0
run_once() { # workload trace
    "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" --scale "$scale" \
        | grep -v '^{'
}
result_file() { # workload trace
    if [ "$2" = 1 ]; then echo "$out/$1.trace.json"; else echo "$out/$1.json"; fi
}
for workload in org_ed_topk rest_fms_pages org_dup_collapse_spill service_replay; do
    for trace in 0 1; do
        run_once "$workload" "$trace" || status=1
        if grep -q '"noisy": true' "$(result_file "$workload" "$trace")"; then
            echo "$workload (trace $trace) was noisy; running it once more" >&2
            run_once "$workload" "$trace" || status=1
        fi
        grep -q '"correct": true' "$(result_file "$workload" "$trace")" || status=1
    done
done

if [ "$smoke" = 1 ]; then
    # CLI ≡ library: the CLI has no flag for the postings source, the pool
    # size or the relational Phase 2, and needs none: all three leave the
    # partition as it is.
    cargo build --release --offline --bin fuzzydedup >&2
    cli="${CARGO_TARGET_DIR:-target}/release/fuzzydedup"
    "$cli" --input "$out/rest_fms_pages.input.csv" --distance fms --theta 0.3 --c 4 \
        --minimality --threads 2 --output "$out/rest_fms_pages.cli.csv" 2>/dev/null
    if cmp -s "$out/rest_fms_pages.cli.csv" "$out/rest_fms_pages.output.csv"; then
        echo "rest_fms_pages CLI output equals the library's"
    else
        echo "CHECK FAILED: rest_fms_pages CLI output differs from the library's" >&2
        status=1
    fi
fi

if [ "$status" = 0 ]; then echo "benchmark: every check passed"; else echo "benchmark: FAILED" >&2; fi
exit "$status"
