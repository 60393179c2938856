#!/usr/bin/env bash
# Append one entry to results/BENCH_trajectory.json: the repo benchmark's
# reading of the tree as it stands.
#
#   scripts/trajectory_append.sh --pr N
#
# Runs `benchmark/run.sh --workload W --seed 42 --seconds 30 --trace 0` for
# the four workloads, takes the last line of each run's standard output —
# the result object BENCHMARK.json describes, verbatim, nothing parsed —
# and appends {"date", "commit", "pr", "results": {W: ...}} before the
# array's closing bracket. It reads benchmark/'s output and edits nothing
# under it. "commit" is `git describe --always --dirty`: run before the
# PR's commit exists, it names the parent with a -dirty suffix.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 2 || "$1" != "--pr" || ! "$2" =~ ^[0-9]+$ ]]; then
    echo "usage: scripts/trajectory_append.sh --pr <number>" >&2
    exit 2
fi
trajectory="results/BENCH_trajectory.json"

results=""
for workload in org_ed_topk rest_fms_pages org_dup_collapse_spill service_replay; do
    echo "==> $workload" >&2
    result="$(bash benchmark/run.sh --workload "$workload" --seed 42 --seconds 30 --trace 0 | tail -n 1)"
    if [[ "$result" != \{* ]]; then
        echo "trajectory_append: $workload printed no result object" >&2
        exit 1
    fi
    results+="${results:+, }\"$workload\": $result"
done
entry="{\"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\", \"commit\": \"$(git describe --always --dirty)\""
entry+=", \"pr\": $2, \"results\": {$results}}"

# Drop the closing bracket, put a comma after the last entry, append.
tmp="$(mktemp)"
sed '$ d' "$trajectory" | sed '$ s/$/,/' > "$tmp"
printf '  %s\n]\n' "$entry" >> "$tmp"
mv "$tmp" "$trajectory"
echo "trajectory_append: PR $2 appended -> $trajectory" >&2
