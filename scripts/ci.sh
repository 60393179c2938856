#!/usr/bin/env bash
# Tiered CI driver: every quality gate the repo has, in cheap-to-expensive
# order, with a per-stage pass/fail summary, a machine-readable
# results/ci_summary.json and the tracked results/ledger.json.
#
#   scripts/ci.sh                 # all stages
#   scripts/ci.sh --fast          # tier-1 only: build + root tests
#   scripts/ci.sh --skip-bench    # all stages except tripwire, scale-smoke, service-smoke
#   scripts/ci.sh --stage NAME    # exactly one stage (e.g. --stage tripwire)
#
# Stages (ROADMAP.md tier-1 is build + test):
#   build         cargo build --release
#   fmt           cargo fmt --check
#   clippy        cargo clippy --workspace --all-targets -- -D warnings
#   test          cargo test -q (tier-1 root suite)
#   test-ws       cargo test -q --workspace
#   test-interleave
#                 the metrics/textdist/nnindex/core lib suites again at
#                 --test-threads 16, so a test that depends on what its
#                 neighbours do fails on a 2-vCPU box and not first on a
#                 hosted runner (the process-global counter table made
#                 fuzzydedup-core fail most runs from 4 threads up; ~30 s)
#   test-release  cargo test -q --release -p fuzzydedup-textdist
#                 -p fuzzydedup-nnindex: the kernels' shipped build — no
#                 debug_assert, inline(always) / const-generic scans, the
#                 AVX2 chunk kernel, the scoreboard drain's set_len —
#                 which the debug-profile stages above never run
#                 (--skip-bench runs it, --fast does not). Prints
#                 "avx2: detected" or "avx2: absent": the oracle tests
#                 run the AVX2 lanes only where the CPU has them, so a
#                 green run on a box without AVX2 has tested the
#                 portable lanes alone
#   e2e-smoke     benchmark/run.sh --smoke: the repo benchmark at 1/20
#                 size with every check on. The benchmark package
#                 path-depends on crates/* but sits outside the
#                 workspace, so this is the only stage that notices
#                 when an API change stops it compiling
#   recall-smoke  exp_index_recall: every index type vs the exact
#                 nested-loop reference, with the candidate ladder
#                 asserted recall-lossless (filtered vs
#                 UnfilteredDistance), postings in memory and on pages
#                 asserted to answer capped lookups alike, and the
#                 exact-duplicate collapse pre-pass asserted
#                 partition-lossless on a duplicate-heavy corpus for
#                 every index family; then
#                 exp_bf_ordering at 2,000 records, which asserts Figure
#                 8's shape (breadth-first order has the highest buffer
#                 hit ratio) — the evidence the pipeline's lookup order
#                 rests on
#   tripwire      every micro-measurement the docs rest a claim on, as a
#                 ratio to a control timed alternately in the same
#                 process (crates/bench/src/bin/tripwire.rs); nothing is
#                 compared with a committed number, so there is no
#                 tolerance and no retry; the rows land in
#                 results/ci_summary.json as "tripwire"
#   scale-smoke   exp_scale_1m at 50k records: the full spill-backed,
#                 work-stealing pipeline end to end on a FileDisk pool
#   service-smoke exp_service_replay at 5k records: mixed ingest/query
#                 through the live dedup service as `fuzzydedup replay`
#                 builds it, drain-identity asserted; also fails if the
#                 service's writer thread panicked, or if ingest took
#                 more than 4x the batch run on the same records
#   ledger        on every run, whatever the flags: results/ledger.json
#                 regenerated and compared with the committed file (below)
#
# Every run also counts the ROADMAP's ledgers and writes them to the
# tracked results/ledger.json, one number to a line. The "ledger" row of
# the stage table fails when the regenerated file differs from the
# committed (or staged) one: a change that moves a number commits the new
# file, so the diff shows the move. The ledgers are the line ledger,
# "rust_lines" — Rust outside vendored/ and benchmark/, total and per
# crate, and on a line of its own the oracle: crates/reference (the
# paper's definitions written naively) with the two suites holding
# production to it; the options ledger, "config_fields": the `pub` fields
# of every configuration struct, the `pub fn`s of
# `IncrementalDedupBuilder` ("builder_fns", the incremental path's option
# surface), the distinct `--flags` of the CLI's usage text, the variants of
# `DistanceKind` ("distance_kinds") and `CollapseKey` ("collapse_keys") and
# the `fn`s declared in `trait Distance` ("distance_methods") and `trait
# NnIndex` ("nnindex_methods"), so "a simplicity PR adds no options" is
# read off a diff of that file; the unsafe ledger, "unsafe_sites": `grep -c
# unsafe` per source file under crates/*/src and src (files that have
# any), totalled per directory; the unwrap ledger, "unwrap_sites": the
# lines calling `unwrap()` or `expect(` in each .rs file under
# crates/*/src and src, up to the file's `#[cfg(test)] mod`, totalled
# per directory — the places a program can still panic on an `Option` or
# a `Result` (78 when it was introduced; a change should not raise it);
# the atomic ledger, "atomic_sites": counted the same way, the lines naming
# a memory ordering (`Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}`)
# or calling `fence(` — the places whose correctness rests on an ordering
# argument rather than on a lock or on `&mut` (52 when it was introduced,
# 38 once the pair memo's seqlock left core, 1 once the service's and
# storage's counters moved under the locks they sit beside: what is left
# is Phase 1's work-stealing cursor, which has no lock to sit under);
# and "core_pub_modules", the `pub mod` lines of crates/core/src/lib.rs.
# What depends on the machine or the run — the toolchain ("rustc":
# `rustc --version`, which must be at least Cargo.toml's rust-version),
# whether the CPU has AVX2 ("avx2"), the stages' results and wall times
# and the tripwire's rows — goes to the untracked results/ci_summary.json.
#
# Exits non-zero if any attempted stage fails; later stages still run so
# one summary shows everything that is broken.
set -uo pipefail
cd "$(dirname "$0")/.."

all_stages=(build fmt clippy test test-ws test-interleave test-release e2e-smoke recall-smoke tripwire scale-smoke service-smoke)

fast=0
skip_bench=0
only_stage=""
case "${1:-}" in
    --fast) fast=1 ;;
    --skip-bench) skip_bench=1 ;;
    --stage)
        # Stage names are validated up front: an unknown or missing name
        # exits 2 with the full stage list, before any work starts — a
        # typo must not silently skip every stage and report "OK".
        only_stage="${2:-}"
        if [[ -z "$only_stage" ]]; then
            echo "usage: scripts/ci.sh --stage <name> (stages: ${all_stages[*]})" >&2; exit 2
        fi
        if [[ $# -gt 2 ]]; then
            echo "ci: unexpected arguments after --stage $only_stage: ${*:3}" >&2; exit 2
        fi
        known=0
        for s in "${all_stages[@]}"; do [[ "$s" == "$only_stage" ]] && known=1; done
        if [[ $known -eq 0 ]]; then
            echo "ci: unknown stage '$only_stage' (stages: ${all_stages[*]})" >&2; exit 2
        fi
        ;;
    "") ;;
    *) echo "usage: scripts/ci.sh [--fast|--skip-bench|--stage <name>]" >&2; exit 2 ;;
esac

rustc_version="$(rustc --version 2>/dev/null || echo unknown)"
# What `is_x86_feature_detected!("avx2")` will see (Linux, then macOS).
avx2="absent"
if grep -qw avx2 /proc/cpuinfo 2>/dev/null ||
    sysctl -n machdep.cpu.leaf7_features 2>/dev/null | grep -qw AVX2; then
    avx2="detected"
fi

stages=()      # name
results=()     # pass | FAIL | skipped
seconds=()     # wall seconds per stage
overall=0
tripwire_out="$(mktemp)" # the tripwire's stdout; its last line is the rows as JSON

run_stage() {
    local name="$1"; shift
    stages+=("$name")
    echo "==> [$name] $*"
    local t0 t1
    t0=$(date +%s)
    if "$@"; then
        results+=("pass")
    else
        results+=("FAIL")
        overall=1
    fi
    t1=$(date +%s)
    seconds+=($((t1 - t0)))
}

skip_stage() {
    stages+=("$1")
    results+=("skipped")
    seconds+=(0)
}

recall_smoke() {
    cargo run -q --release -p fuzzydedup-bench --bin exp_index_recall &&
        cargo run -q --release -p fuzzydedup-bench --bin exp_bf_ordering -- --records 2000
}

# The table goes to the log as it is printed; `pipefail` keeps the
# binary's exit status.
tripwire() {
    cargo run -q --release -p fuzzydedup-bench --bin tripwire | tee "$tripwire_out"
}

# Whether a stage should run under the current flag set.
wants() {
    local name="$1"
    if [[ -n "$only_stage" ]]; then
        [[ "$name" == "$only_stage" ]]; return
    fi
    case "$name" in
        build|test) true ;;
        fmt|clippy|test-ws|test-interleave|test-release|e2e-smoke|recall-smoke) [[ $fast -eq 0 ]] ;;
        tripwire|scale-smoke|service-smoke) [[ $fast -eq 0 && $skip_bench -eq 0 ]] ;;
    esac
}

for stage in "${all_stages[@]}"; do
    if ! wants "$stage"; then
        skip_stage "$stage"
        continue
    fi
    case "$stage" in
        build) run_stage build cargo build --release ;;
        fmt) run_stage fmt cargo fmt --check ;;
        clippy) run_stage clippy cargo clippy --workspace --all-targets -- -D warnings ;;
        test) run_stage test cargo test -q ;;
        test-ws) run_stage test-ws cargo test -q --workspace ;;
        test-interleave)
            run_stage test-interleave cargo test -q -p fuzzydedup-metrics -p fuzzydedup-textdist \
                -p fuzzydedup-nnindex -p fuzzydedup-core --lib -- --test-threads 16
            ;;
        test-release)
            echo "avx2: $avx2"
            run_stage test-release cargo test -q --release -p fuzzydedup-textdist \
                -p fuzzydedup-nnindex
            ;;
        e2e-smoke) run_stage e2e-smoke bash benchmark/run.sh --smoke ;;
        recall-smoke)
            # Two drivers whose own assertions fail the stage by exiting
            # non-zero: index recall/losslessness (filters lossless,
            # postings layouts identical, collapse lossless), then
            # Figure 8's shape from exact pool counts (~25 s at 2,000
            # records).
            run_stage recall-smoke recall_smoke
            ;;
        tripwire) run_stage tripwire tripwire ;;
        scale-smoke)
            # 50k-record smoke of the 1M scale-out driver: exercises the
            # FileDisk-backed pool, the NN_Reln spill round-trip, and the
            # work-stealing Phase 1 end to end (~1-2 min on 2 cores). The
            # JSON artifact is a scratch output — remove it so a smoke
            # run never leaves an untracked file shadowing real results.
            run_stage scale-smoke cargo run -q --release -p fuzzydedup-bench --bin exp_scale_1m -- \
                --records 50000 --spill-threshold 10000 --out results/ci_scale_smoke.json
            rm -f results/ci_scale_smoke.json
            ;;
        service-smoke)
            # 5k-record mixed ingest/query replay through the live dedup
            # service, built as `fuzzydedup replay` and the repo benchmark's
            # `service_replay` build it: exercises whole-backlog admission,
            # epoch-snapshot point queries, and drain — the binary exits
            # non-zero if the drained service partition is not
            # bit-identical to a from-scratch batch run, if the replay met
            # a service error (ServiceError::WriterFailed: the writer thread
            # panicked), or if ingest took more than 4x that batch run
            # (reads 1.7–2.3 on 2 cores; admitting 64 records an epoch on
            # one core read ≈ 28) (~5 s on 2 cores). Scratch artifact, same
            # policy as scale-smoke.
            run_stage service-smoke cargo run -q --release -p fuzzydedup-bench \
                --bin exp_service_replay -- \
                --records 5000 --query-ratio 0.3 --max-ingest-ratio 4 \
                --out results/ci_service_smoke.json
            rm -f results/ci_service_smoke.json
            ;;
    esac
done

# ---- line ledger -----------------------------------------------------
# ROADMAP's count: find crates src tests examples -name '*.rs' | xargs wc -l.
rust_lines() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }
lines_total=$(rust_lines crates src tests examples)
ledger_json="\"total\": $lines_total"
echo
echo "rust lines outside vendored/ and benchmark/: $lines_total"
for d in crates/* src tests examples; do
    n=$(rust_lines "$d")
    printf '  %-16s %6d\n' "$d" "$n"
    ledger_json+=", \"$d\": $n"
done
# Counted in the total too; shown apart so that its growth reads as test
# weight, not program.
oracle_lines=$(rust_lines crates/reference tests/reference_property.rs \
    crates/nnindex/tests/reference_lookup.rs)
printf '  %-16s %6d\n' "oracle" "$oracle_lines"
ledger_json+=", \"oracle\": $oracle_lines"

# ---- options ledger --------------------------------------------------
# Lines matching a pattern between a line starting `open` and the next
# closing brace in column 0.
count_in() { # file open pattern
    awk -v open="$2" -v pat="$3" '
        index($0, open) == 1 { on = 1; next }
        on && /^}/ { exit }
        on && $0 ~ pat { n++ }
        END { print n + 0 }' "$1"
}
# `pub` fields between `pub struct NAME {` and its closing brace.
pub_fields() { count_in "$1" "pub struct $2 {" '^    pub [a-z_0-9]+:'; } # file struct
variants() { count_in "$1" "pub enum $2 {" '^    [A-Z][A-Za-z0-9]*[,( {]'; } # file enum
options_json=""
echo
echo "configuration fields (pub), CLI flags, distance, index and collapse surface:"
for entry in DedupConfig:crates/core/src/pipeline.rs Parallelism:crates/core/src/pipeline.rs \
    InvertedIndexConfig:crates/nnindex/src/inverted.rs ServiceConfig:crates/core/src/service.rs \
    BufferPoolConfig:crates/storage/src/buffer.rs; do
    n=$(pub_fields "${entry#*:}" "${entry%%:*}")
    printf '  %-20s %3d\n' "${entry%%:*}" "$n"
    options_json+="\"${entry%%:*}\": $n, "
done
# The incremental builder's methods: its options are methods, not fields.
builder_fns=$(count_in crates/core/src/incremental.rs "impl<D: Distance> IncrementalDedupBuilder<D> {" \
    '^    pub fn ')
printf '  %-20s %3d\n' "builder pub fns" "$builder_fns"
options_json+="\"builder_fns\": $builder_fns, "
# Distinct --flags in the usage text of both subcommands.
cli_flags=$(awk '/^fn usage\(/ { on = 1 } on { print } on && /^}/ { exit }' src/bin/fuzzydedup.rs |
    grep -o -- '--[a-z][a-z-]*' | sort -u | wc -l)
printf '  %-20s %3d\n' "cli --flags" "$cli_flags"
options_json+="\"cli_flags\": $cli_flags"
# The distance, index and collapse surface: so it cannot regrow unseen
# either.
distance_kinds=$(variants crates/textdist/src/lib.rs DistanceKind)
distance_methods=$(count_in crates/textdist/src/lib.rs "pub trait Distance:" '^    fn ')
nnindex_methods=$(count_in crates/nnindex/src/lib.rs "pub trait NnIndex:" '^    fn ')
collapse_keys=$(variants crates/core/src/collapse.rs CollapseKey)
printf '  %-20s %3d\n' "DistanceKind" "$distance_kinds" "trait Distance fns" "$distance_methods" \
    "trait NnIndex fns" "$nnindex_methods" "CollapseKey" "$collapse_keys"
options_json+=", \"distance_kinds\": $distance_kinds, \"distance_methods\": $distance_methods"
options_json+=", \"nnindex_methods\": $nnindex_methods, \"collapse_keys\": $collapse_keys"

# ---- unsafe ledger ---------------------------------------------------
# Lines naming `unsafe` (blocks, fns, impls and the comments about them).
unsafe_total=0
unsafe_dirs=""
unsafe_files=""
echo
echo "lines naming unsafe, per source directory and file:"
for d in crates/*/src src; do
    dir_n=0
    while IFS=: read -r file n; do
        dir_n=$((dir_n + n))
        unsafe_files+=", \"$file\": $n"
        printf '    %-38s %3d\n' "$file" "$n"
    done < <(grep -rc unsafe --include='*.rs' "$d" | grep -v ':0$' | sort)
    printf '  %-40s %3d\n' "$d" "$dir_n"
    unsafe_dirs+=", \"$d\": $dir_n"
    unsafe_total=$((unsafe_total + dir_n))
done
unsafe_json="\"total\": $unsafe_total$unsafe_dirs$unsafe_files"

# ---- unwrap and atomic ledgers ---------------------------------------
# Lines matching an (awk) pattern in each .rs file under a directory, each
# file read up to its first `#[cfg(test)]` line whose next line opens a
# `mod` (a test-only `fn` or `use` before production code does not stop it).
count_outside_tests() { # dir pattern
    find "$1" -name '*.rs' -print0 | xargs -0 awk -v pat="$2" '
        FNR == 1 { on = 1; cfg_test = 0 }
        cfg_test && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { on = 0 }
        { cfg_test = /^[[:space:]]*#\[cfg\(test\)\]/ }
        on && $0 ~ pat { n++ }
        END { print n + 0 }'
}
# Per source directory and in total: writes "<total><, "dir": n...>" to
# the named variable.
ledger_per_dir() { # title pattern result-var
    local total=0 json="" d n
    echo
    echo "$1, per source directory:"
    for d in crates/*/src src; do
        n=$(count_outside_tests "$d" "$2")
        printf '  %-40s %3d\n' "$d" "$n"
        json+=", \"$d\": $n"
        total=$((total + n))
    done
    printf '  %-40s %3d\n' "total" "$total"
    printf -v "$3" '"total": %d%s' "$total" "$json"
}
ledger_per_dir "lines calling unwrap() or expect( outside tests" \
    'unwrap\(\)|expect\(' unwrap_json
ledger_per_dir "lines naming a memory ordering or fence( outside tests" \
    'Ordering::(Relaxed|Acquire|Release|AcqRel|SeqCst)|fence\(' atomic_json

# ---- tracked ledger --------------------------------------------------
# The deterministic part of the summary, one number to a line, so that a
# change to any of them is a reviewable diff of a committed file. The run
# fails if the regenerated file differs from the committed (or staged) one.
core_pub_modules=$(grep -c '^pub mod ' crates/core/src/lib.rs)
echo
echo "pub mod lines in crates/core/src/lib.rs: $core_pub_modules"
one_per_line() { local body="$1"; echo "${body//, /,$'\n'    }"; }
mkdir -p results
{
    echo '{'
    echo "  \"rust_lines\": {"
    echo "    $(one_per_line "$ledger_json")"
    echo '  },'
    echo "  \"config_fields\": {"
    echo "    $(one_per_line "$options_json")"
    echo '  },'
    echo "  \"unsafe_sites\": {"
    echo "    $(one_per_line "$unsafe_json")"
    echo '  },'
    echo "  \"unwrap_sites\": {"
    echo "    $(one_per_line "$unwrap_json")"
    echo '  },'
    echo "  \"atomic_sites\": {"
    echo "    $(one_per_line "$atomic_json")"
    echo '  },'
    echo "  \"core_pub_modules\": $core_pub_modules"
    echo '}'
} > results/ledger.json
ledger_check() {
    if ! git ls-files --error-unmatch results/ledger.json >/dev/null 2>&1; then
        echo "ci: results/ledger.json is not tracked; commit it" >&2
        return 1
    fi
    git diff --exit-code -- results/ledger.json
}
run_stage ledger ledger_check

# ---- summary table ---------------------------------------------------
echo
echo "stage            result   wall(s)"
echo "---------------  -------  -------"
for i in "${!stages[@]}"; do
    printf '%-16s %-8s %6ss\n' "${stages[$i]}" "${results[$i]}" "${seconds[$i]}"
done
if [[ $overall -eq 0 ]]; then
    echo "ci: OK"
else
    echo "ci: FAIL"
fi

# ---- machine-readable summary ---------------------------------------
mkdir -p results
{
    echo '{'
    echo "  \"overall\": \"$([[ $overall -eq 0 ]] && echo pass || echo fail)\","
    echo "  \"rustc\": \"$rustc_version\","
    echo "  \"avx2\": \"$avx2\","
    echo '  "stages": ['
    for i in "${!stages[@]}"; do
        sep=','
        [[ $i -eq $((${#stages[@]} - 1)) ]] && sep=''
        echo "    {\"name\": \"${stages[$i]}\", \"result\": \"${results[$i]}\", \"wall_s\": ${seconds[$i]}}$sep"
    done
    # The tripwire's rows (name, subject/control ns, ratio, max_ratio,
    # verdict), verbatim from the last line of its standard output.
    tripwire_rows="$(tail -n 1 "$tripwire_out")"
    if [[ "$tripwire_rows" == \[* ]]; then
        echo '  ],'
        echo "  \"tripwire\": $tripwire_rows"
    else
        echo '  ]'
    fi
    echo '}'
} > results/ci_summary.json
rm -f "$tripwire_out"
echo "ci summary -> results/ci_summary.json"

exit $overall
