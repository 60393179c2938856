#!/usr/bin/env bash
# Verification gate — a thin alias for the tiered CI driver so the two
# can never drift. See scripts/ci.sh for the stage list.
#
#   scripts/verify.sh          # all stages except tripwire and the two long smokes
#   scripts/verify.sh --fast   # tier-1 only (build + root tests)
#
# The timed stages are excluded here because verify is the inner-loop
# gate; run scripts/ci.sh (no flags) to include them.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fast" ]]; then
    exec scripts/ci.sh --fast
fi
exec scripts/ci.sh --skip-bench
