#!/usr/bin/env bash
# Verifies (or refreshes) the pinned full-run results artifact.
#
# results_full.txt at the repo root is the complete output of
# `bpred-bench --bin all` at default options (full paper-scale traces,
# tiers 4..=15, seed 1996). The engine is deterministic, so the file
# is reproducible bit-for-bit; any diff means the simulation semantics
# changed and must be accounted for (and ENGINE_VERSION bumped in
# crates/sim/src/cache.rs, so on-disk result caches invalidate).
#
#   scripts/check_results.sh            # regenerate and diff against the pin
#   scripts/check_results.sh --regen    # refresh the pin in place
#
# The full run replays every benchmark at paper length: about 15 s of
# `all` on one core once built. BPRED_CACHE_DIR is deliberately unset
# for the run so the check exercises the engine, not the cache. CI runs
# this on the default matrix leg.

set -euo pipefail
cd "$(dirname "$0")/.."

PIN=results_full.txt
FRESH=$(mktemp)
trap 'rm -f "$FRESH"' EXIT

echo "regenerating full results (this takes a while)..." >&2
env -u BPRED_CACHE_DIR cargo run --release -q -p bpred-bench --bin all > "$FRESH"

if [[ "${1:-}" == "--regen" ]]; then
    mv "$FRESH" "$PIN"
    trap - EXIT
    echo "refreshed $PIN" >&2
    exit 0
fi

if diff -u "$PIN" "$FRESH"; then
    echo "OK: $PIN reproduces bit-for-bit" >&2
else
    echo "FAIL: $PIN diverges from a fresh run." >&2
    echo "If the change is intentional: bump ENGINE_VERSION in crates/sim/src/cache.rs" >&2
    echo "and refresh the pin with scripts/check_results.sh --regen" >&2
    exit 1
fi
