#!/usr/bin/env bash
# End-to-end smoke test of the sweep service over a real socket.
#
# Starts `serve` on a scratch cache directory, issues the same sweep
# twice, and asserts the cache contract:
#   * both responses are bit-identical,
#   * the second advances the hit counter, not the miss counter
#     (i.e. it never re-entered the simulation engine),
#   * both share one materialised workload model.
#
# Usage: scripts/serve_smoke.sh [port]   (default 8199)

set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-8199}"
BASE="http://127.0.0.1:$PORT"
CACHE_DIR=$(mktemp -d)
SERVER_PID=""

cleanup() {
    [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$CACHE_DIR"
}
trap cleanup EXIT

cargo build --release -q -p bpred-serve --bin serve
./target/release/serve --addr "127.0.0.1:$PORT" --cache-dir "$CACHE_DIR" &
SERVER_PID=$!

# Wait for liveness.
for _ in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -fsS "$BASE/healthz" | grep -q ok || { echo "FAIL: /healthz"; exit 1; }

# One config from every PredictorConfig family, so the scalar-lane
# assertion below really covers the full design space.
CONFIGS="gshare:h=8,c=2;gas:h=8,c=2;gag:h=8;bimodal:a=10;last:a=8"
CONFIGS="$CONFIGS;path:r=6,c=2,q=2;pas:h=4,c=2;sas:h=4,s=3,c=2"
CONFIGS="$CONFIGS;tournament:a=6,h=6,k=6;agree:h=6;bimode:h=6;gskew:h=6,b=7"
CONFIGS="$CONFIGS;yags:k=6,b=5,t=4;taken;not-taken;btfn"
SWEEP="$BASE/sweep?workload=espresso&branches=50000&configs=$CONFIGS"

scrape() { curl -fsS "$BASE/metrics" | awk -v m="$1" '$1 == m { print $2 }'; }

# Cold request: every cell simulates, and the replay-volume counter
# (records fed through the chunked engine) moves with it, as does the
# tier-labelled throughput gauge.
curl -fsS "$SWEEP" -o "$CACHE_DIR/cold.json"
MISSES_COLD=$(scrape bpred_cache_misses_total)
RECORDS_COLD=$(scrape bpred_records_replayed_total)
PAIRS_LINE=$(curl -fsS "$BASE/metrics" | grep '^bpred_replay_pairs_per_sec{tier="')
PAIRS_RATE=$(echo "$PAIRS_LINE" | awk '{ print $2 }')
[[ "$MISSES_COLD" -gt 0 ]] || { echo "FAIL: cold request did not simulate"; exit 1; }
[[ "$RECORDS_COLD" -gt 0 ]] \
    || { echo "FAIL: cold request replayed no records (bpred_records_replayed_total)"; exit 1; }
awk -v r="$PAIRS_RATE" 'BEGIN { exit (r > 0) ? 0 : 1 }' \
    || { echo "FAIL: throughput gauge not positive after a sweep ($PAIRS_LINE)"; exit 1; }
# The sweep spans every PredictorConfig family and all of them are
# groupable, so none of its lanes may have degraded to the scalar
# fallback tier.
SCALAR_LANES=$(scrape bpred_replay_scalar_lanes)
[[ "$SCALAR_LANES" -eq 0 ]] \
    || { echo "FAIL: $SCALAR_LANES lanes fell back to the scalar tier (bpred_replay_scalar_lanes)"; exit 1; }
# The per-plan lane census must show the multi-structure families on
# their fused groups (and agree with the total lane count).
GROUP_LANES=$(curl -fsS "$BASE/metrics" | grep '^bpred_replay_group_lanes{')
for plan in tournament yags path last-time; do
    LANES=$(echo "$GROUP_LANES" | awk -v p="plan=\"$plan\"" -F'[}{ ]' '$2 == p { print $4 }')
    [[ "${LANES:-0}" -gt 0 ]] \
        || { echo "FAIL: bpred_replay_group_lanes{plan=\"$plan\"} not positive"; exit 1; }
done
SCALAR_PLAN=$(echo "$GROUP_LANES" | awk -F'[}{ ]' '$2 == "plan=\"scalar\"" { print $4 }')
[[ "${SCALAR_PLAN:-1}" -eq 0 ]] \
    || { echo "FAIL: bpred_replay_group_lanes{plan=\"scalar\"} is ${SCALAR_PLAN:-missing}"; exit 1; }

# Warm request: bit-identical, no new misses, hits advance, and no
# further records enter the engine.
curl -fsS "$SWEEP" -o "$CACHE_DIR/warm.json"
MISSES_WARM=$(scrape bpred_cache_misses_total)
HITS_WARM=$(scrape bpred_cache_hits_total)
RECORDS_WARM=$(scrape bpred_records_replayed_total)
MODELS_BUILT=$(scrape bpred_workload_models_built_total)

cmp "$CACHE_DIR/cold.json" "$CACHE_DIR/warm.json" \
    || { echo "FAIL: cached response differs from cold response"; exit 1; }
[[ "$MISSES_WARM" -eq "$MISSES_COLD" ]] \
    || { echo "FAIL: warm request re-simulated (misses $MISSES_COLD -> $MISSES_WARM)"; exit 1; }
[[ "$HITS_WARM" -gt 0 ]] || { echo "FAIL: warm request did not hit the cache"; exit 1; }
[[ "$RECORDS_WARM" -eq "$RECORDS_COLD" ]] \
    || { echo "FAIL: warm request replayed records ($RECORDS_COLD -> $RECORDS_WARM)"; exit 1; }
# Cold and warm sweeps share one materialisation of the espresso model.
[[ "$MODELS_BUILT" == 1 ]] \
    || { echo "FAIL: espresso model built ${MODELS_BUILT:-?} times (bpred_workload_models_built_total)"; exit 1; }

# The event-driven serve layer's metrics surface: per-status request
# counts, the connection gauge, the shed counter, the queue gauge,
# and the tiered-store series must all be present in the exposition.
METRICS=$(curl -fsS "$BASE/metrics")
for series in \
    'bpred_serve_requests_total{status="200"}' \
    'bpred_serve_requests_total{status="429"}' \
    'bpred_serve_connections_open' \
    'bpred_serve_shed_total' \
    'bpred_serve_queue_depth' \
    'bpred_store_hits_total{tier="hot"}' \
    'bpred_store_hits_total{tier="pack"}' \
    'bpred_store_hits_total{tier="peer"}' \
    'bpred_store_segments' \
    'bpred_store_hot_bytes' \
    'bpred_replay_scalar_lanes' \
    'bpred_workload_models_built_total' \
    'bpred_replay_group_lanes{plan="tournament"}' \
    'bpred_replay_group_lanes{plan="yags"}' \
    'bpred_replay_group_lanes{plan="path"}' \
    'bpred_replay_group_lanes{plan="last-time"}'; do
    echo "$METRICS" | grep -qF "$series" \
        || { echo "FAIL: /metrics missing series $series"; exit 1; }
done
OK_COUNT=$(echo "$METRICS" | grep -F 'bpred_serve_requests_total{status="200"}' | awk '{ print $2 }')
[[ "$OK_COUNT" -gt 0 ]] || { echo "FAIL: no 200s counted in bpred_serve_requests_total"; exit 1; }

# The warm sweep was answered by the in-memory hot tier (no peers
# are configured, so that counter stays parked at zero).
HOT_HITS=$(echo "$METRICS" | grep -F 'bpred_store_hits_total{tier="hot"}' | awk '{ print $2 }')
PEER_HITS=$(echo "$METRICS" | grep -F 'bpred_store_hits_total{tier="peer"}' | awk '{ print $2 }')
SEGMENTS=$(scrape bpred_store_segments)
[[ "$HOT_HITS" -gt 0 ]] || { echo "FAIL: warm sweep bypassed the hot tier"; exit 1; }
[[ "$PEER_HITS" -eq 0 ]] || { echo "FAIL: peer hits counted with no peers configured"; exit 1; }
[[ "$SEGMENTS" -ge 1 ]] || { echo "FAIL: no pack segments after a cached sweep"; exit 1; }

echo "OK: sweep served, cache hit bit-identical (hits=$HITS_WARM misses=$MISSES_WARM records=$RECORDS_WARM ${PAIRS_LINE})"
