#!/usr/bin/env bash
# Regenerates the tracked serve-layer load artifact.
#
# BENCH_serve.json at the repo root records p50/p99 request latency
# and sustained RPS for the event-driven HTTP server, for keep-alive
# and one-shot clients at two concurrency levels each, under a mixed
# store-hit/cold-miss sweep load. Every response is asserted
# byte-identical to the direct (uncached) engine result before a
# number is written. Each load row is the median of several runs, with
# its quartiles.
#
#   scripts/bench_serve.sh              # refresh BENCH_serve.json
#   scripts/bench_serve.sh --quick      # small sweeps, few requests (CI smoke)
#   scripts/bench_serve.sh out.json     # write elsewhere
#
# Numbers are wall-clock over loopback sockets: run on an idle
# machine for a trustworthy artifact. Where `taskset` exists the run is
# pinned to the last CPU, as scripts/ab_replay.sh is, so the scheduler
# cannot move server and clients between cores mid-run. BPRED_THREADS
# defaults to 1 inside the harness so compute time is single-core
# unless explicitly overridden.

set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p bpred-bench --bin bench_serve
PIN=()
if command -v taskset >/dev/null; then
    PIN=(taskset -c "$(($(nproc) - 1))")
fi
exec "${PIN[@]}" cargo run --release -q -p bpred-bench --bin bench_serve -- "$@"
