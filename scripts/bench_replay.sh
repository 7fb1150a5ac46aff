#!/usr/bin/env bash
# Regenerates the tracked replay-throughput artifact.
#
# BENCH_replay.json at the repo root records predict+update pairs per
# second for the acceptance sweep (32 gshare configurations × 120k
# mpeg_play branches) and the other kernel families, measured per
# dispatch mode (the pinned scalar fallback and the default fused
# multilane kernels), plus toolchain metadata. Both modes are
# asserted bit-identical before a number is written. Families span
# the Direct shapes, the statics, the table-walk-plan families
# (PAs/SAs/agree/bi-mode/gskew), and the multi-structure plans
# (tournament/YAGS/path/last-time); a multilane row whose sweep ran
# lanes on the scalar tier is marked "mode": "scalar-fallback"
# rather than recorded as a multilane number. A spill-scale family
# (16-lane gshare sweeps at arena footprints from within L2 to past the LLC)
# records the prefetch mode the footprint gate resolved per row; the
# summary carries a geomean speedup across every family measured
# both scalar and multilane.
#
#   scripts/bench_replay.sh             # refresh BENCH_replay.json
#   scripts/bench_replay.sh --quick     # small trace, 1 rep (CI smoke)
#   scripts/bench_replay.sh out.json    # write elsewhere
#
# Numbers are wall-clock: run on an idle machine for a trustworthy
# artifact. BPRED_THREADS defaults to 1 inside the harness so the
# measurement is single-core unless explicitly overridden.

set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p bpred-bench --bin bench_replay
exec cargo run --release -q -p bpred-bench --bin bench_replay -- "$@"
