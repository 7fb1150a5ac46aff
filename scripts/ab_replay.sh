#!/usr/bin/env bash
# In-process A/B replay timing against a base revision: writes
# BENCH_ab.json, the artifact the ±3% per-row replay gate is checked on.
#
#   scripts/ab_replay.sh <base-rev> [pairs] [out.json]
#
# The base revision is exported with `git archive` under
# target/ab/base and its crates are renamed (bpred-trace, -workloads,
# -core and -sim gain a `-base` suffix; their code is untouched, since
# each depends on the others under the old name). One harness package
# (scripts/ab_replay/main.rs) then links both sides: this checkout's
# crates as they are, the base's renamed ones, and both on this
# checkout's vendored crates, so the build needs no network. Every
# function is 64-byte aligned on both sides, so code placement moves
# neither side's loops between builds.
#
# Each row (every BENCH_replay.json family and spill row, the paper
# plan's GAs and PAs(inf) shapes, then experiments::paper at 20,000
# branches) first asserts that both sides
# give bit-identical results, then times `pairs` alternating pairs
# (default 15, at least 10 for a gate verdict). Per row the artifact
# records the median time ratio head/base, its quartiles and the pairs
# head won. BPRED_THREADS is pinned to 1 and BPRED_FORCE_SCALAR unset,
# so the rows time the fused kernels on one core. Base and head calls
# interleave within each pair, so a slow drift in the host's speed
# spreads over both sides; numbers are still wall clock, so run on an
# otherwise idle machine.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
    echo "usage: scripts/ab_replay.sh <base-rev> [pairs] [out.json]" >&2
    exit 2
fi
BASE_REV=$(git rev-parse --short "$1^{commit}")
PAIRS=${2:-15}
OUT=${3:-BENCH_ab.json}
HEAD_REV=$(git describe --always --dirty --abbrev=7)
REPO=$(pwd)
AB="$REPO/target/ab"

rm -rf "$AB/base" "$AB/harness"
mkdir -p "$AB/base" "$AB/harness/src"
git archive "$BASE_REV" | tar -x -C "$AB/base"

# Rename the base's library crates, and point its workspace at them
# (under their old dependency names) and at this checkout's vendored
# crates.
for crate in trace workloads core sim; do
    sed -i "s/^name = \"bpred-$crate\"$/name = \"bpred-$crate-base\"/" \
        "$AB/base/crates/$crate/Cargo.toml"
    sed -i "s|^bpred-$crate = { path = \"crates/$crate\" }$|bpred-$crate = { path = \"crates/$crate\", package = \"bpred-$crate-base\" }|" \
        "$AB/base/Cargo.toml"
done
sed -i "s|path = \"vendor/|path = \"$REPO/vendor/|" "$AB/base/Cargo.toml"
grep -q 'package = "bpred-sim-base"' "$AB/base/Cargo.toml" || {
    echo "could not rename the base's crates" >&2
    exit 1
}

cp scripts/ab_replay/main.rs "$AB/harness/src/main.rs"
cat > "$AB/harness/Cargo.toml" <<EOF
[package]
name = "ab-replay"
version = "0.1.0"
edition = "2021"
publish = false

[dependencies]
bpred-bench = { path = "$REPO/crates/bench" }
bpred-core = { path = "$REPO/crates/core" }
bpred-trace = { path = "$REPO/crates/trace" }
bpred-workloads = { path = "$REPO/crates/workloads" }
bpred-sim = { path = "$REPO/crates/sim" }
base_trace = { package = "bpred-trace-base", path = "$AB/base/crates/trace" }
base_workloads = { package = "bpred-workloads-base", path = "$AB/base/crates/workloads" }
base_core = { package = "bpred-core-base", path = "$AB/base/crates/core" }
base_sim = { package = "bpred-sim-base", path = "$AB/base/crates/sim" }

[profile.release]
debug = false

[workspace]
EOF

export RUSTFLAGS="-C llvm-args=-align-all-functions=6"
CARGO_TARGET_DIR="$AB/build" cargo build --release --offline -q \
    --manifest-path "$AB/harness/Cargo.toml"
# Pinned to one CPU where taskset exists, so the harness never migrates.
PIN=()
if command -v taskset >/dev/null; then
    PIN=(taskset -c "$(($(nproc) - 1))")
fi
env -u BPRED_FORCE_SCALAR -u BPRED_CACHE_DIR BPRED_THREADS=1 \
    "${PIN[@]}" "$AB/build/release/ab-replay" "$BASE_REV" "$HEAD_REV" "$PAIRS" "$OUT"
