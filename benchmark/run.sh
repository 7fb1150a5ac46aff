#!/usr/bin/env bash
# The repository benchmark. Builds the repository's `serve` and `all`
# binaries and the benchmark binary from source, then runs one workload (or each
# in its own process).
#
#   bash benchmark/run.sh --workload <name|all> --seed <N> [--seconds S] [--trace 0|1|DIR] [--quick]
#
# The last line of output is the run's JSON result; see
# benchmark/README.md for workloads and metrics. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build), scratch stores and spans
# under .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "run.sh: $(pwd) is not a checkout of the repository (no Cargo.toml or crates/)" >&2
    exit 1
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p bpred-serve --bin serve -p bpred-bench --bin all >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/bpred-benchmark"
bins=(--bin-dir "$CARGO_TARGET_DIR/release")

args=("$@")
workload=""
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ ${args[i]} == --workload ]]; then
        workload=${args[i + 1]:-}
    fi
done

if [[ $workload != all ]]; then
    exec "$bin" "${bins[@]}" "${args[@]}"
fi

# --workload all: every declared workload in its own process.
status=0
for name in $("$bin" --list-workloads); do
    one=("${args[@]}")
    for ((i = 0; i < ${#one[@]}; i++)); do
        if [[ ${one[i]} == --workload ]]; then
            one[i + 1]=$name
        fi
    done
    "$bin" "${bins[@]}" "${one[@]}" || status=1
done
exit $status
