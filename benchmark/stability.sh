#!/usr/bin/env bash
# Run-to-run stability of the benchmark on one build.
#
#   bash benchmark/stability.sh [--runs N] [--sets 1|2] [--workloads "a b"] [--seed-base S]
#
# Runs each workload N times per set (default 5 runs, 2 sets), each run
# with its own seed, alternating the sets run by run, with the command
# line the benchmark is run with (`--seconds` from BENCHMARK.json,
# `--trace 0`). For every
# workload and end-to-end metric it prints the median and quartiles of
# each set, the spread (interquartile range over the median) against
# the metric's bound in BENCHMARK.json, and, with two sets, whether the
# second set's median is within the bound of the first's. The spread of
# `setup_s` is shown but not held to its bound. It ends with a
# `baseline` JSON block (medians and quartiles of the first set, plus
# nproc and rustc), and exits 0 only when every other spread is within
# its bound and the two sets agree.
#
# Results are kept under .bench_build/stability/. Needs python3 for the
# statistics.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

runs=5
sets=2
workloads=""
seed_base=100
while [[ $# -gt 0 ]]; do
    case $1 in
        --runs) runs=$2; shift 2 ;;
        --sets) sets=$2; shift 2 ;;
        --workloads) workloads=$2; shift 2 ;;
        --seed-base) seed_base=$2; shift 2 ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
out=.bench_build/stability
mkdir -p "$out"
if [[ -z $workloads ]]; then
    workloads=$(bash benchmark/run.sh --list-workloads)
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for w in $workloads; do
    for ((set = 1; set <= sets; set++)); do
        : >"$out/$w.set$set.jsonl"
    done
done

for ((run = 1; run <= runs; run++)); do
    for ((set = 1; set <= sets; set++)); do
        seed=$((seed_base + 1000 * (set - 1) + run))
        for w in $workloads; do
            line=$(bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
            echo "$line" >>"$out/$w.set$set.jsonl"
            echo "run $run set $set $w seed $seed: ${line:0:160}" >&2
        done
    done
done

python3 - "$out" "$sets" "$(rustc --version)" "$(nproc)" $workloads <<'EOF'
import json, statistics, sys

out, sets, rustc, nproc, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4]), sys.argv[5:]
spec = json.load(open("BENCHMARK.json"))
baseline = {"nproc": nproc, "rustc": rustc, "workloads": {}}
ok_all = True
print(f"{'workload':<12} {'metric':<15} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
for w in workloads:
    runs = [[json.loads(l) for l in open(f"{out}/{w}.set{s}.jsonl") if l.strip()] for s in range(1, sets + 1)]
    failed = [r for rs in runs for r in rs if not r["correct"] or r["failed"]]
    if failed:
        ok_all = False
        print(f"{w}: {len(failed)} run(s) reported failures")
    baseline["workloads"][w] = {}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for s, rs in enumerate(runs, 1):
            values = [r["metrics"][name]["value"] for r in rs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
            if name == "setup_s":
                verdict += " (spread not gated)"
            elif spread > bound:
                ok_all = False
            medians.append(med)
            print(f"{w:<12} {name:<15} {s:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.3f} {bound:>6}  {verdict}")
            if s == 1:
                baseline["workloads"][w][name] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"]}
        if sets == 2:
            a, b = medians
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            agree = worse <= bound
            ok_all &= agree
            print(f"{w:<12} {name:<15} set 2 vs 1: {100 * worse:+.2f}% worse, bound {100 * bound:.0f}% -> {'agree' if agree else 'DISAGREE'}")
print()
print(json.dumps({"baseline": baseline}, indent=2))
sys.exit(0 if ok_all else 1)
EOF
