#!/usr/bin/env bash
# Counts non-test Rust lines under crates/, per crate and in total.
#
# Each crates/<crate>/src/**/*.rs file is counted up to (not including)
# its first line that is exactly `#[cfg(test)]` at column 0, so a
# file's trailing unit-test module is left out; files with none count
# whole. Integration tests (crates/*/tests/), examples, scripts and
# vendor/ are not counted. Every line counts, blank and comment lines
# included.
#
#   scripts/code_lines.sh          # per-crate lines, then the total
#
# The "non-test lines fall" gate of ROADMAP item 9 reads the total.

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    lines=0
    while IFS= read -r -d '' file; do
        n=$(awk '$0 == "#[cfg(test)]" { exit } { n++ } END { print n + 0 }' "$file")
        lines=$((lines + n))
    done < <(find "$crate/src" -name '*.rs' -print0)
    printf '%-10s %7d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-10s %7d\n' total "$total"
