#!/usr/bin/env bash
# Non-test lines of Rust per crate: every `.rs` file under a crate's
# `src/`, counted up to (not including) its first `#[cfg(test)]` line.
# Integration tests, examples and benches are not counted. The last two
# lines are the workspace total, and the total without `benchmark` (the
# tracked benchmark's harness, which is not the product).
#
# Informational only: it prints and exits 0.
#
#   scripts/nontest-lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
product=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  [[ -d "$dir/src" ]] || continue
  lines=$(find "$dir/src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' |
    awk '{ n += $1 } END { print n + 0 }')
  printf '%-12s %6d\n' "$crate" "$lines"
  total=$((total + lines))
  [[ "$crate" == benchmark ]] || product=$((product + lines))
done
printf '%-12s %6d\n' total "$total"
printf '%-12s %6d\n' "total -bench" "$product"
