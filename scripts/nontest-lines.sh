#!/usr/bin/env bash
# Non-test lines of Rust per crate: every `.rs` file under a crate's
# `src/`, counted up to (not including) its first `#[cfg(test)]` line.
# Integration tests, examples and benches are not counted. The last two
# lines are the workspace total, and the total without `benchmark` (the
# tracked benchmark's harness, which is not the product).
#
# Given a revision, it also counts that revision's tree (read with
# `git archive`, so the working tree is untouched) and prints each line
# as `before -> after  delta`; a crate missing on one side counts 0
# there. An empty argument counts the working tree alone.
#
# Informational only: it prints and exits 0.
#
#   scripts/nontest-lines.sh          # the working tree
#   scripts/nontest-lines.sh REV      # REV's tree -> the working tree
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:-}

# Prints `crate lines` for every crate under "$1/crates".
count() {
  for dir in "$1"/crates/*/; do
    [[ -d "$dir/src" ]] || continue
    find "$dir/src" -name '*.rs' -print0 | sort -z |
      xargs -0 awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' |
      awk -v crate="$(basename "$dir")" '{ n += $1 } END { print crate, n + 0 }'
  done
}

declare -A before=() after=()
if [[ -n "$rev" ]]; then
  tree=$(mktemp -d)
  trap 'rm -rf "$tree"' EXIT
  git archive "$rev" crates | tar -x -C "$tree"
  while read -r crate lines; do before[$crate]=$lines; done < <(count "$tree")
fi
while read -r crate lines; do after[$crate]=$lines; done < <(count .)

row() {
  if [[ -n "$rev" ]]; then
    printf '%-12s %6d -> %6d  %+d\n' "$1" "$2" "$3" $(($3 - $2))
  else
    printf '%-12s %6d\n' "$1" "$3"
  fi
}

total_before=0 total_after=0 product_before=0 product_after=0
for crate in $(printf '%s\n' "${!before[@]}" "${!after[@]}" | sort -u); do
  b=${before[$crate]:-0} a=${after[$crate]:-0}
  row "$crate" "$b" "$a"
  total_before=$((total_before + b)) total_after=$((total_after + a))
  if [[ "$crate" != benchmark ]]; then
    product_before=$((product_before + b)) product_after=$((product_after + a))
  fi
done
row total "$total_before" "$total_after"
row "total -bench" "$product_before" "$product_after"
