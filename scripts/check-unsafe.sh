#!/usr/bin/env bash
# The workspace's `unsafe` budget, enforced (CI `check` job).
#
# 1. `unsafe` code may appear only in the files/directories listed in
#    ALLOW below: the poll FFI of the server, the scheduler-affinity
#    FFI of the benchmark harness, and the three counting allocators.
#    Everything else is `#![forbid(unsafe_code)]` at its crate root;
#    this script also covers the targets that attribute does not reach
#    (tests, examples).
# 2. Inside the allowlist, every line of code that says `unsafe` must
#    have a `// SAFETY:` comment (or a `# Safety` doc section) on it or
#    within the WINDOW lines above it.
# 3. The allowlist can only shrink: an entry under which no tracked
#    file says `unsafe` any more is stale and fails the audit, so a
#    removal cannot leave a dead exemption behind.
#
# Comments and the `unsafe_code` lint name itself do not count as uses.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW=(
  crates/serve/src/reactor.rs
  crates/benchmark/src/alloc.rs
  crates/benchmark/src/workloads/serve.rs
  tests/alloc_counting.rs
  tests/warm_index_scan.rs
)
WINDOW=12

# Prints "<line> <justified: 0|1>" for every code-level `unsafe` in $1
# (`//` comments stripped, the lint name ignored).
uses() {
  awk -v window="$WINDOW" '
    {
      code = $0
      sub(/\/\/.*/, "", code)
      gsub(/unsafe_code/, "", code)
      if ($0 ~ /SAFETY|# Safety/) justified = NR
      if (code ~ /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/)
        print NR, (justified && NR - justified <= window) ? 1 : 0
    }' "$1"
}

status=0
declare -A live
while IFS= read -r file; do
  entry=""
  for prefix in "${ALLOW[@]}"; do
    [[ "$file" == "$prefix"* ]] && entry=$prefix
  done
  while read -r line justified; do
    if [[ -z "$entry" ]]; then
      echo "$file:$line: \`unsafe\` outside the allowlist"
      status=1
    else
      live[$entry]=1
      if [[ $justified -eq 0 ]]; then
        echo "$file:$line: \`unsafe\` without a SAFETY comment in the $WINDOW lines above"
        status=1
      fi
    fi
  done < <(uses "$file")
done < <(git ls-files '*.rs')

for prefix in "${ALLOW[@]}"; do
  if [[ -z "${live[$prefix]:-}" ]]; then
    echo "$prefix: stale allowlist entry (no \`unsafe\` left under it); remove it from ALLOW"
    status=1
  fi
done

if [[ $status -eq 0 ]]; then
  echo "unsafe audit: ok (allowlist: ${ALLOW[*]})"
fi
exit $status
