#!/usr/bin/env bash
# The workspace's `unsafe` budget, enforced (CI `check` job).
#
# 1. `unsafe` code may appear only in the files/directories listed in
#    ALLOW below: the worker pool's lifetime erasure, the socket/poll FFI
#    of the server, the scheduler-affinity FFI of the benchmark harness,
#    and the two counting allocators. Everything else is
#    `#![forbid(unsafe_code)]` at its crate root; this script also
#    covers the targets that attribute does not reach (tests, benches,
#    examples).
# 2. Inside the allowlist, every line of code that says `unsafe` must
#    have a `// SAFETY:` comment (or a `# Safety` doc section) on it or
#    within the WINDOW lines above it.
#
# Comments and the `unsafe_code` lint name itself do not count as uses.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW=(
  crates/threadpool/
  crates/serve/src/server.rs
  crates/serve/src/reactor.rs
  crates/benchmark/src/alloc.rs
  crates/benchmark/src/workloads/serve.rs
  tests/alloc_counting.rs
)
WINDOW=12

status=0
while IFS= read -r file; do
  allowed=0
  for prefix in "${ALLOW[@]}"; do
    [[ "$file" == "$prefix"* ]] && allowed=1
  done
  # Code-level uses: strip `//` comments, ignore the lint name.
  uses=$(awk -v window="$WINDOW" -v allowed="$allowed" -v file="$file" '
    {
      code = $0
      sub(/\/\/.*/, "", code)
      gsub(/unsafe_code/, "", code)
      if ($0 ~ /SAFETY|# Safety/) justified = NR
      if (code ~ /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/) {
        if (!allowed) {
          printf "%s:%d: `unsafe` outside the allowlist\n", file, NR
        } else if (!justified || NR - justified > window) {
          printf "%s:%d: `unsafe` without a SAFETY comment in the %d lines above\n", file, NR, window
        }
      }
    }' "$file")
  if [[ -n "$uses" ]]; then
    echo "$uses"
    status=1
  fi
done < <(git ls-files '*.rs')

if [[ $status -eq 0 ]]; then
  echo "unsafe audit: ok (allowlist: ${ALLOW[*]})"
fi
exit $status
