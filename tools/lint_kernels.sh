#!/usr/bin/env bash
# Hand-rolled-kernel lint: in the subsystems that call the registered
# dense kernels (src/ps, src/serve, src/gate), a dot or AXPY goes through
# simd::DenseOps<D, M> at the configured tier, not a scalar loop beside
# it. A one-line `for` whose body accumulates (+= or -=) a product
# indexed by the loop variable is such a loop growing back (the change
# this guards moved the dense worker's margin and gradient onto the
# kernels). The sparse scatter, whose body indexes by a gathered
# coordinate, is not a one-line loop and does not match.
#
# Usage: tools/lint_kernels.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# for (<type> v = ...; ...; ...) <lhs> [+-]= <... * ...[v]... | ...[v]... * ...>;
header='for[[:space:]]*\(([^;]*[^[:alnum:]_])?([[:alpha:]_][[:alnum:]_]*)[[:space:]]*=[^=;][^;]*;[^;]*;[^;]*\)'
body='[^;]*[-+]=([^;]*\*[^;]*\[\2\]|[^;]*\[\2\][^;]*\*)'

fail=0
while IFS= read -r hit; do
  # Strip //- and *-style comment lines (doc references are fine).
  line=${hit#*:*:}
  [[ "$line" =~ ^[[:space:]]*(//|\*|/\*) ]] && continue
  echo "lint_kernels: hand-rolled dense dot/AXPY: $hit" >&2
  fail=1
done < <(grep -rnE --include='*.h' --include='*.cpp' "$header$body" \
           src/ps src/serve src/gate || true)

if [[ "$fail" -ne 0 ]]; then
  echo "lint_kernels: call simd::DenseOps<D, M>::dot / ::axpy at the configured tier (see DESIGN.md §13)" >&2
  exit 1
fi
echo "lint_kernels: OK (dense dots and AXPYs go through the kernel registry)"
