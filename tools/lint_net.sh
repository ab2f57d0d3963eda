#!/usr/bin/env bash
# Event-loop lint: polling, accepting and non-blocking socket I/O live in
# src/net/ (net::Reactor and the socket.h helpers) and nowhere else. The
# parameter-server fabric and the gate's ingress both run on the one
# Reactor; a poll or accept loop outside src/net/ is a second event loop
# growing back (the refactor this guards deleted two).
#
# Usage: tools/lint_net.sh
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist='^src/net/'
# Free calls only: a member call such as reactor_.poll(...) is the point.
calls='(^|[^[:alnum:]_.>])(::)?(p?poll|accept4?|eventfd|fcntl)[[:space:]]*\('
flags='\bepoll_|\bO_NONBLOCK\b|\bMSG_DONTWAIT\b'

fail=0
while IFS= read -r hit; do
  file=${hit%%:*}
  [[ "$file" =~ $allowlist ]] && continue
  # Strip //- and *-style comment lines (doc references are fine).
  line=${hit#*:*:}
  [[ "$line" =~ ^[[:space:]]*(//|\*|/\*) ]] && continue
  echo "lint_net: event-loop primitive outside src/net/: $hit" >&2
  fail=1
done < <(grep -rnE --include='*.h' --include='*.cpp' "$calls|$flags" \
           src tools || true)

if [[ "$fail" -ne 0 ]]; then
  echo "lint_net: move framed socket I/O onto net::Reactor (see DESIGN.md §11)" >&2
  exit 1
fi
echo "lint_net: OK (net::Reactor is the only event loop)"
