#!/usr/bin/env bash
# Byte-codec lint: little-endian encoding and bounds-checked decoding live
# in src/net/bytes.h (ByteWriter / ByteReader) and nowhere else. Every
# wire format goes through it; a private put_u32 / get_u64 helper or a
# private `class Reader` is a fork of the codec (the refactor this guards
# deleted six encoders and two Reader classes).
#
# Usage: tools/lint_codec.sh
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist='^src/net/bytes\.h$'
helpers='\b(put_(u16|u32|u64|f32|f64)|get_(u32|u64))[[:space:]]*\(|\bclass[[:space:]]+Reader\b'

fail=0
while IFS= read -r hit; do
  file=${hit%%:*}
  [[ "$file" =~ $allowlist ]] && continue
  # Strip //- and *-style comment lines (doc references are fine).
  line=${hit#*:*:}
  [[ "$line" =~ ^[[:space:]]*(//|\*|/\*) ]] && continue
  echo "lint_codec: byte-codec helper outside src/net/bytes.h: $hit" >&2
  fail=1
done < <(grep -rnE --include='*.h' --include='*.cpp' "$helpers" \
           src tools tests bench examples perfbench || true)

if [[ "$fail" -ne 0 ]]; then
  echo "lint_codec: encode and decode through net::ByteWriter / net::ByteReader (see DESIGN.md §11)" >&2
  exit 1
fi
echo "lint_codec: OK (net/bytes.h is the only byte codec)"
