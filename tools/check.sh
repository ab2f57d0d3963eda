#!/usr/bin/env bash
# Sanitizer gate for the concurrent subsystems (and everything they lean
# on):
#
#   0. lint: no quantization/rounding primitive outside src/lowp/
#      (tools/lint_quantizers.sh), no byte-codec helper outside
#      src/net/bytes.h (tools/lint_codec.sh), no poll, accept or
#      non-blocking socket call outside src/net/ (tools/lint_net.sh) and
#      no hand-rolled dense dot or AXPY in src/ps, src/serve or src/gate
#      (tools/lint_kernels.sh);
#   1. build the whole tree under ASan+UBSan and run the full gtest suite
#      (including test_lowp's cross-layer bit-identity goldens and the
#      fixed-seed mutation fuzz of the ps, gate and trace-block decoders);
#   2. build under TSan and run test_serve + test_ps + test_net +
#      test_obs + test_live + test_gate, which exercise the registry
#      hot-swap, the request queue, the serving worker loop, the
#      parameter-server shards/transport/cluster, the socket fabric
#      (send/recv on the serving thread, close() from another, frame
#      I/O, loopback clusters), the observability counters/trace rings,
#      the live tier (sampler thread, HTTP scrapes, and the
#      conformance/perf listeners racing hot-path writers), and the
#      serving front door (the net::Reactor's I/O thread + scoring
#      workers posting replies + pipelined clients on one gate,
#      malformed ingress and clients that stop reading included) — the
#      races these subsystems could plausibly have.
#
# Usage: tools/check.sh [-j N]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc)
while getopts "j:" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: tools/check.sh [-j N]" >&2; exit 2 ;;
  esac
done

echo "== lint: substrate is the only quantizer, net/bytes.h the only byte codec, net::Reactor the only event loop, DenseOps the only dense dot/AXPY =="
tools/lint_quantizers.sh
tools/lint_codec.sh
tools/lint_net.sh
tools/lint_kernels.sh

echo "== ASan+UBSan: full suite =="
cmake --preset asan
cmake --build --preset asan -j "$jobs"
ctest --preset asan

echo "== TSan: serving + parameter-server + net + obs + gate concurrency suites =="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs" --target test_serve test_ps test_net test_obs test_live test_gate
ctest --preset tsan -R '^(Serve|Serving|ModelRegistry|InferenceEngine|RequestQueue|Server|Ps|Net|Obs|Gate)'

echo "check.sh: all gates passed"
