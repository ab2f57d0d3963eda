/**
 * @file
 * Byte-level serialization of ps::Message — what actually crosses the
 * socket between cluster processes.
 *
 * Little-endian throughout, fixed field order, no padding:
 *
 *     offset  size  field
 *     0       1     message kind (Message::Kind)
 *     1       1     flags (bit0 = accepted, bit1 = sparse gradient;
 *                   any other bit set fails the parse, versioning the
 *                   format against silent reinterpretation)
 *     2       1     gradient codec kind (CodecKind)
 *     3       1     gradient codec bits
 *     4       4     sender endpoint
 *     8       4     worker id
 *     12      8     token
 *     20      8     clock
 *     28      8     version
 *     36      4     gradient count (dimension when dense, nnz when
 *                   sparse)
 *     40      4     gradient scale (IEEE-754 float bits)
 *     44      4     norm count N, then N * 4 bytes of float norms
 *     ...     4     payload size P, then P payload bytes
 *     ...     4     weight count W, then W * 4 bytes of float weights
 *     ...     4     stats count K, then K * 8 bytes of double stats
 *     ...     8+X   ONLY when flags bit1 is set (the sparse-push
 *                   extension): gradient dimension (u32, non-zero),
 *                   then index payload size X (u32) and X bytes of the
 *                   Elias-gamma index-gap stream (ps/quantize.h). A
 *                   dense message emits nothing here, so every
 *                   pre-sparse frame is byte-identical and parses in
 *                   old binaries; sparse frames are rejected by old
 *                   parsers (unknown flag) rather than misread.
 *     ...     58    OPTIONAL trailing trace block (obs/tracectx.h):
 *                   present only when the message carries a valid
 *                   TraceContext, so tracing-off frames are
 *                   byte-identical to the pre-trace format and parse in
 *                   old code; old-format frames (no block) parse in new
 *                   code as "no context". Trailing bytes that are not
 *                   exactly one well-formed block still fail the parse.
 *
 * Floats and doubles travel as their IEEE-754 bit patterns, so the CsQ /
 * Cs8 / Cs1 codec output a worker encoded in one process decodes
 * bit-identically in another — the cross-process bit-identity the golden
 * tests in tests/test_net.cpp pin down.
 *
 * Both directions go through the net/bytes.h codec, so every array
 * moves with one memcpy. deserialize_message() is defensive: every read
 * is bounds-checked, every array count is checked against the bytes
 * left *before* anything is allocated, and a malformed buffer returns
 * false rather than throwing — the socket transport drops the frame and
 * lets the RPC layer's retransmit recover.
 */
#ifndef BUCKWILD_PS_WIRE_H
#define BUCKWILD_PS_WIRE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ps/transport.h"

namespace buckwild::ps {

/// Serialized size of `message` in bytes (what serialize_message emits).
std::size_t serialized_bytes(const Message& message);

/// Flattens `message` into the layout above.
std::vector<std::uint8_t> serialize_message(const Message& message);

/// Appends the same bytes to `out` — for a writer that puts a frame
/// header in front of the message without a second copy.
void append_message(const Message& message, std::vector<std::uint8_t>& out);

/// Parses `data[0..n)` into `out`. False (out unspecified) on a
/// truncated, oversized, or otherwise malformed buffer.
bool deserialize_message(const std::uint8_t* data, std::size_t n,
                         Message& out);

} // namespace buckwild::ps

#endif // BUCKWILD_PS_WIRE_H
