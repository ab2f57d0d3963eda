/**
 * @file
 * TraceContext — the distributed-tracing identity that crosses process
 * boundaries, and its wire representation.
 *
 * A context is a 128-bit trace id (one end-to-end request or push),
 * a 64-bit span id (one operation inside it), and the parent span id.
 * Contexts are minted at the request/push origin (make_root_context)
 * and derived on the far side (child_of), so every hop of one logical
 * operation shares the trace id while keeping its own span lineage.
 *
 * On the wire a context travels as an optional fixed-size trailing
 * block appended after a message's last regular field:
 *
 *     offset  size  field
 *     0       1     tag = 0xCE
 *     1       1     version = 1
 *     2       8     trace id low 64 bits (LE)
 *     10      8     trace id high 64 bits
 *     18      8     span id
 *     26      8     parent span id
 *     34      8     send timestamp, sender's steady clock, ns (int64)
 *     42      8     echoed request send timestamp (responses only)
 *     50      8     echoed request receive timestamp (responses only)
 *
 * The block is emitted only when the context is valid, so a message
 * serialized with tracing off is byte-identical to the pre-trace wire
 * format (the frame goldens in tests/test_net.cpp and tests/test_gate.cpp
 * re-run unchanged), and an old-format frame parses in new code as a
 * message with no context. The three timestamps make every *response*
 * a complete NTP-style clock-offset sample with zero sender-side state:
 * the receiver of a response holds a1 (its own send, echoed back), b1
 * (the responder's receive, echoed back), b2 (the responder's reply
 * send) and a2 (its own receive) — offset = ((b1-a1)+(b2-a2))/2,
 * rtt = (a2-a1)-(b2-b1).
 */
#ifndef BUCKWILD_OBS_TRACECTX_H
#define BUCKWILD_OBS_TRACECTX_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/bytes.h"

namespace buckwild::obs {

/// The identity one distributed operation carries across processes.
struct TraceContext
{
    std::uint64_t trace_lo = 0; ///< trace id, low 64 bits
    std::uint64_t trace_hi = 0; ///< trace id, high 64 bits
    std::uint64_t span = 0;     ///< this operation's span id
    std::uint64_t parent = 0;   ///< parent span id (0 = root)

    /// A zero trace id means "no context" (tracing off / old frame).
    bool valid() const { return (trace_lo | trace_hi) != 0; }

    bool
    same_trace(const TraceContext& other) const
    {
        return trace_lo == other.trace_lo && trace_hi == other.trace_hi;
    }
};

/// Mints a fresh root context: new 128-bit trace id, new span, no
/// parent. Ids are unique per process (counter) and across processes
/// (seeded from the clock and pid), never zero.
TraceContext make_root_context();

/// Derives a child span inside `ctx`'s trace: same trace id, fresh span
/// id, parent = ctx.span. Invalid input yields an invalid context.
TraceContext child_of(const TraceContext& ctx);

/// 32 lowercase hex chars of the 128-bit trace id (hi then lo).
std::string trace_id_hex(const TraceContext& ctx);

/// 16 lowercase hex chars of a span id.
std::string span_id_hex(std::uint64_t span);

/// A context plus the wire timestamps of the trailing trace block.
struct WireTrace
{
    TraceContext ctx;
    std::int64_t send_ts_ns = 0;      ///< sender's steady clock at send
    std::int64_t echo_send_ts_ns = 0; ///< responses: request's send_ts_ns
    std::int64_t echo_recv_ts_ns = 0; ///< responses: request's arrival ts
};

/// Serialized size of the optional trailing trace block.
inline constexpr std::size_t kTraceBlockBytes = 58;
inline constexpr std::uint8_t kTraceBlockTag = 0xCE;
inline constexpr std::uint8_t kTraceBlockVersion = 1;

/// Appends the 58-byte trace block to `out`. Call only when
/// `trace.ctx.valid()` — an invalid context must stay off the wire so
/// trace-less serialization remains byte-identical to the old format.
void append_trace_block(std::vector<std::uint8_t>& out,
                        const WireTrace& trace);

/// Parses exactly kTraceBlockBytes at data[0..n). False when n is not
/// exactly the block size, the tag/version mismatch, or the embedded
/// context is invalid — a deserializer that finds trailing bytes which
/// are not one well-formed trace block must reject the whole message
/// (preserving the truncation/trailing-garbage sweeps).
bool parse_trace_block(const std::uint8_t* data, std::size_t n,
                       WireTrace& out);

/**
 * The common tail of the ps and gate deserializers: what is left in
 * `reader` must be nothing (the historical end: `out` gets no context)
 * or exactly one well-formed trace block. False on anything in between
 * — truncation, trailing garbage, a corrupt block.
 */
bool parse_trailing_trace(net::ByteReader& reader, WireTrace& out);

/**
 * One NTP-style offset sample from a response's trace block:
 * `offset_ns` estimates (responder clock - local clock), `rtt_ns` the
 * network round trip excluding responder service time. `valid` is false
 * when the response carried no usable timestamps.
 */
struct ClockSample
{
    std::int64_t offset_ns = 0;
    std::int64_t rtt_ns = 0;
    bool valid = false;
};

/// Computes the offset sample for a response received at `recv_ts_ns`
/// (local steady clock). See the file comment for the a1/b1/b2/a2 roles.
ClockSample clock_sample_from_reply(const WireTrace& reply,
                                    std::int64_t recv_ts_ns);

} // namespace buckwild::obs

#endif // BUCKWILD_OBS_TRACECTX_H
