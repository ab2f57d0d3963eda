#include "obs/tracectx.h"

#include <atomic>
#include <chrono>

#include <unistd.h>

#include "net/bytes.h"

namespace buckwild::obs {
namespace {

/// splitmix64 — tiny, well-mixed, and stateless given a counter; the
/// standard choice for seeding ids without dragging in <random>.
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// Per-process id stream: the seed folds in wall clock, steady clock,
/// and pid so two processes forked in the same microsecond still draw
/// from different streams.
std::uint64_t
next_id()
{
    static const std::uint64_t seed = [] {
        const auto wall = std::chrono::system_clock::now();
        const auto steady = std::chrono::steady_clock::now();
        std::uint64_t s = static_cast<std::uint64_t>(
            wall.time_since_epoch().count());
        s ^= splitmix64(static_cast<std::uint64_t>(
            steady.time_since_epoch().count()));
        s ^= splitmix64(static_cast<std::uint64_t>(::getpid()) << 32);
        return s;
    }();
    static std::atomic<std::uint64_t> counter{0};
    const std::uint64_t n =
        counter.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t id = splitmix64(seed + n);
    return id == 0 ? 1 : id;
}

char
hex_digit(std::uint64_t nibble)
{
    return "0123456789abcdef"[nibble & 0xF];
}

void
append_hex64(std::string& out, std::uint64_t v)
{
    for (int shift = 60; shift >= 0; shift -= 4)
        out.push_back(hex_digit(v >> shift));
}

} // namespace

TraceContext
make_root_context()
{
    TraceContext ctx;
    ctx.trace_lo = next_id();
    ctx.trace_hi = next_id();
    ctx.span = next_id();
    ctx.parent = 0;
    return ctx;
}

TraceContext
child_of(const TraceContext& ctx)
{
    if (!ctx.valid()) return TraceContext{};
    TraceContext child;
    child.trace_lo = ctx.trace_lo;
    child.trace_hi = ctx.trace_hi;
    child.span = next_id();
    child.parent = ctx.span;
    return child;
}

std::string
trace_id_hex(const TraceContext& ctx)
{
    std::string out;
    out.reserve(32);
    append_hex64(out, ctx.trace_hi);
    append_hex64(out, ctx.trace_lo);
    return out;
}

std::string
span_id_hex(std::uint64_t span)
{
    std::string out;
    out.reserve(16);
    append_hex64(out, span);
    return out;
}

void
append_trace_block(std::vector<std::uint8_t>& out, const WireTrace& trace)
{
    out.reserve(out.size() + kTraceBlockBytes);
    net::ByteWriter writer(out);
    writer.u8(kTraceBlockTag);
    writer.u8(kTraceBlockVersion);
    writer.u64(trace.ctx.trace_lo);
    writer.u64(trace.ctx.trace_hi);
    writer.u64(trace.ctx.span);
    writer.u64(trace.ctx.parent);
    writer.u64(static_cast<std::uint64_t>(trace.send_ts_ns));
    writer.u64(static_cast<std::uint64_t>(trace.echo_send_ts_ns));
    writer.u64(static_cast<std::uint64_t>(trace.echo_recv_ts_ns));
}

bool
parse_trace_block(const std::uint8_t* data, std::size_t n, WireTrace& out)
{
    net::ByteReader reader(data, n);
    std::uint8_t tag = 0;
    std::uint8_t version = 0;
    std::uint64_t send_ts = 0;
    std::uint64_t echo_send_ts = 0;
    std::uint64_t echo_recv_ts = 0;
    WireTrace trace;
    if (!reader.u8(&tag) || tag != kTraceBlockTag || !reader.u8(&version) ||
        version != kTraceBlockVersion || !reader.u64(&trace.ctx.trace_lo) ||
        !reader.u64(&trace.ctx.trace_hi) || !reader.u64(&trace.ctx.span) ||
        !reader.u64(&trace.ctx.parent) || !reader.u64(&send_ts) ||
        !reader.u64(&echo_send_ts) || !reader.u64(&echo_recv_ts) ||
        !reader.done())
        return false;
    // A block whose context is invalid could never have been emitted by
    // append_trace_block; treat it as trailing garbage.
    if (!trace.ctx.valid()) return false;
    trace.send_ts_ns = static_cast<std::int64_t>(send_ts);
    trace.echo_send_ts_ns = static_cast<std::int64_t>(echo_send_ts);
    trace.echo_recv_ts_ns = static_cast<std::int64_t>(echo_recv_ts);
    out = trace;
    return true;
}

bool
parse_trailing_trace(net::ByteReader& reader, WireTrace& out)
{
    out = WireTrace{};
    return reader.done() ||
           parse_trace_block(reader.cursor(), reader.remaining(), out);
}

ClockSample
clock_sample_from_reply(const WireTrace& reply, std::int64_t recv_ts_ns)
{
    ClockSample sample;
    const std::int64_t a1 = reply.echo_send_ts_ns; // our request left
    const std::int64_t b1 = reply.echo_recv_ts_ns; // responder received
    const std::int64_t b2 = reply.send_ts_ns;      // responder replied
    const std::int64_t a2 = recv_ts_ns;            // we received
    if (a1 == 0 || b1 == 0 || b2 == 0 || a2 == 0) return sample;
    if (a2 < a1 || b2 < b1) return sample;
    // Three stamps are the peer's, and any int64 parses: a sample whose
    // differences overflow is refused rather than computed.
    std::int64_t out = 0, back = 0, sum = 0, round_trip = 0, held = 0,
                 rtt = 0;
    if (__builtin_sub_overflow(b1, a1, &out) ||
        __builtin_sub_overflow(b2, a2, &back) ||
        __builtin_add_overflow(out, back, &sum) ||
        __builtin_sub_overflow(a2, a1, &round_trip) ||
        __builtin_sub_overflow(b2, b1, &held) ||
        __builtin_sub_overflow(round_trip, held, &rtt))
        return sample;
    sample.offset_ns = sum / 2;
    sample.rtt_ns = rtt;
    sample.valid = true;
    return sample;
}

} // namespace buckwild::obs
