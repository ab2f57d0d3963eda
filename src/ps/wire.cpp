#include "ps/wire.h"

#include "net/bytes.h"

namespace buckwild::ps {

namespace {

constexpr std::size_t kFixedBytes = 44; // through the gradient scale

} // namespace

std::size_t
serialized_bytes(const Message& message)
{
    return kFixedBytes + 4 + message.gradient.norms.size() * 4 + 4 +
           message.gradient.payload.size() + 4 +
           message.weights.size() * 4 + 4 + message.stats.size() * 8 +
           (message.gradient.sparse()
                ? 8 + message.gradient.index_payload.size()
                : 0) +
           (message.trace.ctx.valid() ? obs::kTraceBlockBytes : 0);
}

std::vector<std::uint8_t>
serialize_message(const Message& message)
{
    std::vector<std::uint8_t> out;
    out.reserve(serialized_bytes(message));
    append_message(message, out);
    return out;
}

void
append_message(const Message& message, std::vector<std::uint8_t>& out)
{
    net::ByteWriter writer(out);
    // Each array travels as a u32 element count, then its elements.
    const auto counted = [&writer](const auto& values) {
        writer.u32(static_cast<std::uint32_t>(values.size()));
        writer.array(values);
    };
    writer.u8(static_cast<std::uint8_t>(message.kind));
    writer.u8(static_cast<std::uint8_t>(
        (message.accepted ? 1u : 0u) |
        (message.gradient.sparse() ? 2u : 0u)));
    writer.u8(static_cast<std::uint8_t>(message.gradient.kind));
    writer.u8(static_cast<std::uint8_t>(message.gradient.bits));
    writer.u32(message.sender);
    writer.u32(message.worker);
    writer.u64(message.token);
    writer.u64(message.clock);
    writer.u64(message.version);
    writer.u32(message.gradient.count);
    writer.f32(message.gradient.scale);
    counted(message.gradient.norms);
    counted(message.gradient.payload);
    counted(message.weights);
    counted(message.stats);
    // The sparse extension is flag-gated, so dense frames stay
    // byte-identical to the pre-sparse wire format.
    if (message.gradient.sparse()) {
        writer.u32(message.gradient.dim);
        counted(message.gradient.index_payload);
    }
    // The optional trace block rides strictly last and only when a
    // context exists, so tracing-off output is byte-identical to the
    // pre-trace wire format.
    if (message.trace.ctx.valid()) obs::append_trace_block(out, message.trace);
}

bool
deserialize_message(const std::uint8_t* data, std::size_t n, Message& out)
{
    net::ByteReader reader(data, n);
    // The u32-counted arrays: array() rejects a count larger than the
    // bytes left before it allocates anything.
    const auto counted = [&reader](auto* values) {
        std::uint32_t count = 0;
        return reader.u32(&count) && reader.array(values, count);
    };
    std::uint8_t kind = 0;
    std::uint8_t flags = 0;
    std::uint8_t codec_kind = 0;
    std::uint8_t codec_bits = 0;
    if (!reader.u8(&kind) || !reader.u8(&flags) ||
        !reader.u8(&codec_kind) || !reader.u8(&codec_bits))
        return false;
    if (kind > static_cast<std::uint8_t>(Message::Kind::kShutdown))
        return false;
    if (codec_kind > static_cast<std::uint8_t>(CodecKind::kQsgd))
        return false;
    // Unknown flag bits fail the parse — a frame from a future format
    // revision must not be silently misread as today's layout.
    if ((flags & ~0x3u) != 0) return false;
    const bool sparse = (flags & 2u) != 0;
    out.kind = static_cast<Message::Kind>(kind);
    out.accepted = (flags & 1u) != 0;
    out.gradient.kind = static_cast<CodecKind>(codec_kind);
    out.gradient.bits = codec_bits;
    if (!reader.u32(&out.sender) || !reader.u32(&out.worker) ||
        !reader.u64(&out.token) || !reader.u64(&out.clock) ||
        !reader.u64(&out.version) || !reader.u32(&out.gradient.count) ||
        !reader.f32(&out.gradient.scale))
        return false;
    if (!counted(&out.gradient.norms) || !counted(&out.gradient.payload) ||
        !counted(&out.weights) || !counted(&out.stats))
        return false;
    out.gradient.dim = 0;
    out.gradient.index_payload.clear();
    if (sparse) {
        if (!reader.u32(&out.gradient.dim)) return false;
        if (out.gradient.dim == 0) return false;
        if (!counted(&out.gradient.index_payload)) return false;
    }
    // Trailing bytes are legal in exactly one shape: one well-formed
    // trace block. An old-format frame ends here (no context); anything
    // else — truncation, a lone pad byte, a corrupt block — stays a
    // parse failure.
    return obs::parse_trailing_trace(reader, out.trace);
}

} // namespace buckwild::ps
