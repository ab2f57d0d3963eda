#include "gate/wire.h"

#include <algorithm>
#include <cmath>

#include "lowp/grid.h"
#include "lowp/round.h"
#include "net/bytes.h"

namespace buckwild::gate {

namespace {

constexpr std::size_t kRequestFixedBytes = 28;
constexpr std::size_t kResponseFixedBytes = 34;

} // namespace

const char*
to_string(Lane lane)
{
    switch (lane) {
    case Lane::kInteractive: return "interactive";
    case Lane::kBatch: return "batch";
    }
    return "?";
}

const char*
to_string(Status status)
{
    switch (status) {
    case Status::kOk: return "ok";
    case Status::kResourceExhausted: return "resource_exhausted";
    case Status::kDeadlineExceeded: return "deadline_exceeded";
    case Status::kUnknownModel: return "unknown_model";
    case Status::kInvalid: return "invalid";
    case Status::kShuttingDown: return "shutting_down";
    }
    return "?";
}

std::vector<std::uint8_t>
serialize(const ScoreRequest& request)
{
    std::vector<std::uint8_t> out;
    out.reserve(kRequestFixedBytes + request.model.size() +
                request.tenant.size() + request.dense.size() * 4 +
                request.q8.size() + request.index.size() * 4);
    net::ByteWriter writer(out);
    writer.u8(static_cast<std::uint8_t>(MsgKind::kScoreRequest));
    writer.u8(static_cast<std::uint8_t>(request.encoding));
    writer.u8(static_cast<std::uint8_t>(request.lane));
    writer.u8(0); // reserved
    writer.u64(request.request_id);
    writer.u32(request.deadline_us);
    writer.f32(request.scale);
    writer.u16(static_cast<std::uint16_t>(request.model.size()));
    writer.u16(static_cast<std::uint16_t>(request.tenant.size()));
    writer.u32(static_cast<std::uint32_t>(request.feature_count()));
    writer.array(request.model);
    writer.array(request.tenant);
    switch (request.encoding) {
    case FeatureEncoding::kDenseF32: writer.array(request.dense); break;
    case FeatureEncoding::kDenseQ8: writer.array(request.q8); break;
    case FeatureEncoding::kSparseF32:
        writer.array(request.index);
        writer.array(request.dense);
        break;
    }
    if (request.trace.ctx.valid())
        obs::append_trace_block(out, request.trace);
    return out;
}

bool
deserialize(const std::uint8_t* data, std::size_t n, ScoreRequest& out)
{
    net::ByteReader reader(data, n);
    std::uint8_t kind = 0;
    std::uint8_t encoding = 0;
    std::uint8_t lane = 0;
    std::uint8_t reserved = 0;
    if (!reader.u8(&kind) || !reader.u8(&encoding) || !reader.u8(&lane) ||
        !reader.u8(&reserved))
        return false;
    if (kind != static_cast<std::uint8_t>(MsgKind::kScoreRequest))
        return false;
    if (encoding > static_cast<std::uint8_t>(FeatureEncoding::kSparseF32))
        return false;
    if (lane >= kLanes) return false;
    if (reserved != 0) return false;
    out.encoding = static_cast<FeatureEncoding>(encoding);
    out.lane = static_cast<Lane>(lane);
    std::uint16_t model_len = 0;
    std::uint16_t tenant_len = 0;
    std::uint32_t count = 0;
    if (!reader.u64(&out.request_id) || !reader.u32(&out.deadline_us) ||
        !reader.f32(&out.scale) || !reader.u16(&model_len) ||
        !reader.u16(&tenant_len) || !reader.u32(&count))
        return false;
    if (model_len > kMaxModelNameBytes) return false;
    if (tenant_len > kMaxTenantBytes) return false;
    if (count > kMaxFeatureCount) return false;
    if (!reader.array(&out.model, model_len)) return false;
    if (!reader.array(&out.tenant, tenant_len)) return false;
    // array() checks each declared run against the remaining buffer
    // before resizing — a corrupt count never drives an allocation.
    out.dense.clear();
    out.q8.clear();
    out.index.clear();
    switch (out.encoding) {
    case FeatureEncoding::kDenseF32:
        if (!reader.array(&out.dense, count)) return false;
        break;
    case FeatureEncoding::kDenseQ8:
        if (!reader.array(&out.q8, count)) return false;
        break;
    case FeatureEncoding::kSparseF32:
        if (!reader.array(&out.index, count) ||
            !reader.array(&out.dense, count))
            return false;
        break;
    }
    return obs::parse_trailing_trace(reader, out.trace);
}

std::vector<std::uint8_t>
serialize(const ScoreResponse& response)
{
    std::vector<std::uint8_t> out;
    out.reserve(kResponseFixedBytes + response.message.size());
    net::ByteWriter writer(out);
    writer.u8(static_cast<std::uint8_t>(MsgKind::kScoreResponse));
    writer.u8(static_cast<std::uint8_t>(response.status));
    writer.u16(0); // reserved
    writer.u64(response.request_id);
    writer.f32(response.margin);
    writer.f32(response.score);
    writer.f32(response.label);
    writer.u64(response.model_version);
    writer.u16(static_cast<std::uint16_t>(response.message.size()));
    writer.array(response.message);
    if (response.trace.ctx.valid())
        obs::append_trace_block(out, response.trace);
    return out;
}

bool
deserialize(const std::uint8_t* data, std::size_t n, ScoreResponse& out)
{
    net::ByteReader reader(data, n);
    std::uint8_t kind = 0;
    std::uint8_t status = 0;
    std::uint16_t reserved = 0;
    if (!reader.u8(&kind) || !reader.u8(&status) || !reader.u16(&reserved))
        return false;
    if (kind != static_cast<std::uint8_t>(MsgKind::kScoreResponse))
        return false;
    if (status > static_cast<std::uint8_t>(Status::kShuttingDown))
        return false;
    if (reserved != 0) return false;
    out.status = static_cast<Status>(status);
    std::uint16_t message_len = 0;
    if (!reader.u64(&out.request_id) || !reader.f32(&out.margin) ||
        !reader.f32(&out.score) || !reader.f32(&out.label) ||
        !reader.u64(&out.model_version) || !reader.u16(&message_len))
        return false;
    if (message_len > kMaxMessageBytes) return false;
    if (!reader.array(&out.message, message_len)) return false;
    return obs::parse_trailing_trace(reader, out.trace);
}

float
quantize_features_q8(const float* x, std::size_t n,
                     std::vector<std::int8_t>& out)
{
    out.resize(n);
    // Scan for the range ourselves rather than via lowp::max_abs: a NaN
    // loses every max() comparison, so it would slip past a range-only
    // finiteness check and quantize to a garbage level.
    float range = 0.0f;
    bool finite = true;
    for (std::size_t i = 0; i < n; ++i) {
        if (!std::isfinite(x[i])) finite = false;
        range = std::max(range, std::fabs(x[i]));
    }
    if (n == 0 || range == 0.0f || !finite) {
        std::fill(out.begin(), out.end(), std::int8_t{0});
        return 0.0f;
    }
    // Symmetric int8 grid fitted to max|x|: quantum = range/127 so the
    // largest-magnitude feature lands exactly on the outermost level.
    const lowp::GridSpec grid{static_cast<double>(range) / 127.0, -127,
                              127};
    lowp::quantize_biased(x, out.data(), n, grid);
    return grid.quantum_f();
}

void
dequantize_features_q8(const std::int8_t* q, std::size_t n, float scale,
                       float* out)
{
    const lowp::GridSpec grid{static_cast<double>(scale), -127, 127};
    lowp::dequantize(q, out, n, grid);
}

} // namespace buckwild::gate
