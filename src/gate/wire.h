/**
 * @file
 * The gate wire protocol — what a scoring client puts inside a net::
 * frame when it talks to the serving front door.
 *
 * Little-endian throughout, fixed field order, bounds-checked parsing
 * through the net/bytes.h codec, like ps/wire.h. Every frame payload
 * starts with a one-byte message kind; the two kinds are:
 *
 * ScoreRequest (kind 1):
 *
 *     offset  size  field
 *     0       1     kind = 1
 *     1       1     feature encoding (FeatureEncoding)
 *     2       1     priority lane (Lane)
 *     3       1     reserved (must be 0)
 *     4       8     request id (client-chosen, echoed in the response)
 *     12      4     deadline_us (0 = no deadline; relative budget)
 *     16      4     q8 scale (IEEE-754 float bits; 0 unless kDenseQ8)
 *     20      2     model name length M
 *     22      2     tenant id length T
 *     24      4     feature count N
 *     28      M     model name bytes
 *     ...     T     tenant id bytes
 *     ...     ...   features:
 *                     kDenseF32  — N * 4 bytes of float features
 *                     kDenseQ8   — N * 1 byte of int8 levels (x = q *
 *                                  scale): the lowp-quantized payload
 *                                  that ships 4x fewer bytes for models
 *                                  served at Ms8
 *                     kSparseF32 — N * 4 bytes of u32 coordinates, then
 *                                  N * 4 bytes of float values
 *
 * ScoreResponse (kind 2):
 *
 *     offset  size  field
 *     0       1     kind = 2
 *     1       1     status (Status)
 *     2       2     reserved (must be 0)
 *     4       8     request id (echo)
 *     12      4     margin (float bits)
 *     16      4     score (float bits)
 *     20      4     label (float bits)
 *     24      8     model version
 *     32      2     message length, then that many bytes (rejection
 *                   reason / error detail)
 *
 * Either message may end with one optional 58-byte trace block
 * (obs/tracectx.h: tag 0xCE, version, trace/span/parent ids, send
 * timestamp, and the two echo timestamps that make a response a
 * complete NTP-style clock-offset sample). It is appended only when the
 * message carries a valid TraceContext, so tracing-off bytes are
 * identical to the historical layout; parsers accept either the exact
 * historical end or exactly one well-formed block, and still reject
 * every truncation and trailing-garbage shape in between.
 *
 * deserialize() is defensive: every length is checked against the
 * buffer and the protocol caps *before* any allocation, and trailing
 * garbage is rejected — a malformed payload returns false and the
 * ingress drops or NACKs the connection instead of crashing
 * (tests/test_gate.cpp sweeps every truncation point).
 */
#ifndef BUCKWILD_GATE_WIRE_H
#define BUCKWILD_GATE_WIRE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/tracectx.h"

namespace buckwild::gate {

/// First payload byte of every gate message.
enum class MsgKind : std::uint8_t {
    kScoreRequest = 1,
    kScoreResponse = 2,
};

/// How the request's feature numbers travel.
enum class FeatureEncoding : std::uint8_t {
    kDenseF32 = 0,  ///< N floats
    kDenseQ8 = 1,   ///< N int8 levels + one float scale (4x fewer bytes)
    kSparseF32 = 2, ///< N (u32 coordinate, float value) pairs
};

/// Priority lanes. Interactive traffic preempts batch at every pop;
/// admission sheds batch first under overload.
enum class Lane : std::uint8_t {
    kInteractive = 0,
    kBatch = 1,
};

/// Number of priority lanes.
inline constexpr std::size_t kLanes = 2;

/// "interactive" / "batch" (Prometheus label values, CLI flag values).
const char* to_string(Lane lane);

/// Response status — the explicit failure vocabulary that replaces
/// queue-to-collapse: a shed request costs one small frame, not a
/// timeout.
enum class Status : std::uint8_t {
    kOk = 0,
    kResourceExhausted = 1, ///< rate limit / queue full — shed, retry later
    kDeadlineExceeded = 2,  ///< could not (or would not) finish in budget
    kUnknownModel = 3,      ///< no model registered under that name
    kInvalid = 4,           ///< well-framed but unusable request
    kShuttingDown = 5,      ///< server is draining
};

/// "ok" / "resource_exhausted" / ... (label values).
const char* to_string(Status status);

// Protocol caps, enforced before allocation on the parse path.
inline constexpr std::size_t kMaxModelNameBytes = 256;
inline constexpr std::size_t kMaxTenantBytes = 256;
inline constexpr std::size_t kMaxFeatureCount = 1u << 24;
inline constexpr std::size_t kMaxMessageBytes = 1024;

/// One scoring request as the client authors it / the ingress sees it.
struct ScoreRequest
{
    std::uint64_t request_id = 0;
    std::string model;  ///< routing key into the model table
    std::string tenant; ///< rate-limit + accounting key
    Lane lane = Lane::kInteractive;
    std::uint32_t deadline_us = 0; ///< 0 = no deadline
    FeatureEncoding encoding = FeatureEncoding::kDenseF32;
    float scale = 0.0f; ///< q8 quantum (kDenseQ8 only)

    // Exactly one representation is populated, per `encoding`:
    std::vector<float> dense;        ///< kDenseF32 features / sparse values
    std::vector<std::int8_t> q8;     ///< kDenseQ8 levels
    std::vector<std::uint32_t> index; ///< kSparseF32 coordinates

    /// Optional distributed-tracing identity + timestamps; on the wire
    /// only while trace.ctx.valid() (the trailing block above).
    obs::WireTrace trace;

    /// Feature numbers this request carries (the admission cost input).
    std::size_t
    feature_count() const
    {
        return encoding == FeatureEncoding::kDenseQ8 ? q8.size()
                                                     : dense.size();
    }
};

/// The reply to one ScoreRequest.
struct ScoreResponse
{
    std::uint64_t request_id = 0;
    Status status = Status::kOk;
    float margin = 0.0f;
    float score = 0.0f;
    float label = 0.0f;
    std::uint64_t model_version = 0;
    std::string message; ///< human-readable rejection/error detail

    /// Optional trace echo (see ScoreRequest::trace); a traced response
    /// carries the request's send/recv timestamps back so the client
    /// can compute the server's clock offset statelessly.
    obs::WireTrace trace;

    bool ok() const { return status == Status::kOk; }
};

/// Flattens a request into the layout above.
std::vector<std::uint8_t> serialize(const ScoreRequest& request);

/// Parses `data[0..n)`. False (out unspecified) on truncated, oversized,
/// or otherwise malformed input — including trailing garbage.
bool deserialize(const std::uint8_t* data, std::size_t n,
                 ScoreRequest& out);

std::vector<std::uint8_t> serialize(const ScoreResponse& response);
bool deserialize(const std::uint8_t* data, std::size_t n,
                 ScoreResponse& out);

/**
 * Quantizes dense features onto a symmetric int8 grid fitted to
 * max|x| (the lowp biased array kernel — features are written once and
 * read once, so stochastic rounding buys nothing). Returns the scale
 * (real value of one level) to put into ScoreRequest::scale.
 */
float quantize_features_q8(const float* x, std::size_t n,
                           std::vector<std::int8_t>& out);

/// Reconstructs floats from q8 levels: x[i] = q[i] * scale.
void dequantize_features_q8(const std::int8_t* q, std::size_t n,
                            float scale, float* out);

} // namespace buckwild::gate

#endif // BUCKWILD_GATE_WIRE_H
