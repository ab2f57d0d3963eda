/**
 * @file
 * Communication-precision gradient quantizers — the shared C-term codec.
 *
 * Both executions of the DMGC C axis use the same quantization math:
 *
 *  - the deterministic single-thread *emulation* in core/comm_sgd (the
 *    statistical-efficiency harness, dense rows only), via
 *    quantize_gradient(); and
 *  - the real sharded parameter server in src/ps, via the wire codec
 *    encode_gradient() / decode_gradient() (and, for sparse rows,
 *    encode_sparse_gradient() / decode_sparse_gradient()), which
 *    actually packs the quantized values into the bytes a network would
 *    carry.
 *
 * Four communication codecs, per the paper's Table 1 classification plus
 * the QSGD extension the ROADMAP calls for:
 *
 *  - Cs32 (kDense): full-precision float exchange (classic data-parallel
 *    SGD);
 *  - Cs8 (kLinear): linear 8-bit quantization with a per-message scale;
 *  - Cs1 (kSign): Seide-style 1-bit sign exchange — one shared magnitude
 *    (the mean |g|) plus one sign bit per coordinate;
 *  - CsQ<b> (kQsgd): QSGD [Alistarh et al.] — per-bucket L2 norm,
 *    *stochastic* level rounding onto a (2^(b-1)-1)-level grid via the
 *    lowp/ rounding engine (Eq. 4), one sign bit per coordinate, and
 *    Elias-gamma coded levels. Most coordinates round to small levels,
 *    so the gamma code makes the payload variable-bit: the headline
 *    compression win over Cs8 at b = 4.
 *
 * Below 32 bits the *error feedback* residual is what preserves
 * convergence: the untransmitted remainder g - q is carried forward in
 * full precision and added to the next round's gradient. Every codec
 * maintains the invariant  q[k] + r[k] == g[k]  (exactly as float
 * arithmetic allows), and decode(encode(g)) is bit-identical to the
 * values the encoder subtracted — asserted by tests/test_ps.cpp and
 * tests/test_net.cpp.
 */
#ifndef BUCKWILD_PS_QUANTIZE_H
#define BUCKWILD_PS_QUANTIZE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ps/gradient_view.h"
#include "rng/xorshift.h"

namespace buckwild::ps {

/// @throws std::runtime_error unless bits is 1, 8, or 32.
void validate_comm_bits(int bits);

/// Fixed per-message wire overhead: message kind/bits tags, sender,
/// worker clock, element count, and the quantization scale.
inline constexpr std::size_t kWireHeaderBytes = 16;

/// Coordinates per QSGD norm bucket: one L2 norm is shared by this many
/// consecutive coordinates (Alistarh et al.'s bucketing, d' = 256).
inline constexpr std::size_t kQsgdBucket = 256;

/// How a gradient's coordinates are represented on the wire.
enum class CodecKind : std::uint8_t {
    kDense = 0,  ///< raw float32 (Cs32)
    kLinear = 1, ///< linear int8 levels with one scale (Cs8)
    kSign = 2,   ///< sign bit + shared mean magnitude (Cs1)
    kQsgd = 3,   ///< bucketed L2 norm + stochastic gamma-coded levels
};

/// A communication codec tier: the representation plus its bit depth.
struct Codec
{
    CodecKind kind = CodecKind::kDense;
    int bits = 32;

    /// The classic fixed tiers by bit count: 32 -> Cs32, 8 -> Cs8,
    /// 1 -> Cs1. @throws std::runtime_error on any other count.
    static Codec from_bits(int bits);

    /// CsQ<b>: QSGD with 2^(b-1)-1 magnitude levels, b in [2, 8].
    static Codec qsgd(int bits);

    /// Parses a tier name: "Cs32", "Cs8", "Cs1", "CsQ4" (the "Cs"
    /// prefix is optional, so "--bits 32,8,Q4" style flags parse too).
    /// @throws std::runtime_error on an unknown tier.
    static Codec parse(const std::string& text);

    /// "Cs32" / "Cs8" / "Cs1" / "CsQ<b>".
    std::string name() const;

    bool operator==(const Codec&) const = default;
};

/// @throws std::runtime_error unless kind and bits form a valid tier.
void validate_codec(const Codec& codec);

/// Payload bytes for `count` gradient values at `bits` precision:
/// 4*count (Cs32), count (Cs8), or ceil(count/8) sign bits (Cs1).
/// QSGD payloads are variable-bit and have no closed form.
std::size_t payload_bytes(std::size_t count, int bits);

/**
 * Quantizes a gradient vector for exchange at `bits` precision and
 * leaves the quantization error in `residual` (if error feedback is on).
 * Returns the vector actually transmitted. This is the seed emulation's
 * quantizer, extracted verbatim: core/comm_sgd's loss traces are
 * bit-identical to its pre-extraction behaviour.
 *
 * @param residual  same length as `g`, or nullptr to discard the error.
 */
std::vector<float> quantize_gradient(const std::vector<float>& g, int bits,
                                     std::vector<float>* residual);

/// A quantized gradient as it travels: the packed payload plus the
/// per-message scale (and, for QSGD, per-bucket norms) needed to decode.
struct WireGradient
{
    CodecKind kind = CodecKind::kDense;
    int bits = 32;
    std::uint32_t count = 0;
    /// Per-message scale: the 1-bit magnitude or the 8-bit quantum
    /// (unused at 32 bits and for QSGD, which carries `norms`).
    float scale = 0.0f;
    /// QSGD only: one L2 norm per kQsgdBucket consecutive coordinates.
    std::vector<float> norms;
    /// Packed values: raw floats (Cs32), int8 levels (Cs8), sign bits
    /// (Cs1, bit set = negative, 8 coordinates per byte), or a sign
    /// bitmap followed by the Elias-gamma level bitstream (CsQ).
    std::vector<std::uint8_t> payload;

    // ---- sparse extension (Cs*-sparse / CsQ*-sparse) ----

    /// Sparse marker: the logical coordinate span the indices address.
    /// 0 = dense (the pre-sparse wire format; `count` is the dimension).
    /// Non-zero = sparse: `count` is the nnz, `payload`/`norms` cover
    /// only the nnz value run, and `index_payload` locates each value.
    std::uint32_t dim = 0;
    /// Sparse only: Elias-gamma coded index stream — gamma(index0 + 1)
    /// then gamma(index_j - index_{j-1}) for the strictly ascending
    /// remainder (footnote 6's delta encoding, self-delimiting so i8-
    /// narrow gaps cost 1 bit and wide gaps still fit).
    std::vector<std::uint8_t> index_payload;

    bool sparse() const { return dim != 0; }

    /// Bytes this message occupies on the wire (header + norms +
    /// payload + sparse index stream).
    std::size_t wire_bytes() const
    {
        return kWireHeaderBytes + norms.size() * sizeof(float) +
               payload.size() + index_payload.size();
    }
};

/// A sparse gradient in decoded form: absolute, strictly ascending
/// coordinates over [0, dim) with their dequantized values.
struct SparseGradient
{
    std::uint32_t dim = 0;
    std::vector<std::uint32_t> index;
    std::vector<float> value;

    std::size_t nnz() const { return value.size(); }
};

/**
 * Quantizes and packs `g[0..n)` for transmission; the quantization error
 * is left in `residual[0..n)` when non-null (error feedback). For the
 * fixed tiers the decoded values are bit-identical to quantize_gradient()
 * on the same input. For kQsgd, `rng` supplies the stochastic-rounding
 * dither (Eq. 4); when null a deterministic default-seeded generator is
 * used, so golden tests stay reproducible.
 */
WireGradient encode_gradient(const float* g, std::size_t n,
                             const Codec& codec, float* residual,
                             rng::Xorshift128Plus* rng = nullptr);

/// Fixed-tier convenience overload (32/8/1), preserved bit-identically
/// from before the codec enum existed.
WireGradient encode_gradient(const float* g, std::size_t n, int bits,
                             float* residual);

/// Unpacks a wire gradient back into dequantized float values. A sparse
/// wire gradient densifies to its full `dim` coordinates.
/// @throws std::runtime_error on a malformed payload (size mismatch,
/// truncated bitstream, out-of-range level).
std::vector<float> decode_gradient(const WireGradient& wire);

/**
 * Quantizes and packs a sparse gradient view: the nnz value run goes
 * through the same codec machinery as a dense gradient of length nnz
 * (so CsQ buckets its L2 norms over nnz runs, not coordinates), and the
 * coordinates travel as the Elias-gamma index stream. The view may use
 * any index rep/mode (i8/i16/i32, absolute or delta with padding
 * entries); the wire form is always the gamma gap stream.
 *
 * `residual[0..view.count)` receives the per-entry quantization error,
 * aligned with the view's stored entries (error feedback; padding
 * entries get residual 0). `rng` as in encode_gradient().
 *
 * @throws std::runtime_error on a dense view, a non-ascending index
 * stream, or an index >= view.dim.
 */
WireGradient encode_sparse_gradient(const GradientView& view,
                                    const Codec& codec, float* residual,
                                    rng::Xorshift128Plus* rng = nullptr);

/// Unpacks a sparse wire gradient into absolute (index, value) form.
/// Decoded values are bit-identical to what the encoder subtracted from
/// its residual. @throws std::runtime_error on a dense wire gradient or
/// a malformed index/value payload.
SparseGradient decode_sparse_gradient(const WireGradient& wire);

} // namespace buckwild::ps

#endif // BUCKWILD_PS_QUANTIZE_H
