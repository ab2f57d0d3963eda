/**
 * @file
 * The precision-substrate suite: cross-layer bit-identity against golden
 * vectors captured from the pre-substrate (seed) implementations, the
 * saturation-semantics pin, unbiased-rounding statistics, and the
 * scalar-vs-AVX2 kernel equivalence checks.
 *
 * The golden constants below were printed by the seed code (hex float
 * literals, so they embed bit-exactly). Every migrated call site — engine
 * loss traces, ps wire payloads, serve published models, nn grids, fixed
 * array quantization — must keep reproducing them exactly.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "buckwild/buckwild.h"
#include "kernel_comparator.h"
#include "test_common.h"
#include "nn/quantizer.h"
#include "ps/quantize.h"
#include "serve/model_registry.h"
#include "serve/precision.h"

namespace buckwild {
namespace {

/// The deterministic input stream every golden vector was captured with.
std::vector<float>
test_input(std::size_t n, float scale)
{
    std::vector<float> v(n);
    rng::Xorshift128 gen(0xC0FFEE);
    for (auto& x : v)
        x = (rng::to_unit_float(gen()) * 2.0f - 1.0f) * scale;
    return v;
}

// ---------------------------------------------------------------------
// Saturation-semantics pin (the two conventions, made explicit)
// ---------------------------------------------------------------------

TEST(LowpGrid, FixedGridsUseAsymmetricTwosComplementBounds)
{
    const auto grid = lowp::GridSpec::from_fixed(fixed::default_format(8));
    EXPECT_EQ(grid.raw_min, -128);
    EXPECT_EQ(grid.raw_max, 127);
    // The most negative code IS representable on the raw/fixed path
    // (hardware pack-with-saturation semantics).
    EXPECT_EQ(lowp::round_biased_raw(-1e9, grid), -128);
    EXPECT_EQ(lowp::saturate_raw(-128, grid), -128);
}

TEST(LowpGrid, SymmetricGridsExcludeTheMostNegativeCode)
{
    // The nn / G-term float-storage convention: bounds are ±(2^(b-1)-1),
    // so negating any representable value never saturates.
    const auto grid = lowp::GridSpec::symmetric(8, 2.0);
    EXPECT_EQ(grid.raw_min, -127);
    EXPECT_EQ(grid.raw_max, 127);
    const float q = grid.quantum_f();
    EXPECT_EQ(lowp::snap_nearest(-1e9f, grid), -127.0f * q);
    EXPECT_EQ(lowp::snap_nearest(-1e9f, grid),
              -lowp::snap_nearest(1e9f, grid));
}

TEST(LowpGrid, SymmetricQuantumMatchesQuantSpec)
{
    for (int bits : {2, 4, 8, 16}) {
        nn::QuantSpec spec{bits, nn::Round::kNearest, 2.0f};
        EXPECT_EQ(spec.grid().quantum_f(), spec.quantum()) << bits;
    }
}

// ---------------------------------------------------------------------
// Golden: array quantization on a fixed format (per-write unbiased)
// ---------------------------------------------------------------------

TEST(LowpGolden, FixedUnbiasedArrayMatchesSeed)
{
    const auto v = test_input(16, 1.2f);
    std::vector<std::int8_t> out(v.size());
    rng::XorshiftSource src(7);
    lowp::quantize_unbiased(
        v.data(), out.data(), v.size(),
        lowp::GridSpec::from_fixed(fixed::default_format(8)), src);
    const std::vector<std::int8_t> expected = {-76, 72, -73, -4, -59, -57,
                                               54,  62, 70,  -47, 31, -1,
                                               15,  -56, -72, 63};
    testutil::expect_all_eq(out, expected, "fixed q8 unbiased raw");
}

// ---------------------------------------------------------------------
// Golden: engine loss traces (D-quantization + M-writes + G-term)
// ---------------------------------------------------------------------

TEST(LowpGolden, EngineLossTraceD8M8MatchesSeed)
{
    const auto problem = testutil::logistic_problem(32, 256, 1234);
    core::TrainerConfig cfg;
    cfg.signature = dmgc::Signature::dense_fixed(8, 8);
    cfg.threads = 1;
    cfg.epochs = 3;
    cfg.impl = simd::Impl::kReference;
    core::Trainer trainer(cfg);
    const auto m = trainer.fit(problem);
    const std::vector<double> expected = {0x1.36c0e2bef0cp-2,
                                          0x1.104c565748p-2,
                                          0x1.027f76966a8p-2};
    ASSERT_EQ(m.loss_trace.size(), expected.size());
    testutil::expect_all_eq(m.loss_trace, expected, "d8m8 loss trace");
    EXPECT_EQ(m.final_loss, 0x1.027f76966a8p-2);
}

TEST(LowpGolden, EngineLossTraceD16M16G8MatchesSeed)
{
    const auto problem = testutil::logistic_problem(32, 256, 99);
    core::TrainerConfig cfg;
    cfg.signature = dmgc::Signature::dense_fixed(16, 16);
    cfg.signature.gradient = dmgc::Precision::fixed(8);
    cfg.threads = 1;
    cfg.epochs = 3;
    cfg.impl = simd::Impl::kReference;
    core::Trainer trainer(cfg);
    const auto m = trainer.fit(problem);
    const std::vector<double> expected = {0x1.78d76fb4834p-2,
                                          0x1.602dcbad77ep-2,
                                          0x1.59054f7305dep-2};
    ASSERT_EQ(m.loss_trace.size(), expected.size());
    testutil::expect_all_eq(m.loss_trace, expected, "d16m16g8 loss trace");
    EXPECT_EQ(m.final_loss, 0x1.59054f7305dep-2);
}

// ---------------------------------------------------------------------
// Golden: ps C-codec wire payloads (Cs1 and Cs8)
// ---------------------------------------------------------------------

TEST(LowpGolden, PsWirePayloadCs1MatchesSeed)
{
    const auto g = test_input(13, 0.8f);
    std::vector<float> residual(g.size(), 0.0f);
    const auto wire =
        ps::encode_gradient(g.data(), g.size(), 1, residual.data());
    EXPECT_EQ(wire.scale, 0x1.feb032p-2f);
    const std::vector<std::uint8_t> expected = {0x3d, 0x0a};
    testutil::expect_all_eq(wire.payload, expected, "cs1 payload");
    // Error-feedback invariant: r == g - q bit-exactly (the float
    // subtraction the worker replays when it adds the residual back).
    const auto q = ps::decode_gradient(wire);
    for (std::size_t k = 0; k < g.size(); ++k)
        EXPECT_EQ(residual[k], g[k] - q[k]) << k;
}

TEST(LowpGolden, PsWirePayloadCs8MatchesSeed)
{
    const auto g = test_input(13, 0.8f);
    std::vector<float> residual(g.size(), 0.0f);
    const auto wire =
        ps::encode_gradient(g.data(), g.size(), 8, residual.data());
    EXPECT_EQ(wire.scale, 0x1.9908f8p-8f);
    const std::vector<std::uint8_t> expected = {0x81, 0x78, 0x85, 0xfb, 0x9d,
                                                0xa0, 0x5a, 0x68, 0x76, 0xb1,
                                                0x33, 0xfd, 0x19};
    testutil::expect_all_eq(wire.payload, expected, "cs8 payload");
    const auto q = ps::decode_gradient(wire);
    for (std::size_t k = 0; k < g.size(); ++k)
        EXPECT_EQ(residual[k], g[k] - q[k]) << k;
}

// ---------------------------------------------------------------------
// Golden: serve publish-time Ms quantization
// ---------------------------------------------------------------------

TEST(LowpGolden, ServePublishedModelsMatchSeed)
{
    const auto model = testutil::make_saved_model(test_input(12, 3.0f));

    serve::ServingModel m8(model, serve::Precision::kInt8, 1);
    EXPECT_EQ(m8.format().frac_bits, 5);
    const std::vector<std::int8_t> raw8 = {-95, 90, -92, -4, -74, -72,
                                           67,  78, 88,  -59, 38, -2};
    for (std::size_t k = 0; k < raw8.size(); ++k)
        EXPECT_EQ(m8.weights_i8()[k], raw8[k]) << k;

    serve::ServingModel m16(model, serve::Precision::kInt16, 2);
    EXPECT_EQ(m16.format().frac_bits, 13);
    const std::vector<std::int16_t> raw16 = {-24350, 22943,  -23526, -1002,
                                             -18959, -18483, 17192,  19948,
                                             22538,  -15155, 9686,   -538};
    for (std::size_t k = 0; k < raw16.size(); ++k)
        EXPECT_EQ(m16.weights_i16()[k], raw16[k]) << k;
}

// ---------------------------------------------------------------------
// Golden: nn weight-grid quantization (stochastic, seeded)
// ---------------------------------------------------------------------

TEST(LowpGolden, NnStochasticGridMatchesSeed)
{
    auto v = test_input(16, 1.5f);
    nn::QuantSpec spec{8, nn::Round::kStochastic, 2.0f};
    rng::Xorshift128 gen(42);
    nn::quantize_array(v.data(), v.size(), spec, gen);
    const std::vector<float> expected = {
        -0x1.7cp+0, 0x1.68p+0,  -0x1.7p+0,  -0x1p-4,
        -0x1.28p+0, -0x1.24p+0, 0x1.0cp+0,  0x1.38p+0,
        0x1.6p+0,   -0x1.d8p-1, 0x1.3p-1,   -0x1p-5,
        0x1.3p-2,   -0x1.1cp+0, -0x1.68p+0, 0x1.3cp+0};
    testutil::expect_all_eq(v, expected, "nn q8 stochastic");
}

// ---------------------------------------------------------------------
// Unbiased rounding statistics: E[Q(x)] = x (Eq. 4)
// ---------------------------------------------------------------------

TEST(LowpRound, UnbiasedRoundingIsMeanPreserving)
{
    // For each of a spread of in-range inputs, average many stochastic
    // roundings and check the mean against a CI bound: the per-sample
    // error is < 1 quantum, so the standard error of kTrials samples is
    // < q / sqrt(kTrials); 6 sigma gives a comfortably deterministic test.
    const auto grid = lowp::GridSpec::from_fixed(fixed::default_format(8));
    const double q = grid.quantum;
    constexpr int kTrials = 40000;
    rng::Xorshift128 gen(0xF00D);
    for (double x : {-1.37, -0.5018, -0.031, 0.0, 0.24996, 0.77, 1.93}) {
        double sum = 0.0;
        for (int t = 0; t < kTrials; ++t)
            sum += lowp::dequantize_raw(
                lowp::round_unbiased_raw(x, grid,
                                         rng::to_unit_float(gen())),
                grid);
        const double mean = sum / kTrials;
        EXPECT_NEAR(mean, x, 6.0 * q / std::sqrt(double(kTrials))) << x;
    }
}

TEST(LowpRound, SharedRandomnessRoundingIsMeanPreservingAcrossBlocks)
{
    // The §5.2 path: mean over many *blocks* (fresh 256-bit draw each
    // round) of the shared-rounded value must also converge to x.
    const auto grid = lowp::GridSpec::symmetric(8, 2.0);
    const float x = 0.7113f;
    lowp::SharedRandom shared(123, 1); // refresh every tick
    constexpr int kTrials = 40000;
    double sum = 0.0;
    float in[8], out_check;
    std::int8_t out[8];
    for (int i = 0; i < 8; ++i) in[i] = x;
    for (int t = 0; t < kTrials; ++t) {
        shared.tick();
        lowp::quantize_shared(in, out, 8, grid, shared.words());
        sum += static_cast<double>(out[0]) * grid.quantum;
        // All lanes round the same input with *different* words.
        out_check = static_cast<float>(out[0]);
        (void)out_check;
    }
    EXPECT_NEAR(sum / kTrials, x,
                6.0 * grid.quantum / std::sqrt(double(kTrials)));
}

// ---------------------------------------------------------------------
// Kernel equivalence (bit-exact, registry-enumerated)
// ---------------------------------------------------------------------

TEST(LowpKernels, AllRegisteredVariantsMatchScalarReference)
{
    // The KernelComparator sweeps every registered "lowp.*" variant
    // (whatever this build + host carries) against the scalar reference
    // over all dims 0..129, large odd sizes, and unaligned offsets —
    // bit-exact everywhere, including the saturation paths.
    testutil::compare_lowp_kernels();
}

TEST(LowpKernels, PublicEntriesFollowTheForcedResolution)
{
    // The public array entries dispatch through generation-checked
    // caches; forcing the reference tier must steer them (and the
    // vectorized() report) without recompilation.
    const auto grid = lowp::GridSpec::from_fixed(fixed::default_format(8));
    const auto in = test_input(64, 6.0f);
    std::vector<std::int8_t> forced(64), direct(64);
    {
        simd::ForcedImplGuard guard(simd::Impl::kReference);
        EXPECT_FALSE(lowp::vectorized());
        lowp::quantize_biased(in.data(), forced.data(), 64, grid);
    }
    lowp::scalar::quantize_biased(in.data(), direct.data(), 64, grid);
    testutil::expect_all_eq(forced, direct, "forced-reference biased i8");
}

TEST(LowpKernels, DequantizeRoundTripsRawCodes)
{
    const auto grid = lowp::GridSpec::from_fixed(fixed::default_format(8));
    std::vector<std::int8_t> raw(256);
    for (int i = 0; i < 256; ++i)
        raw[i] = static_cast<std::int8_t>(i - 128);
    std::vector<float> vals(raw.size());
    lowp::dequantize(raw.data(), vals.data(), raw.size(), grid);
    std::vector<std::int8_t> back(raw.size());
    lowp::quantize_biased(vals.data(), back.data(), vals.size(), grid);
    testutil::expect_all_eq(back, raw, "i8 round trip");
}

// ---------------------------------------------------------------------
// SharedRandom semantics
// ---------------------------------------------------------------------

TEST(LowpSharedRandom, TickRefreshesOnSchedule)
{
    lowp::SharedRandom a(42, 3);
    lowp::SharedRandom b(42, 3);
    std::vector<std::uint32_t> first(a.words(), a.words() + 8);
    // Same seed -> same initial block.
    EXPECT_EQ(first, std::vector<std::uint32_t>(b.words(), b.words() + 8));
    // Not refreshed until the third tick.
    EXPECT_FALSE(a.tick());
    EXPECT_FALSE(a.tick());
    EXPECT_EQ(first, std::vector<std::uint32_t>(a.words(), a.words() + 8));
    EXPECT_TRUE(a.tick());
    EXPECT_NE(first, std::vector<std::uint32_t>(a.words(), a.words() + 8));
}

TEST(LowpSharedRandom, WorkerSeedMatchesEngineExpression)
{
    const std::uint64_t seed = 0x5EED;
    for (std::size_t tid = 0; tid < 4; ++tid)
        EXPECT_EQ(lowp::SharedRandom::worker_seed(seed, tid),
                  seed * 0x9E3779B9u + 0xB5297A4Du * (tid + 1));
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

TEST(LowpDispatch, ValueAndIndexRepsResolve)
{
    EXPECT_EQ(lowp::with_value_rep(
                  8, [](auto t) {
                      return static_cast<int>(
                          sizeof(typename decltype(t)::type));
                  }),
              1);
    EXPECT_EQ(lowp::with_value_rep(
                  16, [](auto t) {
                      return static_cast<int>(
                          sizeof(typename decltype(t)::type));
                  }),
              2);
    EXPECT_TRUE(lowp::with_value_rep(32, [](auto t) {
        return lowp::is_float_rep<typename decltype(t)::type>;
    }));
    EXPECT_EQ(lowp::with_index_rep(
                  16, [](auto t) {
                      return static_cast<int>(
                          sizeof(typename decltype(t)::type));
                  }),
              2);
}

TEST(LowpDispatch, CheckedRepWidthNormalizes)
{
    EXPECT_EQ(lowp::checked_rep_width(dmgc::Precision::fixed(8), "x"), 8);
    EXPECT_EQ(lowp::checked_rep_width(dmgc::Precision::fixed(16), "x"), 16);
    EXPECT_EQ(lowp::checked_rep_width(dmgc::Precision::full(), "x"), 32);
}

} // namespace
} // namespace buckwild
