/**
 * @file
 * Unit and property tests for fixed-point formats and quantizers.
 *
 * Key invariants from the paper:
 *  - biased rounding maps to the nearest representable value;
 *  - unbiased rounding satisfies E[Q(x)] = x for in-range x (Eq. 4);
 *  - shared randomness keeps each element's rounding unbiased even though
 *    draws are correlated across elements;
 *  - saturation matches hardware pack-with-saturation behaviour.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "fixed/fixed_point.h"
#include "fixed/nibble.h"
#include "lowp/grid.h"
#include "lowp/round.h"
#include "rng/random_source.h"
#include "test_common.h"

namespace buckwild::fixed {
namespace {

TEST(FixedFormat, QuantumAndBounds)
{
    const FixedFormat f8{8, 6};
    EXPECT_DOUBLE_EQ(f8.quantum(), 1.0 / 64.0);
    EXPECT_DOUBLE_EQ(f8.max_value(), 127.0 / 64.0);
    EXPECT_DOUBLE_EQ(f8.min_value(), -2.0);
    EXPECT_EQ(f8.raw_min(), -128);
    EXPECT_EQ(f8.raw_max(), 127);
    EXPECT_EQ(f8.to_string(), "fix8.6");
}

TEST(FixedFormat, DefaultFormatsCoverUnitRangeWithHeadroom)
{
    for (int bits : {4, 8, 16, 32}) {
        const FixedFormat f = default_format(bits);
        EXPECT_EQ(f.bits, bits);
        EXPECT_GE(f.max_value(), 1.0) << "must represent +1";
        EXPECT_LE(f.min_value(), -1.0) << "must represent -1";
    }
    EXPECT_THROW(default_format(7), std::runtime_error);
    EXPECT_TRUE(is_supported_width(8));
    EXPECT_FALSE(is_supported_width(12));
}

// The quantizers are the substrate's (src/lowp/) on a fixed format's
// grid: asymmetric two's-complement saturation, as the hardware's
// pack-with-saturation instructions give.

TEST(BiasedQuantize, RoundsToNearest)
{
    const auto g = lowp::GridSpec::from_fixed({8, 6}); // quantum 1/64
    EXPECT_EQ(lowp::round_biased_raw(0.0, g), 0);
    EXPECT_EQ(lowp::round_biased_raw(1.0, g), 64);
    EXPECT_EQ(lowp::round_biased_raw(1.0 / 128.0 - 1e-9, g), 0); // below .5
    EXPECT_EQ(lowp::round_biased_raw(1.5 / 64.0, g), 2); // ties away: lround
    EXPECT_EQ(lowp::round_biased_raw(-1.0, g), -64);
}

TEST(BiasedQuantize, SaturatesAtFormatBounds)
{
    const auto g = lowp::GridSpec::from_fixed({8, 6});
    EXPECT_EQ(lowp::round_biased_raw(100.0, g), 127);
    EXPECT_EQ(lowp::round_biased_raw(-100.0, g), -128);
}

TEST(Dequantize, RoundTripsRepresentableValues)
{
    const auto g = lowp::GridSpec::from_fixed({16, 14});
    for (long raw : {-16384L, -1L, 0L, 1L, 37L, 16383L}) {
        const double x = lowp::dequantize_raw(raw, g);
        EXPECT_EQ(lowp::round_biased_raw(x, g), raw);
    }
}

TEST(UnbiasedQuantize, ExactValuesAreFixedPoints)
{
    const auto g = lowp::GridSpec::from_fixed({8, 6});
    rng::XorshiftSource src(5);
    // Values already on the grid must never be perturbed.
    for (long raw : {-128L, -3L, 0L, 64L, 127L}) {
        const double x = lowp::dequantize_raw(raw, g);
        for (int i = 0; i < 20; ++i)
            EXPECT_EQ(lowp::round_unbiased_raw(x, g, src.next_unit_float()),
                      raw);
    }
}

TEST(UnbiasedQuantize, OutputIsOneOfTwoNeighbours)
{
    const auto g = lowp::GridSpec::from_fixed({8, 6});
    rng::XorshiftSource src(5);
    const double x = 0.3; // 19.2 quanta
    for (int i = 0; i < 200; ++i) {
        const long q = lowp::round_unbiased_raw(x, g, src.next_unit_float());
        EXPECT_TRUE(q == 19 || q == 20) << q;
    }
}

/// Property: E[Q(x)] = x within sampling error, for every RNG strategy.
class UnbiasedMean
    : public ::testing::TestWithParam<std::tuple<rng::RoundingRng, double>>
{};

TEST_P(UnbiasedMean, ExpectationMatchesInput)
{
    const auto [strategy, x] = GetParam();
    const auto g = lowp::GridSpec::from_fixed({8, 6});
    auto src = rng::make_source(strategy, 1234, /*shared_period=*/8);
    constexpr int kTrials = 200000;
    double sum = 0.0;
    for (int i = 0; i < kTrials; ++i)
        sum += lowp::dequantize_raw(
            lowp::round_unbiased_raw(x, g, src->next_unit_float()), g);
    const double mean = sum / kTrials;
    // stddev of the estimate <= quantum / (2*sqrt(kTrials)) ~ 1.7e-5;
    // allow 6 sigma plus a little slack for the shared source correlation.
    EXPECT_NEAR(mean, x, 6e-4)
        << "strategy=" << to_string(strategy) << " x=" << x;
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndValues, UnbiasedMean,
    ::testing::Combine(::testing::Values(rng::RoundingRng::kMersenne,
                                         rng::RoundingRng::kXorshift,
                                         rng::RoundingRng::kSharedXorshift),
                       ::testing::Values(-0.731, -0.125, 0.0031, 0.3, 0.9517)),
    [](const auto& info) {
        std::string name;
        for (char c : rng::to_string(std::get<0>(info.param)))
            if (c != '-') name += c;
        name += "_x";
        for (char c : std::to_string(std::get<1>(info.param)))
            name += (c == '-' ? 'm' : (c == '.' ? 'p' : c));
        return name;
    });

TEST(UnbiasedQuantize, BiasedRoundingIsBiasedOnAsymmetricInput)
{
    // Sanity check of the *contrast*: nearest rounding of x=k+0.3 always
    // yields k, so its mean error is -0.3 quanta, while unbiased is ~0.
    const auto g = lowp::GridSpec::from_fixed({8, 6});
    const double x = lowp::dequantize_raw(20, g) * 0.985; // 19.7 quanta
    EXPECT_EQ(lowp::round_biased_raw(x, g), 20);          // deterministic
}

TEST(QuantizeArray, BiasedMatchesScalarLoop)
{
    const auto g = lowp::GridSpec::from_fixed({8, 6});
    std::vector<float> in = {0.0f, 0.5f, -0.51f, 1.9f, -7.0f, 0.0078125f};
    std::vector<std::int8_t> out(in.size());
    lowp::quantize_biased(in.data(), out.data(), in.size(), g);
    std::vector<std::int8_t> expected(in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        expected[i] =
            static_cast<std::int8_t>(lowp::round_biased_raw(in[i], g));
    testutil::expect_all_eq(out, expected, "biased array");
}

TEST(QuantizeArray, RoundTripErrorBoundedByHalfQuantum)
{
    const FixedFormat f{16, 14};
    const auto g = lowp::GridSpec::from_fixed(f);
    std::vector<float> in, back;
    for (int i = 0; i < 1000; ++i)
        in.push_back(static_cast<float>(std::sin(0.1 * i)));
    std::vector<std::int16_t> q(in.size());
    back.resize(in.size());
    lowp::quantize_biased(in.data(), q.data(), in.size(), g);
    lowp::dequantize(q.data(), back.data(), in.size(), g);
    testutil::expect_all_near(back, in, f.quantum() / 2 + 1e-7,
                              "round trip");
}

TEST(QuantizeArray, UnbiasedConsumesSource)
{
    const auto g = lowp::GridSpec::from_fixed({8, 6});
    std::vector<float> in(64, 0.3f);
    std::vector<std::int8_t> out(in.size());
    rng::XorshiftSource src(9);
    lowp::quantize_unbiased(in.data(), out.data(), in.size(), g, src);
    int n19 = 0, n20 = 0;
    for (auto v : out) {
        EXPECT_TRUE(v == 19 || v == 20);
        (v == 19 ? n19 : n20)++;
    }
    // 0.3*64 = 19.2 quanta → ~80% 19s, ~20% 20s; require both present.
    EXPECT_GT(n19, 0);
    EXPECT_GT(n20, 0);
}

TEST(QuantizeArray, SharedRandomnessRoundsBlockTogether)
{
    // With period >= block length and identical inputs, every element gets
    // the same random draw, hence the same rounded value.
    const auto g = lowp::GridSpec::from_fixed({8, 6});
    std::vector<float> in(8, 0.3f);
    std::vector<std::int8_t> out(in.size());
    rng::SharedXorshiftSource src(/*period=*/8, /*seed=*/11);
    lowp::quantize_unbiased(in.data(), out.data(), in.size(), g, src);
    for (auto v : out) EXPECT_EQ(v, out[0]);
}

// ---------------------------------------------------------------- nibbles

TEST(Nibble, SignExtension)
{
    EXPECT_EQ(sign_extend_nibble(0x0), 0);
    EXPECT_EQ(sign_extend_nibble(0x7), 7);
    EXPECT_EQ(sign_extend_nibble(0x8), -8);
    EXPECT_EQ(sign_extend_nibble(0xF), -1);
}

TEST(Nibble, SaturationBounds)
{
    EXPECT_EQ(saturate_nibble(100), 7);
    EXPECT_EQ(saturate_nibble(-100), -8);
    EXPECT_EQ(saturate_nibble(3), 3);
}

TEST(Nibble, PackUnpackRoundTrip)
{
    std::vector<std::int8_t> in = {0, 1, -1, 7, -8, 3, -5, 2, 6}; // odd count
    std::vector<std::uint8_t> packed(packed_nibble_bytes(in.size()), 0);
    std::vector<std::int8_t> out(in.size());
    pack_nibbles(in.data(), packed.data(), in.size());
    unpack_nibbles(packed.data(), out.data(), in.size());
    EXPECT_EQ(in, out);
    EXPECT_EQ(packed.size(), 5u);
}

TEST(Nibble, StoreSaturatesOutOfRange)
{
    std::vector<std::uint8_t> packed(1, 0);
    store_nibble(packed.data(), 0, 99);
    store_nibble(packed.data(), 1, -99);
    EXPECT_EQ(load_nibble(packed.data(), 0), 7);
    EXPECT_EQ(load_nibble(packed.data(), 1), -8);
}

TEST(Nibble, IndependentSlots)
{
    std::vector<std::uint8_t> packed(2, 0);
    store_nibble(packed.data(), 0, -3);
    store_nibble(packed.data(), 1, 5);
    store_nibble(packed.data(), 2, -8);
    EXPECT_EQ(load_nibble(packed.data(), 0), -3);
    EXPECT_EQ(load_nibble(packed.data(), 1), 5);
    EXPECT_EQ(load_nibble(packed.data(), 2), -8);
    // Overwrite the middle one; neighbours unaffected.
    store_nibble(packed.data(), 1, 7);
    EXPECT_EQ(load_nibble(packed.data(), 0), -3);
    EXPECT_EQ(load_nibble(packed.data(), 1), 7);
    EXPECT_EQ(load_nibble(packed.data(), 2), -8);
}

TEST(Nibble, QuantizeToNibbleFormat)
{
    // default_format(4) = fix4.2: quantum 0.25, range [-2, 1.75].
    const auto g4 = lowp::GridSpec::from_fixed(default_format(4));
    EXPECT_EQ(lowp::round_biased_raw(0.25, g4), 1);
    EXPECT_EQ(lowp::round_biased_raw(1.75, g4), 7);
    EXPECT_EQ(lowp::round_biased_raw(5.0, g4), 7);
    EXPECT_EQ(lowp::round_biased_raw(-5.0, g4), -8);
}

} // namespace
} // namespace buckwild::fixed
