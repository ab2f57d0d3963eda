/**
 * @file
 * Tests for the first-principles statistical-efficiency model, including
 * an empirical validation: the predicted margin-noise std must match the
 * measured effect of quantizing a random model/dataset within a small
 * constant factor.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "dmgc/advisor.h"
#include "dmgc/statistical.h"
#include "fixed/fixed_point.h"
#include "lowp/grid.h"
#include "lowp/round.h"
#include "rng/xorshift.h"
#include "util/stats.h"

namespace buckwild::dmgc {
namespace {

TEST(Statistical, QuantizationVariance)
{
    EXPECT_DOUBLE_EQ(quantization_variance(0.0), 0.0);
    EXPECT_NEAR(quantization_variance(1.0), 1.0 / 12.0, 1e-12);
    EXPECT_NEAR(quantization_variance(0.5), 0.25 / 12.0, 1e-12);
}

TEST(Statistical, DefaultQuanta)
{
    EXPECT_DOUBLE_EQ(default_quantum(Precision::full()), 0.0);
    EXPECT_NEAR(default_quantum(Precision::fixed(8)), 1.0 / 64.0, 1e-12);
    EXPECT_NEAR(default_quantum(Precision::fixed(16)), 1.0 / 16384.0,
                1e-12);
    EXPECT_THROW(default_quantum(Precision::fixed(5)), std::runtime_error);
}

TEST(Statistical, FullPrecisionHasInfiniteSnr)
{
    NoiseQuery q;
    q.signature = Signature::dense_hogwild();
    EXPECT_EQ(margin_noise_std(q), 0.0);
    EXPECT_TRUE(std::isinf(margin_snr(q)));
}

TEST(Statistical, SnrFallsWithModelSize)
{
    NoiseQuery q;
    q.signature = Signature::dense_fixed(8, 8);
    q.model_size = 1 << 10;
    const double snr_small = margin_snr(q);
    q.model_size = 1 << 20;
    const double snr_large = margin_snr(q);
    EXPECT_GT(snr_small, snr_large * 10.0)
        << "noise grows as sqrt(n) while the margin stays O(1)";
}

TEST(Statistical, SixteenBitBuysEightBitsOfHeadroom)
{
    // qm shrinks by 2^8 from M8 to M16, so the same SNR is reached at a
    // model ~2^16 times larger.
    const std::size_t n8 =
        max_model_size_for_snr(Signature::dense_fixed(8, 8), 3.0);
    const std::size_t n16 =
        max_model_size_for_snr(Signature::dense_fixed(8, 16), 3.0);
    EXPECT_GT(n8, 0u);
    EXPECT_GE(n16 / n8, 1u << 10);
}

TEST(Statistical, EmpiricalValidationOfMarginNoise)
{
    // Quantize a random model + dataset at D8M8 and measure the actual
    // margin perturbation; the analytic prediction must be within a
    // factor of 2 (it models residues as uniform, which is approximate).
    constexpr std::size_t kN = 4096;
    constexpr int kTrials = 200;
    NoiseQuery q;
    q.signature = Signature::dense_fixed(8, 8);
    q.model_size = kN;
    const double predicted = margin_noise_std(q);

    const auto g8 = lowp::GridSpec::from_fixed(fixed::default_format(8));
    rng::Xorshift128 gen(99);
    RunningStats err;
    std::vector<float> w(kN), x(kN);
    const double wr = q.w_rms();
    for (int t = 0; t < kTrials; ++t) {
        double exact = 0.0, quantized = 0.0;
        for (std::size_t k = 0; k < kN; ++k) {
            // Model coordinates at the trained scale; data U[-1,1].
            w[k] = static_cast<float>(
                (rng::to_unit_float(gen()) * 2 - 1) * wr * 1.732);
            x[k] = rng::to_unit_float(gen()) * 2 - 1;
            const double wq =
                lowp::dequantize_raw(lowp::round_biased_raw(w[k], g8), g8);
            const double xq =
                lowp::dequantize_raw(lowp::round_biased_raw(x[k], g8), g8);
            exact += static_cast<double>(w[k]) * x[k];
            quantized += wq * xq;
        }
        err.add(quantized - exact);
    }
    const double measured = err.stddev();
    EXPECT_GT(measured, predicted / 2.0)
        << "measured " << measured << " predicted " << predicted;
    EXPECT_LT(measured, predicted * 2.0)
        << "measured " << measured << " predicted " << predicted;
}

TEST(Statistical, AdvisorWarnsOnCoarseModels)
{
    AdvisorQuery q;
    q.signature = Signature::dense_fixed(8, 8);
    q.model_size = 1 << 22; // SNR way below 3
    const auto advice = advise(q, PerfModel::paper_model());
    bool warned = false;
    for (const auto& r : advice.recommendations)
        warned |= r.action.find("Raise the model precision") !=
                  std::string::npos;
    EXPECT_TRUE(warned);

    q.model_size = 1 << 8; // tiny model: SNR is fine
    const auto ok = advise(q, PerfModel::paper_model());
    for (const auto& r : ok.recommendations)
        EXPECT_EQ(r.action.find("Raise the model precision"),
                  std::string::npos);
}

TEST(Statistical, RejectsBadQueries)
{
    NoiseQuery q;
    q.model_size = 0;
    EXPECT_THROW(margin_noise_std(q), std::runtime_error);
    q = NoiseQuery{};
    q.x_rms = -1.0;
    EXPECT_THROW(margin_noise_std(q), std::runtime_error);
    EXPECT_THROW(
        max_model_size_for_snr(Signature::dense_fixed(8, 8), 0.0),
        std::runtime_error);
}

} // namespace
} // namespace buckwild::dmgc
