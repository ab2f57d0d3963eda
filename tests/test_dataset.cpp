/**
 * @file
 * Tests for the dataset substrate: synthetic generators, quantized
 * containers (dense and CSR with low-precision/delta indices), the digit
 * image generator, and random Fourier features.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "dataset/digits.h"
#include "dataset/fourier.h"
#include "dataset/problem.h"
#include "dataset/quantized.h"
#include "lowp/grid.h"
#include "lowp/round.h"

namespace buckwild::dataset {
namespace {

// ---------------------------------------------------------- generators

TEST(LogisticDense, ShapesAndRanges)
{
    const auto p = generate_logistic_dense(64, 200, 1);
    EXPECT_EQ(p.dim, 64u);
    EXPECT_EQ(p.examples, 200u);
    EXPECT_EQ(p.x.size(), 64u * 200u);
    EXPECT_EQ(p.y.size(), 200u);
    EXPECT_EQ(p.w_true.size(), 64u);
    for (float v : p.x) {
        EXPECT_GE(v, -1.0f);
        EXPECT_LE(v, 1.0f);
    }
    for (float v : p.y) EXPECT_TRUE(v == 1.0f || v == -1.0f);
}

TEST(LogisticDense, DeterministicInSeedAndVariedAcrossSeeds)
{
    const auto a = generate_logistic_dense(16, 50, 7);
    const auto b = generate_logistic_dense(16, 50, 7);
    const auto c = generate_logistic_dense(16, 50, 8);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.y, b.y);
    EXPECT_NE(a.x, c.x);
}

TEST(LogisticDense, LabelsCorrelateWithTrueModel)
{
    // The generative model must produce learnable labels: the margin
    // w*.x should be positive more often for y=+1 examples.
    const auto p = generate_logistic_dense(128, 2000, 3);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < p.examples; ++i) {
        double dot = 0.0;
        for (std::size_t k = 0; k < p.dim; ++k)
            dot += static_cast<double>(p.row(i)[k]) * p.w_true[k];
        if ((dot >= 0) == (p.y[i] > 0)) ++agree;
    }
    EXPECT_GT(static_cast<double>(agree) / p.examples, 0.75);
}

TEST(LogisticDense, RejectsDegenerateShapes)
{
    EXPECT_THROW(generate_logistic_dense(0, 10, 1), std::runtime_error);
    EXPECT_THROW(generate_logistic_dense(10, 0, 1), std::runtime_error);
}

TEST(LogisticSparse, DensityAndSortedDistinctIndices)
{
    const auto p = generate_logistic_sparse(1000, 100, 0.03, 5);
    EXPECT_EQ(p.dim, 1000u);
    EXPECT_EQ(p.examples(), 100u);
    for (const auto& row : p.rows) {
        EXPECT_EQ(row.index.size(), 30u); // ceil(0.03 * 1000)
        EXPECT_EQ(row.value.size(), row.index.size());
        std::set<std::uint32_t> uniq(row.index.begin(), row.index.end());
        EXPECT_EQ(uniq.size(), row.index.size()) << "duplicate coordinate";
        for (std::size_t j = 1; j < row.index.size(); ++j)
            EXPECT_LT(row.index[j - 1], row.index[j]) << "unsorted";
        for (std::uint32_t k : row.index) EXPECT_LT(k, 1000u);
    }
    EXPECT_EQ(p.nnz(), 3000u);
}

TEST(LogisticSparse, StatsSummarizeDensity)
{
    const auto p = generate_logistic_sparse(1000, 100, 0.03, 5);
    const auto stats = dataset::sparse_stats(p);
    EXPECT_EQ(stats.examples, 100u);
    EXPECT_EQ(stats.dim, 1000u);
    EXPECT_EQ(stats.nnz, 3000u);
    EXPECT_EQ(stats.min_row_nnz, 30u);
    EXPECT_EQ(stats.max_row_nnz, 30u);
    EXPECT_DOUBLE_EQ(stats.mean_row_nnz, 30.0);
    EXPECT_DOUBLE_EQ(stats.density, 0.03);
}

TEST(LogisticSparse, StatsHandleRaggedAndEmptyProblems)
{
    dataset::SparseProblem p;
    p.dim = 16;
    const auto empty = dataset::sparse_stats(p);
    EXPECT_EQ(empty.examples, 0u);
    EXPECT_EQ(empty.nnz, 0u);
    EXPECT_DOUBLE_EQ(empty.density, 0.0);

    p.rows.resize(3);
    p.y.assign(3, 1.0f);
    p.rows[0].index = {1, 5};
    p.rows[0].value = {1.0f, 2.0f};
    p.rows[1].index = {}; // an all-zero example
    p.rows[2].index = {0, 3, 7, 9};
    p.rows[2].value = {1.0f, 1.0f, 1.0f, 1.0f};
    const auto ragged = dataset::sparse_stats(p);
    EXPECT_EQ(ragged.nnz, 6u);
    EXPECT_EQ(ragged.min_row_nnz, 0u);
    EXPECT_EQ(ragged.max_row_nnz, 4u);
    EXPECT_DOUBLE_EQ(ragged.mean_row_nnz, 2.0);
    EXPECT_DOUBLE_EQ(ragged.density, 2.0 / 16.0);
}

TEST(LogisticSparse, RejectsBadDensity)
{
    EXPECT_THROW(generate_logistic_sparse(10, 10, 0.0, 1),
                 std::runtime_error);
    EXPECT_THROW(generate_logistic_sparse(10, 10, 1.5, 1),
                 std::runtime_error);
}

// ------------------------------------------------------ dense container

TEST(DenseData, QuantizesWithinHalfQuantum)
{
    const auto p = generate_logistic_dense(32, 64, 11);
    const DenseData<std::int8_t> data(p, fixed::default_format(8));
    EXPECT_EQ(data.rows(), 64u);
    EXPECT_EQ(data.cols(), 32u);
    EXPECT_FLOAT_EQ(data.quantum(), 1.0f / 64.0f);
    for (std::size_t i = 0; i < data.rows(); ++i)
        for (std::size_t k = 0; k < data.cols(); ++k) {
            const float back = data.row(i)[k] * data.quantum();
            EXPECT_NEAR(back, p.row(i)[k], data.quantum() / 2 + 1e-6f);
        }
    EXPECT_EQ(data.bytes(), 32u * 64u);
}

TEST(DenseData, FloatRepIsPassThrough)
{
    const auto p = generate_logistic_dense(16, 8, 12);
    const DenseData<float> data(p, fixed::FixedFormat{32, 0});
    EXPECT_FLOAT_EQ(data.quantum(), 1.0f);
    for (std::size_t k = 0; k < 16; ++k)
        EXPECT_EQ(data.row(0)[k], p.row(0)[k]);
    EXPECT_EQ(data.bytes(), 16u * 8u * 4u);
}

TEST(DenseData, SixteenBitHasSmallerErrorThanEightBit)
{
    const auto p = generate_logistic_dense(64, 32, 13);
    const DenseData<std::int8_t> d8(p, fixed::default_format(8));
    const DenseData<std::int16_t> d16(p, fixed::default_format(16));
    double err8 = 0, err16 = 0;
    for (std::size_t i = 0; i < p.examples; ++i)
        for (std::size_t k = 0; k < p.dim; ++k) {
            err8 += std::fabs(d8.row(i)[k] * d8.quantum() - p.row(i)[k]);
            err16 += std::fabs(d16.row(i)[k] * d16.quantum() - p.row(i)[k]);
        }
    EXPECT_LT(err16, err8 / 10.0);
}

// ------------------------------------------------------- sparse container

TEST(SparseData, AbsoluteIndexModeWhenTypeCoversDim)
{
    const auto p = generate_logistic_sparse(200, 20, 0.05, 21);
    const SparseData<std::int8_t, std::uint8_t> data(
        p, fixed::default_format(8));
    EXPECT_EQ(data.index_mode(), simd::sparse::IndexMode::kAbsolute);
    EXPECT_EQ(data.stored_nnz(), p.nnz());
    // Round-trip the indices.
    for (std::size_t i = 0; i < data.rows(); ++i) {
        ASSERT_EQ(data.row_nnz(i), p.rows[i].index.size());
        for (std::size_t j = 0; j < data.row_nnz(i); ++j)
            EXPECT_EQ(data.row_indices(i)[j], p.rows[i].index[j]);
    }
}

TEST(SparseData, DeltaModeWithPaddingWhenTypeTooNarrow)
{
    // dim 5000 >> 255 forces u8 delta encoding with padding.
    const auto p = generate_logistic_sparse(5000, 50, 0.01, 22);
    const SparseData<std::int8_t, std::uint8_t> data(
        p, fixed::default_format(8));
    EXPECT_EQ(data.index_mode(), simd::sparse::IndexMode::kDelta);
    EXPECT_GE(data.stored_nnz(), p.nnz()); // padding only adds entries

    // Decode and compare coordinates per row.
    for (std::size_t i = 0; i < data.rows(); ++i) {
        std::vector<std::uint32_t> decoded;
        std::size_t cursor = 0;
        for (std::size_t j = 0; j < data.row_nnz(i); ++j) {
            cursor += data.row_indices(i)[j];
            if (data.row_values(i)[j] != 0 ||
                p.rows[i].value.empty()) // skip pure padding
                decoded.push_back(static_cast<std::uint32_t>(cursor));
        }
        // Every true coordinate with nonzero quantized value must appear.
        for (std::size_t j = 0; j < p.rows[i].index.size(); ++j) {
            const long raw = lowp::round_biased_raw(
                p.rows[i].value[j],
                lowp::GridSpec::from_fixed(fixed::default_format(8)));
            if (raw == 0) continue; // quantized to zero: indistinguishable
            EXPECT_NE(std::find(decoded.begin(), decoded.end(),
                                p.rows[i].index[j]),
                      decoded.end())
                << "row " << i << " coord " << p.rows[i].index[j];
        }
    }
}

TEST(SparseData, BytesAccountsForValuesAndIndices)
{
    const auto p = generate_logistic_sparse(100, 10, 0.1, 23);
    const SparseData<std::int16_t, std::uint16_t> data(
        p, fixed::default_format(16));
    EXPECT_EQ(data.bytes(), p.nnz() * 2 + p.nnz() * 2);
}

TEST(SparseData, LabelsPreserved)
{
    const auto p = generate_logistic_sparse(64, 30, 0.1, 24);
    const SparseData<float, std::uint32_t> data(p,
                                                fixed::FixedFormat{32, 0});
    for (std::size_t i = 0; i < 30; ++i)
        EXPECT_EQ(data.label(i), p.y[i]);
}

// ----------------------------------------------------------------- digits

TEST(Digits, ShapesLabelsBalance)
{
    const auto ds = generate_digits(500, 9);
    EXPECT_EQ(ds.count, 500u);
    EXPECT_EQ(ds.pixels.size(), 500u * kDigitPixels);
    std::size_t per_class[10] = {};
    for (int label : ds.labels) {
        ASSERT_GE(label, 0);
        ASSERT_LT(label, 10);
        ++per_class[label];
    }
    for (std::size_t c = 0; c < 10; ++c) EXPECT_EQ(per_class[c], 50u);
    for (float v : ds.pixels) {
        EXPECT_GE(v, -1.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(Digits, ClassesAreVisuallyDistinct)
{
    // Noise-free class means must differ between digits (e.g. 1 vs 8).
    const auto ds = generate_digits(200, 10, /*noise=*/0.0f);
    auto class_mean = [&ds](int digit) {
        std::vector<double> mean(kDigitPixels, 0.0);
        std::size_t count = 0;
        for (std::size_t i = 0; i < ds.count; ++i) {
            if (ds.labels[i] != digit) continue;
            ++count;
            for (std::size_t p = 0; p < kDigitPixels; ++p)
                mean[p] += ds.image(i)[p];
        }
        for (auto& m : mean) m /= static_cast<double>(count);
        return mean;
    };
    const auto m1 = class_mean(1);
    const auto m8 = class_mean(8);
    double dist = 0.0;
    for (std::size_t p = 0; p < kDigitPixels; ++p)
        dist += (m1[p] - m8[p]) * (m1[p] - m8[p]);
    EXPECT_GT(dist, 10.0); // digit 8 has many more lit pixels than 1
}

TEST(Digits, IntraClassVariation)
{
    const auto ds = generate_digits(40, 11, 0.0f);
    // Two noise-free images of the same class should still differ
    // (jitter/thickness), i.e. the task is not a lookup table.
    const float* a = nullptr;
    const float* b = nullptr;
    for (std::size_t i = 0; i < ds.count; ++i) {
        if (ds.labels[i] != 3) continue;
        if (a == nullptr) {
            a = ds.image(i);
        } else {
            b = ds.image(i);
            break;
        }
    }
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    double diff = 0.0;
    for (std::size_t p = 0; p < kDigitPixels; ++p)
        diff += std::fabs(a[p] - b[p]);
    EXPECT_GT(diff, 0.5);
}

// ---------------------------------------------------------------- fourier

TEST(Fourier, OutputRangeAndShape)
{
    const FourierFeatures rff(10, 64, 2.0f, 31);
    EXPECT_EQ(rff.input_dim(), 10u);
    EXPECT_EQ(rff.feature_dim(), 64u);
    std::vector<float> x(10, 0.3f), z(64);
    rff.transform(x.data(), z.data());
    const float bound = std::sqrt(2.0f / 64.0f) + 1e-6f;
    for (float v : z) {
        EXPECT_GE(v, -bound);
        EXPECT_LE(v, bound);
    }
}

TEST(Fourier, ApproximatesGaussianKernel)
{
    // z(x).z(x') -> exp(-|x-x'|^2 / (2 sigma^2)) as D grows.
    constexpr std::size_t kDim = 8;
    constexpr float kSigma = 1.5f;
    const FourierFeatures rff(kDim, 4096, kSigma, 32);
    rng::Xorshift128 gen(33);
    double worst = 0.0;
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<float> x(kDim), xp(kDim), zx(4096), zxp(4096);
        double d2 = 0.0;
        for (std::size_t k = 0; k < kDim; ++k) {
            x[k] = rng::to_unit_float(gen()) - 0.5f;
            xp[k] = rng::to_unit_float(gen()) - 0.5f;
            d2 += (x[k] - xp[k]) * (x[k] - xp[k]);
        }
        rff.transform(x.data(), zx.data());
        rff.transform(xp.data(), zxp.data());
        double dot = 0.0;
        for (std::size_t j = 0; j < 4096; ++j)
            dot += static_cast<double>(zx[j]) * zxp[j];
        const double expect = std::exp(-d2 / (2.0 * kSigma * kSigma));
        worst = std::max(worst, std::fabs(dot - expect));
    }
    EXPECT_LT(worst, 0.06);
}

TEST(Fourier, BatchMatchesSingle)
{
    const FourierFeatures rff(4, 16, 1.0f, 34);
    std::vector<float> xs = {0.1f, -0.2f, 0.3f, -0.4f,
                             0.5f, 0.6f, -0.7f, 0.8f};
    const auto batch = rff.transform_batch(xs.data(), 2);
    std::vector<float> single(16);
    rff.transform(xs.data() + 4, single.data());
    for (std::size_t j = 0; j < 16; ++j)
        EXPECT_EQ(batch[16 + j], single[j]);
}

TEST(Fourier, RejectsBadParameters)
{
    EXPECT_THROW(FourierFeatures(0, 4, 1.0f, 1), std::runtime_error);
    EXPECT_THROW(FourierFeatures(4, 0, 1.0f, 1), std::runtime_error);
    EXPECT_THROW(FourierFeatures(4, 4, -1.0f, 1), std::runtime_error);
}

} // namespace
} // namespace buckwild::dataset
