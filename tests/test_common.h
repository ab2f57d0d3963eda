/**
 * @file
 * Shared test fixtures and helpers used across the suites (test_ps,
 * test_serve, test_integration, test_obs, test_lowp, test_fixed,
 * test_nn, test_simd): synthetic dataset builders, saved-model
 * construction, sequence equality/tolerance asserts, and temp-file
 * RAII. Header-only; everything lives in buckwild::testutil.
 */
#ifndef BUCKWILD_TESTS_TEST_COMMON_H
#define BUCKWILD_TESTS_TEST_COMMON_H

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/loss.h"
#include "core/model_io.h"
#include "dataset/digits.h"
#include "dataset/problem.h"
#include "dmgc/signature.h"
#include "rng/xorshift.h"

namespace buckwild::testutil {

/// A SavedModel with the given weights, ready to publish into a serving
/// registry or write through model_io.
inline core::SavedModel
make_saved_model(std::vector<float> weights,
                 core::Loss loss = core::Loss::kLogistic,
                 const char* signature = "D32fM32f")
{
    core::SavedModel model;
    model.signature = dmgc::parse_signature(signature);
    model.loss = loss;
    model.weights = std::move(weights);
    return model;
}

/// Synthetic dense logistic problem (thin, named wrapper so suites share
/// one spelling and grep finds every synthetic dataset in the tests).
inline dataset::DenseProblem
logistic_problem(std::size_t dim, std::size_t examples, std::uint64_t seed)
{
    return dataset::generate_logistic_dense(dim, examples, seed);
}

/// The canonical small cluster-training problem (64 dims x 1024
/// examples, seed 77), cached because several PsCluster tests reuse it.
inline const dataset::DenseProblem&
cluster_problem()
{
    static const auto kProblem =
        dataset::generate_logistic_dense(64, 1024, 77);
    return kProblem;
}

/// The canonical sparse cluster-training problem: an RCV1-style
/// synthetic libsvm workload (256 dims x 1024 examples at 5% density,
/// seed 77), cached like cluster_problem().
inline const dataset::SparseProblem&
sparse_cluster_problem()
{
    static const auto kProblem =
        dataset::generate_logistic_sparse(256, 1024, 0.05, 77);
    return kProblem;
}

/// The same examples expanded to a row-major DenseProblem, so sparse
/// runs can be scored against the dense path on identical data.
inline dataset::DenseProblem
densify(const dataset::SparseProblem& sparse)
{
    dataset::DenseProblem dense;
    dense.dim = sparse.dim;
    dense.examples = sparse.examples();
    dense.y = sparse.y;
    dense.w_true = sparse.w_true;
    dense.x.assign(dense.examples * dense.dim, 0.0f);
    for (std::size_t i = 0; i < dense.examples; ++i) {
        const auto& row = sparse.rows[i];
        for (std::size_t j = 0; j < row.index.size(); ++j)
            dense.x[i * dense.dim + row.index[j]] = row.value[j];
    }
    return dense;
}

/// 0 (a third of the time) or a signed power of two in
/// [2^low, 2^(low + 3)]. When every feature has this form, each product a
/// trainer forms with one (w * x, c * x) is exact, so a run computes the
/// same bits whether or not the compiler fuses a product and a sum into
/// one FMA, which it does where the build passes -mfma.
inline float
power_of_two_feature(rng::Xorshift128Plus& rng, int low = -2)
{
    const std::uint64_t r = rng();
    if (r % 3 == 0) return 0.0f;
    const float magnitude =
        std::ldexp(1.0f, static_cast<int>((r >> 8) % 4) + low);
    return ((r >> 16) & 1u) != 0 ? -magnitude : magnitude;
}

/// Rows of power_of_two_feature()s, each labelled by the sign of its
/// margin under a truth of the same form.
inline dataset::DenseProblem
power_of_two_dense_problem(std::size_t dim, std::size_t examples,
                           std::uint64_t seed, int low = -2)
{
    rng::Xorshift128Plus rng(seed);
    dataset::DenseProblem p;
    p.dim = dim;
    p.examples = examples;
    std::vector<float> truth(p.dim);
    for (float& t : truth) t = power_of_two_feature(rng, low);
    for (std::size_t i = 0; i < p.examples; ++i) {
        float margin = 0.0f;
        for (std::size_t k = 0; k < p.dim; ++k) {
            p.x.push_back(power_of_two_feature(rng, low));
            margin += p.x.back() * truth[k];
        }
        p.y.push_back(margin >= 0.0f ? 1.0f : -1.0f);
    }
    return p;
}

/// The sparse counterpart: each nonzero feature is kept one time in
/// `keep_one_in`.
inline dataset::SparseProblem
power_of_two_sparse_problem(std::size_t dim, std::size_t examples,
                            std::uint64_t seed, unsigned keep_one_in,
                            int low = -2)
{
    rng::Xorshift128Plus rng(seed);
    dataset::SparseProblem p;
    p.dim = dim;
    std::vector<float> truth(p.dim);
    for (float& t : truth) t = power_of_two_feature(rng, low);
    for (std::size_t i = 0; i < examples; ++i) {
        dataset::SparseRow row;
        float margin = 0.0f;
        for (std::uint32_t k = 0; k < p.dim; ++k) {
            const float x = power_of_two_feature(rng, low);
            if (x == 0.0f || rng() % keep_one_in != 0) continue;
            row.index.push_back(k);
            row.value.push_back(x);
            margin += x * truth[k];
        }
        p.rows.push_back(std::move(row));
        p.y.push_back(margin >= 0.0f ? 1.0f : -1.0f);
    }
    return p;
}

/// Synthetic digits as a binary DenseProblem (digit >= 5 labeled +1) —
/// the conversion test_serve and the serving CLI both use.
inline dataset::DenseProblem
digits_problem(std::size_t count, std::uint64_t seed)
{
    const auto digits = dataset::generate_digits(count, seed);
    dataset::DenseProblem problem;
    problem.dim = dataset::kDigitPixels;
    problem.examples = digits.count;
    problem.x = digits.pixels;
    problem.y.resize(digits.count);
    for (std::size_t i = 0; i < digits.count; ++i)
        problem.y[i] = digits.labels[i] >= 5 ? 1.0f : -1.0f;
    return problem;
}

/// Element-wise |a[i] - b[i]| <= tol over two equal-length sequences
/// (std::vector, AlignedBuffer, ... — anything with size() and []), with
/// the failing index in the message.
template <typename ActualSeq, typename ExpectedSeq>
void
expect_all_near(const ActualSeq& actual, const ExpectedSeq& expected,
                double tol, const char* what = "vector")
{
    ASSERT_EQ(actual.size(), expected.size()) << what << " length";
    for (std::size_t i = 0; i < actual.size(); ++i)
        EXPECT_NEAR(static_cast<double>(actual[i]),
                    static_cast<double>(expected[i]), tol)
            << what << "[" << i << "]";
}

/// Bit-exact element-wise equality with the failing index in the message.
template <typename ActualSeq, typename ExpectedSeq>
void
expect_all_eq(const ActualSeq& actual, const ExpectedSeq& expected,
              const char* what = "vector")
{
    ASSERT_EQ(actual.size(), expected.size()) << what << " length";
    for (std::size_t i = 0; i < actual.size(); ++i)
        EXPECT_EQ(actual[i], expected[i]) << what << "[" << i << "]";
}

/// FNV-1a 64 over the bytes of a run's outputs, for goldens that pin
/// what a trainer computes bit for bit.
struct Fnv1a
{
    std::uint64_t value = 0xcbf29ce484222325ull;

    void
    add_bytes(const void* data, std::size_t n)
    {
        const auto* bytes = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i)
            value = (value ^ bytes[i]) * 0x100000001b3ull;
    }

    template <typename T>
    void
    add(const T& x)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        add_bytes(&x, sizeof x);
    }

    template <typename T>
    void
    add(const std::vector<T>& xs)
    {
        add_bytes(xs.data(), xs.size() * sizeof(T));
    }
};

/// A uniquely named file under gtest's temp directory, removed on scope
/// exit. Use `.path()` as the file name; the file itself is created (or
/// not) by the code under test.
class TempFile
{
  public:
    explicit TempFile(const std::string& stem)
    {
        static int counter = 0;
        path_ = ::testing::TempDir() + "buckwild_" + stem + "_" +
                std::to_string(++counter) + ".tmp";
        std::remove(path_.c_str());
    }

    ~TempFile() { std::remove(path_.c_str()); }

    TempFile(const TempFile&) = delete;
    TempFile& operator=(const TempFile&) = delete;

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

} // namespace buckwild::testutil

#endif // BUCKWILD_TESTS_TEST_COMMON_H
