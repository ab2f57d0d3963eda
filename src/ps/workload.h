/**
 * @file
 * The row kinds a cluster trains on: the small surface on which dense
 * and sparse problems differ, so the worker round, the evaluator, the
 * trainers and the fork choreography are each written once and
 * templated over the problem type.
 *
 * Each kind has its row view (row(), row_numbers(), row_dot()) and the
 * round gradient a worker accumulates over such rows
 * (DenseAccumulator, SparseAccumulator), chosen by overload on the
 * problem type through accumulator_for(). The result tail both trainers
 * share is declared here too.
 */
#ifndef BUCKWILD_PS_WORKLOAD_H
#define BUCKWILD_PS_WORKLOAD_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dataset/problem.h"
#include "ps/gradient_view.h"
#include "ps/node.h"
#include "ps/quantize.h"
#include "simd/ops.h"
#include "simd/sparse_ops.h"

namespace buckwild::ps::detail {

// ------------------------------------------------------------- rows

inline std::size_t
example_count(const dataset::DenseProblem& problem)
{
    return problem.examples;
}

inline std::size_t
example_count(const dataset::SparseProblem& problem)
{
    return problem.examples();
}

/// A dense example is its `dim` contiguous features.
inline std::span<const float>
row(const dataset::DenseProblem& problem, std::size_t i)
{
    return {problem.row(i), problem.dim};
}

inline const dataset::SparseRow&
row(const dataset::SparseProblem& problem, std::size_t i)
{
    return problem.rows[i];
}

/// Gradient numbers one row contributes: the dimension of a dense row,
/// the nnz of a sparse one.
inline std::size_t
row_numbers(std::span<const float> x)
{
    return x.size();
}

inline std::size_t
row_numbers(const dataset::SparseRow& x)
{
    return x.value.size();
}

/// The margin w . x through the registered kernels of tier `impl`: the
/// dense dot for a dense row, the gather dot for a sparse one.
inline float
row_dot(simd::Impl impl, std::span<const float> x, const float* w)
{
    return simd::DenseOps<float, float>::dot(impl, x.data(), w, x.size(),
                                             1.0f, 1.0f);
}

inline float
row_dot(simd::Impl impl, const dataset::SparseRow& x, const float* w)
{
    return simd::SparseOps<std::uint32_t>::dot(
        impl, x.value.data(), x.index.data(), x.value.size(), w, 1.0f,
        simd::sparse::IndexMode::kAbsolute);
}

/// Mean gradient numbers per example: the full dimension for dense
/// rows, the mean nnz for sparse ones.
inline double
numbers_per_example(const dataset::DenseProblem& problem)
{
    return static_cast<double>(problem.dim);
}

inline double
numbers_per_example(const dataset::SparseProblem& problem)
{
    return static_cast<double>(problem.nnz()) /
           static_cast<double>(problem.examples());
}

constexpr bool
is_sparse_workload(const dataset::DenseProblem&)
{
    return false;
}

constexpr bool
is_sparse_workload(const dataset::SparseProblem&)
{
    return true;
}

// ----------------------------------------------------- accumulators
//
// A worker round drives its accumulator through the same six calls for
// either row kind: begin_minibatch(), add() per example with a nonzero
// loss coefficient, add_residual() (all three inside the minibatch
// span), then begin_pushes(), encode() once per shard in slice order,
// and end_round().

/// The round gradient over dense rows: a full-width sum, added to by the
/// registered AXPY of tier `impl`, and, under error feedback, the
/// full-width residual the codec leaves behind.
class DenseAccumulator
{
  public:
    DenseAccumulator(std::size_t dim, bool feedback, simd::Impl impl)
        : gradient_(dim), residual_(feedback ? dim : 0, 0.0f),
          feedback_(feedback), impl_(impl)
    {}

    void
    begin_minibatch()
    {
        std::fill(gradient_.begin(), gradient_.end(), 0.0f);
    }

    void
    add(float g, std::span<const float> x)
    {
        simd::DenseOps<float, float>::axpy(impl_, gradient_.data(), x.data(),
                                           x.size(), g, 1.0f, 1.0f,
                                           simd::biased_unit());
    }

    void
    add_residual()
    {
        if (feedback_)
            for (std::size_t k = 0; k < gradient_.size(); ++k)
                gradient_[k] += residual_[k];
    }

    void begin_pushes() {}

    /// Encodes coordinates [begin, end) for one shard, leaving their
    /// quantization error in the residual.
    WireGradient
    encode(std::size_t begin, std::size_t end, const Codec& codec,
           rng::Xorshift128Plus* rng)
    {
        return encode_gradient(gradient_.data() + begin, end - begin, codec,
                               feedback_ ? residual_.data() + begin
                                         : nullptr,
                               rng);
    }

    void end_round() {}

  private:
    std::vector<float> gradient_;
    std::vector<float> residual_;
    bool feedback_;
    simd::Impl impl_;
};

/// The round gradient over sparse rows: a dense scratch sum plus an
/// explicit support list, so a round costs O(touched), not O(dim). The
/// error-feedback residual is itself sparse: the coordinates pushed with
/// a nonzero untransmitted remainder. Each shard gets the run of the
/// sorted support inside its slice, an empty run included, so the SSP
/// clocks advance as for dense rows.
class SparseAccumulator
{
  public:
    SparseAccumulator(std::size_t dim, bool feedback)
        : acc_(dim, 0.0f), in_support_(dim, 0), feedback_(feedback)
    {}

    /// Nothing to clear: end_round() left the scratch at zero.
    void begin_minibatch() {}

    void
    add(float g, const dataset::SparseRow& x)
    {
        for (std::size_t j = 0; j < x.value.size(); ++j) {
            const std::uint32_t k = x.index[j];
            touch(k);
            acc_[k] += g * x.value[j];
        }
    }

    /// The carried residual joins the round's support: a coordinate with
    /// pending feedback is pushed even if this minibatch missed it.
    void
    add_residual()
    {
        for (std::size_t j = 0; j < residual_index_.size(); ++j) {
            const std::uint32_t k = residual_index_[j];
            touch(k);
            acc_[k] += residual_value_[j];
        }
    }

    /// Sorts the support so each shard's coordinates form one run.
    void
    begin_pushes()
    {
        std::sort(touched_.begin(), touched_.end());
        next_ = 0;
        next_residual_index_.clear();
        next_residual_value_.clear();
    }

    /// Encodes the support inside [begin, end) as a sparse gradient in
    /// slice-local coordinates, keeping each entry's nonzero quantization
    /// error for the next round.
    WireGradient
    encode(std::size_t begin, std::size_t end, const Codec& codec,
           rng::Xorshift128Plus* rng)
    {
        const auto lo = touched_.begin() + static_cast<std::ptrdiff_t>(next_);
        const auto hi = std::lower_bound(lo, touched_.end(),
                                         static_cast<std::uint32_t>(end));
        slice_index_.clear();
        slice_value_.clear();
        for (auto it = lo; it != hi; ++it) {
            slice_index_.push_back(static_cast<std::uint32_t>(*it - begin));
            slice_value_.push_back(acc_[*it]);
        }
        next_ = static_cast<std::size_t>(hi - touched_.begin());
        const std::size_t nnz = slice_index_.size();
        slice_residual_.assign(nnz, 0.0f);
        const GradientView view = GradientView::sparse_view<std::uint32_t>(
            slice_value_.data(), slice_index_.data(), nnz,
            static_cast<std::uint32_t>(end - begin),
            simd::sparse::IndexMode::kAbsolute);
        WireGradient wire = encode_sparse_gradient(
            view, codec, feedback_ ? slice_residual_.data() : nullptr, rng);
        if (feedback_)
            for (std::size_t j = 0; j < nnz; ++j)
                if (slice_residual_[j] != 0.0f) {
                    next_residual_index_.push_back(
                        static_cast<std::uint32_t>(begin) + slice_index_[j]);
                    next_residual_value_.push_back(slice_residual_[j]);
                }
        return wire;
    }

    /// Carries the residual into the next round and resets the scratch
    /// in O(touched).
    void
    end_round()
    {
        residual_index_.swap(next_residual_index_);
        residual_value_.swap(next_residual_value_);
        for (const std::uint32_t k : touched_) {
            acc_[k] = 0.0f;
            in_support_[k] = 0;
        }
        touched_.clear();
    }

  private:
    void
    touch(std::uint32_t k)
    {
        if (!in_support_[k]) {
            in_support_[k] = 1;
            touched_.push_back(k);
        }
    }

    std::vector<float> acc_;
    std::vector<std::uint8_t> in_support_;
    std::vector<std::uint32_t> touched_;
    std::size_t next_ = 0; ///< first entry of touched_ not yet pushed
    bool feedback_;
    std::vector<std::uint32_t> residual_index_;
    std::vector<float> residual_value_;
    std::vector<std::uint32_t> next_residual_index_;
    std::vector<float> next_residual_value_;
    std::vector<std::uint32_t> slice_index_;
    std::vector<float> slice_value_;
    std::vector<float> slice_residual_;
};

/// The round's accumulator for `problem`'s row kind. Dense rows add
/// through the AXPY of tier `impl`; the sparse scatter also records the
/// support, so it stays a loop of its own.
inline DenseAccumulator
accumulator_for(const dataset::DenseProblem& problem, bool feedback,
                simd::Impl impl)
{
    return {problem.dim, feedback, impl};
}

inline SparseAccumulator
accumulator_for(const dataset::SparseProblem& problem, bool feedback,
                simd::Impl)
{
    return {problem.dim, feedback};
}

// --------------------------------------------------------- assembly

/// The tail train_cluster() and train_cluster_multiprocess() share:
/// evaluates `result.checkpoint` on `problem`, sums the workers' rounds,
/// seconds and retries into `result`, and fills its GNPS numbers and
/// bytes_per_round.
template <typename Problem>
void finish_cluster_result(const Problem& problem,
                           const ClusterConfig& config,
                           const std::vector<WorkerStats>& worker_stats,
                           ClusterResult& result);

} // namespace buckwild::ps::detail

#endif // BUCKWILD_PS_WORKLOAD_H
