/**
 * @file
 * Quantized dataset containers — the "D" (and "i") of the DMGC model.
 *
 * Dataset numbers are quantized *once*, before the algorithm runs (§3:
 * "because dataset numbers are constant inputs, to make them low-precision
 * we need to quantize them only once"). These containers own the quantized
 * storage and remember the fixed-point format so kernels can recover real
 * values.
 *
 * The rep type D is int8_t, int16_t, or float (float = no quantization,
 * the 32f dataset of full-precision signatures).
 *
 * Sparse storage is CSR with a configurable index type I (uint8_t /
 * uint16_t / uint32_t — the *index precision*). When I cannot address the
 * model directly the builder switches to delta encoding (footnote 6) and
 * inserts explicit zero-valued padding entries for gaps wider than I's
 * range, so the kernels never need a special case.
 */
#ifndef BUCKWILD_DATASET_QUANTIZED_H
#define BUCKWILD_DATASET_QUANTIZED_H

#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "dataset/problem.h"
#include "fixed/fixed_point.h"
#include "lowp/grid.h"
#include "lowp/rep_traits.h"
#include "lowp/round.h"
#include "simd/sparse_kernels.h"
#include "util/aligned_buffer.h"
#include "util/logging.h"

namespace buckwild::dataset {

/// Dense quantized dataset: row-major examples x dim.
template <typename D>
class DenseData
{
  public:
    /// Quantizes `p` into rep D using `fmt` (ignored when D = float).
    DenseData(const DenseProblem& p, const fixed::FixedFormat& fmt)
        : rows_(p.examples), cols_(p.dim), fmt_(fmt),
          values_(p.examples * p.dim), labels_(p.y)
    {
        if constexpr (lowp::is_float_rep<D>) {
            for (std::size_t i = 0; i < values_.size(); ++i)
                values_[i] = p.x[i];
        } else {
            // One-shot D-quantization of the whole matrix — the substrate's
            // vectorized biased path (bit-identical to per-value rounding).
            lowp::quantize_biased(p.x.data(), values_.data(), values_.size(),
                                  lowp::GridSpec::from_fixed(fmt));
        }
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    /// Real value of one raw unit.
    float quantum() const { return lowp::rep_quantum<D>(fmt_); }

    const D* row(std::size_t i) const { return values_.data() + i * cols_; }
    float label(std::size_t i) const { return labels_[i]; }
    const std::vector<float>& labels() const { return labels_; }

    /// Bytes of dataset storage (the DRAM-traffic figure of merit).
    std::size_t bytes() const { return values_.size() * sizeof(D); }

  private:
    std::size_t rows_;
    std::size_t cols_;
    fixed::FixedFormat fmt_;
    AlignedBuffer<D> values_;
    std::vector<float> labels_;
};

/// Sparse quantized dataset: CSR with low-precision value and index types.
template <typename D, typename I>
class SparseData
{
  public:
    static_assert(std::is_unsigned_v<I>, "index types are unsigned");

    SparseData(const SparseProblem& p, const fixed::FixedFormat& fmt)
        : dim_(p.dim), fmt_(fmt), labels_(p.y)
    {
        // Absolute indices when I can address every coordinate; otherwise
        // delta encoding with zero padding.
        const std::size_t max_index = std::numeric_limits<I>::max();
        mode_ = (p.dim - 1 <= max_index) ? simd::sparse::IndexMode::kAbsolute
                                         : simd::sparse::IndexMode::kDelta;

        std::vector<D> values;
        std::vector<I> indices;
        row_ptr_.reserve(p.rows.size() + 1);
        row_ptr_.push_back(0);
        for (const auto& row : p.rows) {
            std::size_t prev = 0;
            for (std::size_t j = 0; j < row.index.size(); ++j) {
                const std::size_t k = row.index[j];
                if (mode_ == simd::sparse::IndexMode::kAbsolute) {
                    indices.push_back(static_cast<I>(k));
                } else {
                    std::size_t gap = k - prev;
                    while (gap > max_index) { // zero-valued padding entry
                        indices.push_back(static_cast<I>(max_index));
                        values.push_back(D{});
                        gap -= max_index;
                    }
                    indices.push_back(static_cast<I>(gap));
                    prev = k;
                }
                values.push_back(
                    lowp::quantize_value<D>(row.value[j], fmt));
            }
            row_ptr_.push_back(values.size());
        }

        values_.reset(values.size());
        std::copy(values.begin(), values.end(), values_.begin());
        indices_.reset(indices.size());
        std::copy(indices.begin(), indices.end(), indices_.begin());
    }

    std::size_t rows() const { return row_ptr_.size() - 1; }
    std::size_t dim() const { return dim_; }
    float quantum() const { return lowp::rep_quantum<D>(fmt_); }
    simd::sparse::IndexMode index_mode() const { return mode_; }

    /// Nonzero count of row i (including any padding entries).
    std::size_t
    row_nnz(std::size_t i) const
    {
        return row_ptr_[i + 1] - row_ptr_[i];
    }

    const D* row_values(std::size_t i) const
    {
        return values_.data() + row_ptr_[i];
    }
    const I* row_indices(std::size_t i) const
    {
        return indices_.data() + row_ptr_[i];
    }
    float label(std::size_t i) const { return labels_[i]; }
    const std::vector<float>& labels() const { return labels_; }

    /// Total stored entries including padding.
    std::size_t stored_nnz() const { return values_.size(); }

    /// Bytes of dataset storage: values plus index stream.
    std::size_t
    bytes() const
    {
        return values_.size() * sizeof(D) + indices_.size() * sizeof(I);
    }

  private:
    std::size_t dim_;
    fixed::FixedFormat fmt_;
    simd::sparse::IndexMode mode_;
    AlignedBuffer<D> values_;
    AlignedBuffer<I> indices_;
    std::vector<std::size_t> row_ptr_;
    std::vector<float> labels_;
};

} // namespace buckwild::dataset

#endif // BUCKWILD_DATASET_QUANTIZED_H
