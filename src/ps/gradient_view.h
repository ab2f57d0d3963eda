/**
 * @file
 * GradientView — the one gradient currency of the cluster tier.
 *
 * Every layer that moves a gradient (the cluster worker's round sum, the
 * ps/quantize codecs, the shard apply, error feedback) used to assume a
 * dense `float*`. A GradientView is either that dense span, or a sparse
 * (index, value) stream whose index rep is one of the lowp index widths
 * (i8 / i16 / i32), stored absolute or delta-encoded — exactly the
 * paper's index-precision axis (§3: low-precision indices "incur no loss
 * of statistical efficiency"; footnote 6: delta-encoded gaps, with
 * explicit zero-valued padding entries when a gap overflows the delta
 * type).
 *
 * The view does not own its storage; it is the argument type the codecs
 * and kernels take, so the dense path keeps its zero-copy `float*`
 * behaviour while the sparse path threads typed index streams through
 * the same entry points.
 */
#ifndef BUCKWILD_PS_GRADIENT_VIEW_H
#define BUCKWILD_PS_GRADIENT_VIEW_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lowp/dispatch.h"
#include "simd/sparse_kernels.h"
#include "util/logging.h"

namespace buckwild::ps {

struct GradientView
{
    /// Per-entry values: dense -> one per coordinate; sparse -> one per
    /// stored entry (padding entries carry 0).
    const float* values = nullptr;
    /// Dense: the dimension. Sparse: stored entry count (nnz, including
    /// any delta padding entries).
    std::size_t count = 0;
    /// Logical coordinate span [0, dim). For a dense view dim == count.
    std::uint32_t dim = 0;
    /// Stored index stream, or nullptr for a dense view. Points at an
    /// array of count uint{index_bits}_t entries.
    const void* index = nullptr;
    /// 8, 16, or 32 — the lowp index rep of `index`.
    int index_bits = 32;
    simd::sparse::IndexMode mode = simd::sparse::IndexMode::kAbsolute;

    bool sparse() const { return index != nullptr; }

    static GradientView
    dense(const float* g, std::size_t n)
    {
        GradientView v;
        v.values = g;
        v.count = n;
        v.dim = static_cast<std::uint32_t>(n);
        return v;
    }

    template <typename I>
    static GradientView
    sparse_view(const float* val, const I* idx, std::size_t nnz,
                std::uint32_t dim, simd::sparse::IndexMode mode)
    {
        static_assert(std::is_same_v<I, std::uint8_t> ||
                      std::is_same_v<I, std::uint16_t> ||
                      std::is_same_v<I, std::uint32_t>);
        GradientView v;
        v.values = val;
        v.count = nnz;
        v.dim = dim;
        v.index = idx;
        v.index_bits = static_cast<int>(sizeof(I)) * 8;
        v.mode = mode;
        return v;
    }

    /// Visits f(coordinate, value) for every stored entry in order
    /// (padding entries visit their resolved coordinate with value 0).
    template <typename F>
    void
    for_each(F&& f) const
    {
        if (!sparse()) {
            for (std::size_t k = 0; k < count; ++k) f(k, values[k]);
            return;
        }
        lowp::with_index_rep(index_bits, [&](auto tag) {
            using I = typename decltype(tag)::type;
            const I* idx = static_cast<const I*>(index);
            std::size_t cursor = 0;
            for (std::size_t j = 0; j < count; ++j) {
                const std::size_t k =
                    simd::sparse::detail::decode(mode, cursor, idx[j]);
                if (k >= dim)
                    fatal("sparse gradient index out of range");
                f(k, values[j]);
            }
        });
    }

    /// The view as a dense vector of `dim` coordinates (sparse entries
    /// scattered, everything else zero).
    std::vector<float>
    densify() const
    {
        std::vector<float> g(dim, 0.0f);
        for_each([&](std::size_t k, float v) { g[k] += v; });
        return g;
    }
};

} // namespace buckwild::ps

#endif // BUCKWILD_PS_GRADIENT_VIEW_H
