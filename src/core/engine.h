/**
 * @file
 * The Buckwild! training engine.
 *
 * Engine<Data, M> implements asynchronous low-precision SGD over a
 * quantized dataset, dense rows of rep D (DenseData<D>) or sparse rows of
 * value rep V with index rep I (SparseData<V, I>), and a quantized shared
 * model of rep M:
 *
 *  - Each epoch, `threads` Hogwild! workers sweep the dataset without any
 *    locking, sharing the single model array (§2). Workers synchronize
 *    only at epoch boundaries.
 *  - One iteration = one dot (margin), one scalar gradient coefficient,
 *    one AXPY (§2), executed by the kernel implementation selected in the
 *    config (reference / naive / AVX2, §5.1). A fixed G term quantizes the
 *    margin and the coefficient (§3).
 *  - Model writes round with the configured strategy (§5.2): biased,
 *    per-write Mersenne/XORSHIFT, or vectorized shared randomness.
 *  - Mini-batching (§5.4) accumulates B gradients into a per-worker float
 *    scratch vector and applies one quantized model update per batch.
 *
 * The loop is written once. The row kind, picked by the dataset type,
 * supplies only the margin of a row (row_margin) and the model update for
 * a coefficient (RowUpdate). Per-write rounding and mini-batching are
 * updates of dense rows; a sparse fit with a fixed-point model refuses
 * per-write rounding, and every sparse fit refuses mini-batching, before
 * training.
 *
 * The racing Hogwild! path is the algorithm the paper measures: the model
 * is deliberately accessed without synchronization, and the resulting
 * races are benign by the Hogwild!/Buckwild! analyses the paper builds on.
 */
#ifndef BUCKWILD_CORE_ENGINE_H
#define BUCKWILD_CORE_ENGINE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "obs/obs.h"
#include "dataset/quantized.h"
#include "lowp/grid.h"
#include "lowp/rep_traits.h"
#include "lowp/round.h"
#include "lowp/shared_random.h"
#include "rng/random_source.h"
#include "simd/dense_ref.h"
#include "simd/ops.h"
#include "simd/sparse_kernels.h"
#include "util/aligned_buffer.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace buckwild::core {

namespace detail {

/// G-term emulation (§3 "Gradient numbers"): quantizes an intermediate
/// value to a b-bit *symmetric* grid over [-range, range] with nearest
/// rounding (lowp::GridSpec::symmetric — bounds ±(2^(b-1)-1), so negation
/// never saturates; pinned by tests/test_lowp.cpp). Returns the input
/// unchanged for b >= 32.
inline float
quantize_intermediate(float v, int bits, float range)
{
    if (bits >= 32) return v;
    return lowp::snap_nearest(
        v, lowp::GridSpec::symmetric(bits, static_cast<double>(range)));
}

/// The fixed-scalar shift constant of a (D, M) kernel pair.
template <typename D, typename M>
constexpr int
pair_shift()
{
    if constexpr (std::is_same_v<D, std::int8_t> &&
                  std::is_same_v<M, std::int8_t>)
        return simd::kShiftD8M8;
    else if constexpr (std::is_same_v<D, std::int16_t> &&
                       std::is_same_v<M, std::int8_t>)
        return simd::kShiftD16M8;
    else if constexpr (std::is_same_v<D, std::int8_t> &&
                       std::is_same_v<M, std::int16_t>)
        return simd::kShiftD8M16;
    else
        return simd::kShiftD16M16;
}

/// Builds the pair's fixed scalar from a model-quanta-per-raw-unit value.
template <typename D, typename M>
simd::FixedScalar
pair_scalar(float c_units)
{
    if constexpr (std::is_same_v<D, std::int8_t> &&
                  std::is_same_v<M, std::int8_t>)
        return simd::make_scalar_d8m8(c_units);
    else if constexpr (std::is_same_v<D, std::int16_t> &&
                       std::is_same_v<M, std::int8_t>)
        return simd::make_scalar_d16m8(c_units);
    else if constexpr (std::is_same_v<D, std::int8_t> &&
                       std::is_same_v<M, std::int16_t>)
        return simd::make_scalar_d8m16(c_units);
    else
        return simd::make_scalar_d16m16(c_units);
}

/// The deterministic dither block for biased rounding, selected by how the
/// AXPY kernel will interpret the block.
template <typename D, typename M>
const simd::DitherBlock&
biased_block()
{
    static const simd::DitherBlock kUnit = simd::biased_unit();
    if constexpr (std::is_same_v<M, float>)
        return kUnit; // never actually read (float models don't round)
    else if constexpr (std::is_same_v<D, float>) {
        return kUnit;
    } else {
        static const simd::DitherBlock kFixed =
            simd::biased_fixed(pair_shift<D, M>());
        return kFixed;
    }
}

/// Per-write unbiased AXPY (the Mersenne / scalar-XORSHIFT strategies of
/// Fig 5): a fresh random word is drawn for every model write. Only
/// meaningful for fixed models; float models have nothing to round.
template <typename D, typename M>
void
axpy_per_write(M* w, const D* x, std::size_t n, float c, float qx, float qm,
               rng::RandomWordSource& src)
{
    if constexpr (std::is_same_v<M, float>) {
        (void)src;
        simd::DenseOps<D, M>::axpy(simd::Impl::kReference, w, x, n, c, qx,
                                   qm, biased_block<D, M>());
    } else if constexpr (std::is_same_v<D, float>) {
        const float cf = c / qm;
        for (std::size_t i = 0; i < n; ++i) {
            const std::int32_t delta = simd::ref::quantize_delta(
                cf, x[i], src.next_unit_float());
            if constexpr (std::is_same_v<M, std::int8_t>)
                w[i] = static_cast<M>(simd::ref::saturate_model8(
                    w[i] + simd::saturate_i16(delta)));
            else
                w[i] = static_cast<M>(simd::ref::saturate_model16(
                    w[i] + simd::saturate_i16(delta)));
        }
    } else {
        const auto cs = pair_scalar<D, M>(c * qx / qm);
        const std::uint32_t mask = (1u << cs.shift) - 1u;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t dither = src.next_word() & mask;
            if constexpr (std::is_same_v<M, std::int8_t>)
                w[i] = simd::ref::update_m8(w[i], x[i], cs, dither);
            else
                w[i] = simd::ref::update_m16(w[i], x[i], cs, dither);
        }
    }
}

/// Per-worker rounding state: the substrate's §5.2 shared-randomness
/// block (lowp::SharedRandom) mirrored into the SIMD kernels' DitherBlock
/// layout, plus the per-write sources.
struct WorkerRounding
{
    WorkerRounding(const TrainerConfig& cfg, std::size_t tid)
        : strategy(cfg.rounding),
          shared(lowp::SharedRandom::worker_seed(cfg.seed, tid),
                 cfg.shared_refresh_iters),
          mersenne(static_cast<std::uint32_t>(cfg.seed + 77 * tid + 1)),
          xorshift(static_cast<std::uint32_t>(cfg.seed + 131 * tid + 7))
    {
        sync_block();
    }

    /// The source of a per-write strategy; nullptr for the strategies
    /// that round a whole AXPY from one dither block.
    rng::RandomWordSource*
    per_write()
    {
        switch (strategy) {
          case RoundingStrategy::kMersennePerWrite: return &mersenne;
          case RoundingStrategy::kXorshiftPerWrite: return &xorshift;
          default: return nullptr;
        }
    }

    /// The dither block of the next (D, M) AXPY: the fixed biased block,
    /// or the shared block, advanced once per AXPY.
    template <typename D, typename M>
    const simd::DitherBlock&
    next_block()
    {
        if (strategy == RoundingStrategy::kBiased)
            return biased_block<D, M>();
        if (shared.tick()) sync_block();
        return block;
    }

    /// Mirrors the current shared 256-bit block into the kernel view.
    void
    sync_block()
    {
        std::memcpy(block.bytes, shared.words(), sizeof(block.bytes));
    }

    RoundingStrategy strategy;
    lowp::SharedRandom shared;
    simd::DitherBlock block{};
    rng::MersenneSource mersenne;
    rng::XorshiftSource xorshift;
};

// ------------------------------------------------------------- row kinds

/// Model coordinates: the width of a dense row, the dimension sparse
/// indices address.
template <typename D>
std::size_t
model_size(const dataset::DenseData<D>& data)
{
    return data.cols();
}

template <typename V, typename I>
std::size_t
model_size(const dataset::SparseData<V, I>& data)
{
    return data.dim();
}

/// Dataset numbers one epoch processes, the numerator of GNPS (§4): every
/// entry of a dense row, every stored nonzero of a sparse one.
template <typename D>
double
numbers_per_epoch(const dataset::DenseData<D>& data)
{
    return static_cast<double>(data.rows()) *
           static_cast<double>(data.cols());
}

template <typename V, typename I>
double
numbers_per_epoch(const dataset::SparseData<V, I>& data)
{
    return static_cast<double>(data.stored_nnz());
}

/// The margin w.x of row i in real units, for a model of quantum qm.
template <typename D, typename M>
float
row_margin(const dataset::DenseData<D>& data, std::size_t i, const M* w,
           float qm, simd::Impl impl)
{
    return simd::DenseOps<D, M>::dot(impl, data.row(i), w, data.cols(),
                                     data.quantum(), qm);
}

template <typename V, typename I, typename M>
float
row_margin(const dataset::SparseData<V, I>& data, std::size_t i, const M* w,
           float qm, simd::Impl impl)
{
    const float scale = data.quantum() * qm;
    if (simd::is_vectorized(impl) &&
        data.index_mode() == simd::sparse::IndexMode::kAbsolute)
        return simd::sparse::dot_unrolled(data.row_values(i),
                                          data.row_indices(i),
                                          data.row_nnz(i), w, scale);
    return simd::sparse::dot(data.row_values(i), data.row_indices(i),
                             data.row_nnz(i), w, scale, data.index_mode());
}

/// One worker's model update for coefficient c on row i, by row kind.
/// apply() sees every example of the worker's sweep, zero coefficients
/// included; finish() ends the sweep. check() refuses, before training,
/// a config the row kind cannot run.
template <typename Data, typename M>
class RowUpdate;

/// Dense rows: the AXPY kernel into the model, a per-write AXPY, or with
/// B > 1 an AXPY into the worker's float scratch, applied to the model
/// every B examples.
template <typename D, typename M>
class RowUpdate<dataset::DenseData<D>, M>
{
  public:
    static void check(const TrainerConfig&) {}

    RowUpdate(const dataset::DenseData<D>& data, const TrainerConfig& cfg,
              M* w, float qm, WorkerRounding& rounding)
        : data_(data), impl_(cfg.impl), batch_(cfg.batch_size), w_(w),
          qx_(data.quantum()), qm_(qm), rounding_(rounding)
    {
        if (batch_ > 1) scratch_.reset(data.cols());
    }

    void
    apply(std::size_t i, float c)
    {
        const D* x = data_.row(i);
        if (batch_ == 1) {
            if (c != 0.0f) write(x, c, qx_);
            return;
        }
        // Mini-batch gradients are computed against the model as of the
        // batch start (plus any concurrent updates — this is still
        // Hogwild!).
        if (c != 0.0f)
            simd::DenseOps<D, float>::axpy(impl_, scratch_.data(), x,
                                           data_.cols(), c, qx_, 1.0f,
                                           biased_block<D, float>());
        if (++in_batch_ == batch_) finish();
    }

    /// Applies (and clears) the scratch of a started mini-batch.
    void
    finish()
    {
        if (in_batch_ == 0) return;
        write(scratch_.data(), 1.0f, 1.0f);
        scratch_.clear();
        in_batch_ = 0;
    }

  private:
    /// w += c x, for a row of D or the float scratch.
    template <typename X>
    void
    write(const X* x, float c, float qx)
    {
        const std::size_t n = data_.cols();
        if (rng::RandomWordSource* source = rounding_.per_write())
            axpy_per_write<X, M>(w_, x, n, c, qx, qm_, *source);
        else
            simd::DenseOps<X, M>::axpy(impl_, w_, x, n, c, qx, qm_,
                                       rounding_.next_block<X, M>());
    }

    const dataset::DenseData<D>& data_;
    simd::Impl impl_;
    std::size_t batch_;
    M* w_;
    float qx_;
    float qm_;
    WorkerRounding& rounding_;
    AlignedBuffer<float> scratch_;
    std::size_t in_batch_ = 0;
};

/// Sparse rows: the scatter AXPY of the row's nonzeros, rounded from one
/// dither block.
template <typename V, typename I, typename M>
class RowUpdate<dataset::SparseData<V, I>, M>
{
  public:
    static void
    check(const TrainerConfig& cfg)
    {
        if (cfg.batch_size != 1)
            fatal("the sparse engine supports batch_size == 1 only "
                  "(mini-batching is a dense-model optimization, §5.4)");
        if (!lowp::is_float_rep<M> &&
            (cfg.rounding == RoundingStrategy::kMersennePerWrite ||
             cfg.rounding == RoundingStrategy::kXorshiftPerWrite))
            fatal(std::string("rounding strategy '") +
                  to_string(cfg.rounding) +
                  "' draws per model write, which sparse rows do not "
                  "support on a fixed-point model; use 'biased' or "
                  "'shared'");
    }

    RowUpdate(const dataset::SparseData<V, I>& data, const TrainerConfig&,
              M* w, float qm, WorkerRounding& rounding)
        : data_(data), w_(w), qv_(data.quantum()), qm_(qm),
          rounding_(rounding)
    {}

    void
    apply(std::size_t i, float c)
    {
        if (c == 0.0f) return;
        // Fixed-value scale in model quanta per raw value unit, and the
        // float-value coefficient for float/float-model paths.
        simd::FixedScalar cs{0, simd::kShiftD8M8};
        if constexpr (!std::is_same_v<M, float> &&
                      !std::is_same_v<V, float>)
            cs = pair_scalar<V, M>(c * qv_ / qm_);
        float cf;
        if constexpr (std::is_same_v<M, float>)
            cf = c * qv_; // w += cf * raw value
        else
            cf = c / qm_; // used when V is float
        simd::sparse::axpy(w_, data_.row_values(i), data_.row_indices(i),
                           data_.row_nnz(i), cs, cf,
                           rounding_.next_block<V, M>(), data_.index_mode());
    }

    void finish() {}

  private:
    const dataset::SparseData<V, I>& data_;
    M* w_;
    float qv_;
    float qm_;
    WorkerRounding& rounding_;
};

} // namespace detail

/// Buckwild! engine over the rows of `Data` (DenseData<D> or
/// SparseData<V, I>) with an M-typed model.
template <typename Data, typename M>
class Engine
{
  public:
    Engine(const Data& data, const TrainerConfig& cfg)
        : data_(data), cfg_(cfg), model_(detail::model_size(data)),
          qm_(lowp::rep_default_quantum<M>()),
          gradient_bits_(cfg.signature.gradient.has_value() &&
                                 !cfg.signature.gradient->is_float
                             ? cfg.signature.gradient->bits
                             : 32)
    {
        if (cfg.threads == 0) fatal("threads must be >= 1");
        if (cfg.batch_size == 0) fatal("batch_size must be >= 1");
        if (gradient_bits_ != 32 && gradient_bits_ < 2)
            fatal("gradient precision must be >= 2 bits");
        detail::RowUpdate<Data, M>::check(cfg);
    }

    /// Runs the configured number of epochs and reports metrics.
    TrainingMetrics
    train()
    {
        TrainingMetrics metrics;
        metrics.epochs = cfg_.epochs;
        const double numbers = detail::numbers_per_epoch(data_);
        float eta = cfg_.step_size;
        Evaluation last;
        for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
            if (cfg_.shuffle) reshuffle(epoch);
            BUCKWILD_OBS_SPAN("core", "sgd.epoch");
            Stopwatch watch;
            run_parallel(cfg_.threads, [this, eta](std::size_t tid) {
                worker(tid, eta);
            });
            const double epoch_seconds = watch.seconds();
            metrics.train_seconds += epoch_seconds;
            // Cumulative GNPS inputs for the live conformance watchdog.
            BUCKWILD_OBS_GAUGE_ADD("train.numbers", numbers);
            BUCKWILD_OBS_GAUGE_ADD("train.seconds", epoch_seconds);
            eta *= cfg_.step_decay;
            if (cfg_.record_loss_trace) {
                last = evaluate();
                metrics.loss_trace.push_back(last.loss);
            }
        }
        metrics.numbers_processed =
            static_cast<double>(cfg_.epochs) * numbers;
        // The last trace entry already scored the final model.
        if (!cfg_.record_loss_trace || cfg_.epochs == 0) last = evaluate();
        metrics.final_loss = last.loss;
        metrics.accuracy = last.accuracy;
        return metrics;
    }

    /// Average training loss and accuracy under the current model.
    Evaluation
    evaluate() const
    {
        return core::evaluate(cfg_.loss, data_.labels(),
                              [this](std::size_t i) { return margin(i); });
    }

    /// The model dequantized to floats.
    std::vector<float>
    model_floats() const
    {
        std::vector<float> out(model_.size());
        for (std::size_t k = 0; k < model_.size(); ++k)
            out[k] = static_cast<float>(model_[k]) * qm_;
        return out;
    }

  private:
    float
    margin(std::size_t i) const
    {
        return detail::row_margin(data_, i, model_.data(), qm_, cfg_.impl);
    }

    /// Fisher-Yates permutation of the example order, fresh per epoch.
    void
    reshuffle(std::size_t epoch)
    {
        if (order_.empty()) {
            order_.resize(data_.rows());
            for (std::size_t i = 0; i < order_.size(); ++i)
                order_[i] = static_cast<std::uint32_t>(i);
        }
        rng::Xorshift128Plus gen(cfg_.seed ^ (0x9E3779B9ull * (epoch + 1)));
        for (std::size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[gen() % i]);
    }

    void
    worker(std::size_t tid, float eta)
    {
        detail::WorkerRounding rounding(cfg_, tid);
        detail::RowUpdate<Data, M> update(data_, cfg_, model_.data(), qm_,
                                          rounding);
        for (std::size_t pos = tid; pos < data_.rows();
             pos += cfg_.threads) {
            const std::size_t i = cfg_.shuffle ? order_[pos] : pos;
            // G term: low-precision intermediates (margin + coefficient).
            const float z =
                detail::quantize_intermediate(margin(i), gradient_bits_, 16.0f);
            const float g = detail::quantize_intermediate(
                loss_gradient_coefficient(cfg_.loss, z, data_.label(i)),
                gradient_bits_, 2.0f);
            update.apply(i, -eta * g);
        }
        update.finish();
    }

    const Data& data_;
    TrainerConfig cfg_;
    AlignedBuffer<M> model_;
    float qm_; ///< real value of one model raw unit
    std::vector<std::uint32_t> order_;
    int gradient_bits_;
};

/// The dense engine, as benches build it from DenseData<D>.
template <typename D, typename M>
using DenseEngine = Engine<dataset::DenseData<D>, M>;

} // namespace buckwild::core

#endif // BUCKWILD_CORE_ENGINE_H
