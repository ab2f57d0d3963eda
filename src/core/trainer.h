/**
 * @file
 * The library's main public API: a DMGC-signature-configured trainer.
 *
 * Example (the quickstart):
 *
 *     using namespace buckwild;
 *     auto problem = dataset::generate_logistic_dense(4096, 10000, 42);
 *     core::TrainerConfig cfg;
 *     cfg.signature = dmgc::parse_signature("D8M8");
 *     cfg.threads = 4;
 *     core::Trainer trainer(cfg);
 *     core::TrainingMetrics m = trainer.fit(problem);
 *     // m.gnps(), m.final_loss, trainer.model() ...
 *
 * The Trainer owns the quantized dataset copy and the engine; the engine
 * type (which D/M/I reps, dense or sparse) is chosen at fit() time from
 * the signature.
 */
#ifndef BUCKWILD_CORE_TRAINER_H
#define BUCKWILD_CORE_TRAINER_H

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/loss.h"
#include "core/metrics.h"
#include "dataset/problem.h"

namespace buckwild::core {

/// Type-erased engine interface (see engine.h for the implementation).
class IEngine
{
  public:
    virtual ~IEngine() = default;
    virtual TrainingMetrics train() = 0;
    virtual Evaluation evaluate() const = 0;
    virtual std::vector<float> model_floats() const = 0;
};

/// DMGC-configured SGD trainer (the Buckwild! public API).
class Trainer
{
  public:
    explicit Trainer(TrainerConfig config);

    /// Quantizes `problem` per the signature's D term and trains.
    /// The signature must be dense.
    TrainingMetrics fit(const dataset::DenseProblem& problem);

    /// Sparse counterpart: the signature must be sparse; its index
    /// precision selects the stored index type (8/16/32 bits). Throws
    /// std::runtime_error before training for a mini-batch, or for
    /// per-write rounding of a fixed-point model.
    TrainingMetrics fit(const dataset::SparseProblem& problem);

    /// The trained model, dequantized to floats. Empty before fit().
    std::vector<float> model() const;

    /// Average training loss under the current model.
    double loss() const;

    /// Training accuracy under the current model.
    double accuracy() const;

    const TrainerConfig& config() const { return config_; }

  private:
    TrainerConfig config_;
    std::shared_ptr<void> data_holder_; ///< keeps the quantized data alive
    std::unique_ptr<IEngine> engine_;
};

/// Margin of a full-precision example under a float model (for held-out
/// evaluation).
float predict_margin(const std::vector<float>& model, const float* x);

} // namespace buckwild::core

#endif // BUCKWILD_CORE_TRAINER_H
