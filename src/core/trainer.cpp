#include "core/trainer.h"

#include <cstdint>

#include "core/engine.h"
#include "lowp/dispatch.h"
#include "lowp/rep_traits.h"
#include "util/logging.h"

namespace buckwild::core {

const char*
to_string(RoundingStrategy strategy)
{
    switch (strategy) {
      case RoundingStrategy::kBiased: return "biased";
      case RoundingStrategy::kMersennePerWrite: return "mersenne";
      case RoundingStrategy::kXorshiftPerWrite: return "xorshift";
      case RoundingStrategy::kSharedXorshift: return "shared";
    }
    return "?";
}

namespace {

/// Adapts an engine (and its owned dataset copy) to IEngine.
template <typename Data, typename M>
class EngineAdapter final : public IEngine
{
  public:
    EngineAdapter(std::shared_ptr<Data> data, const TrainerConfig& cfg)
        : data_(std::move(data)), engine_(*data_, cfg)
    {}

    TrainingMetrics train() override { return engine_.train(); }
    Evaluation evaluate() const override { return engine_.evaluate(); }
    std::vector<float>
    model_floats() const override
    {
        return engine_.model_floats();
    }

  private:
    std::shared_ptr<Data> data_;
    Engine<Data, M> engine_;
};

/// Builds the engine over `data` for the signature's model rep width via
/// the substrate's signature-driven dispatch.
template <typename Data>
std::unique_ptr<IEngine>
make_engine(std::shared_ptr<Data> data, const TrainerConfig& cfg,
            int model_width)
{
    return lowp::with_value_rep(
        model_width, [&](auto m) -> std::unique_ptr<IEngine> {
            using M = typename decltype(m)::type;
            return std::make_unique<EngineAdapter<Data, M>>(data, cfg);
        });
}

} // namespace

Trainer::Trainer(TrainerConfig config) : config_(std::move(config)) {}

TrainingMetrics
Trainer::fit(const dataset::DenseProblem& problem)
{
    if (config_.signature.sparse)
        fatal("signature " + config_.signature.to_string() +
              " is sparse but a dense problem was supplied");
    const int d = lowp::checked_rep_width(config_.signature.dataset,
                                          "dataset");
    const int m = lowp::checked_rep_width(config_.signature.model, "model");
    engine_ = lowp::with_value_rep(d, [&](auto rep) {
        using D = typename decltype(rep)::type;
        return make_engine(std::make_shared<dataset::DenseData<D>>(
                               problem, lowp::rep_default_format<D>()),
                           config_, m);
    });
    return engine_->train();
}

TrainingMetrics
Trainer::fit(const dataset::SparseProblem& problem)
{
    if (!config_.signature.sparse)
        fatal("signature " + config_.signature.to_string() +
              " is dense but a sparse problem was supplied");
    const int d = lowp::checked_rep_width(config_.signature.dataset,
                                          "dataset");
    const int m = lowp::checked_rep_width(config_.signature.model, "model");
    const int i = config_.signature.index_bits.value_or(32);
    engine_ = lowp::with_value_rep(d, [&](auto v) {
        using V = typename decltype(v)::type;
        return lowp::with_index_rep(i, [&](auto ix) {
            using I = typename decltype(ix)::type;
            return make_engine(std::make_shared<dataset::SparseData<V, I>>(
                                   problem, lowp::rep_default_format<V>()),
                               config_, m);
        });
    });
    return engine_->train();
}

std::vector<float>
Trainer::model() const
{
    if (!engine_) return {};
    return engine_->model_floats();
}

double
Trainer::loss() const
{
    if (!engine_) panic("Trainer::loss() called before fit()");
    return engine_->evaluate().loss;
}

double
Trainer::accuracy() const
{
    if (!engine_) panic("Trainer::accuracy() called before fit()");
    return engine_->evaluate().accuracy;
}

float
predict_margin(const std::vector<float>& model, const float* x)
{
    float z = 0.0f;
    for (std::size_t k = 0; k < model.size(); ++k) z += model[k] * x[k];
    return z;
}

} // namespace buckwild::core
