#include "cachesim/stale_sgd.h"

#include <cmath>

#include "core/trainer.h"
#include "rng/xorshift.h"
#include "util/logging.h"

namespace buckwild::cachesim {

StaleSgdResult
train_with_stale_reads(const dataset::DenseProblem& problem,
                       const StaleSgdConfig& cfg)
{
    if (cfg.workers == 0) fatal("workers must be >= 1");
    if (cfg.obstinacy < 0.0 || cfg.obstinacy > 1.0)
        fatal("obstinacy must be in [0, 1]");

    const std::size_t n = problem.dim;
    const std::size_t lines = (n + cfg.line_values - 1) / cfg.line_values;

    std::vector<float> shared(n, 0.0f);
    // Worker-private copies (the "cached" model).
    std::vector<std::vector<float>> local(cfg.workers, shared);
    rng::Xorshift128Plus gen(cfg.seed);
    auto uniform = [&gen] {
        return rng::to_unit_float(static_cast<std::uint32_t>(gen() >> 32));
    };

    StaleSgdResult result;
    auto eval = [&] {
        const core::Evaluation e = core::evaluate(
            core::Loss::kLogistic, problem.y, [&](std::size_t i) {
                return core::predict_margin(shared, problem.row(i));
            });
        result.accuracy = e.accuracy;
        return e.loss;
    };

    float eta = cfg.step_size;
    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        for (std::size_t i = 0; i < problem.examples; ++i) {
            const std::size_t worker = i % cfg.workers;
            std::vector<float>& w = local[worker];

            // Coherence emulation: per line, accept the "invalidate"
            // (refresh from the shared model) with probability 1 - q.
            for (std::size_t l = 0; l < lines; ++l) {
                if (cfg.obstinacy > 0.0 && uniform() < cfg.obstinacy) {
                    ++result.stale_line_reads;
                    continue; // obstinate: keep the stale line
                }
                ++result.refreshes;
                const std::size_t begin = l * cfg.line_values;
                const std::size_t end = std::min(n, begin + cfg.line_values);
                for (std::size_t k = begin; k < end; ++k)
                    w[k] = shared[k];
            }

            const float* x = problem.row(i);
            const float z = core::predict_margin(w, x);
            const float g = core::loss_gradient_coefficient(
                core::Loss::kLogistic, z, problem.y[i]);
            const float c = -eta * g;
            if (c == 0.0f) continue;
            // Write-through: the update lands in both the worker's copy
            // and the shared model (as an M-state line would eventually).
            for (std::size_t k = 0; k < n; ++k) {
                const float delta = c * x[k];
                w[k] += delta;
                shared[k] += delta;
            }
        }
        eta *= cfg.step_decay;
        result.loss_trace.push_back(eval());
    }
    result.final_loss = result.loss_trace.empty() ? eval()
                                                  : result.loss_trace.back();
    return result;
}

} // namespace buckwild::cachesim
