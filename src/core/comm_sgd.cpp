#include "core/comm_sgd.h"

#include <algorithm>

#include "core/trainer.h"
#include "ps/quantize.h"
#include "util/logging.h"

namespace buckwild::core {

CommSgdResult
train_comm_sgd(const dataset::DenseProblem& problem,
               const CommSgdConfig& cfg)
{
    if (cfg.workers == 0) fatal("workers must be >= 1");
    if (cfg.batch_per_worker == 0) fatal("batch_per_worker must be >= 1");
    ps::validate_comm_bits(cfg.comm_bits);
    if (!(cfg.step_size > 0.0f)) fatal("step_size must be positive");
    if (!(cfg.step_decay > 0.0f)) fatal("step_decay must be positive");
    if (cfg.workers * cfg.batch_per_worker > problem.examples)
        fatal("one exchange round needs workers * batch_per_worker <= " +
              std::to_string(problem.examples) + " examples");

    const std::size_t n = problem.dim;
    std::vector<float> model(n, 0.0f);
    std::vector<std::vector<float>> residual(
        cfg.workers, std::vector<float>(n, 0.0f));

    CommSgdResult result;
    result.signature = cfg.comm_bits == 32
        ? "Cs32"
        : "Cs" + std::to_string(cfg.comm_bits);
    result.bytes_per_round =
        static_cast<double>(n) * cfg.comm_bits / 8.0 + sizeof(float);

    auto eval = [&] {
        const Evaluation e = evaluate(cfg.loss, problem.y, [&](std::size_t i) {
            return predict_margin(model, problem.row(i));
        });
        result.accuracy = e.accuracy;
        return e.loss;
    };

    const std::size_t round_examples = cfg.workers * cfg.batch_per_worker;
    float eta = cfg.step_size;
    std::vector<float> gradient(n);
    std::vector<float> reduced(n);

    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        for (std::size_t base = 0; base + round_examples <= problem.examples;
             base += round_examples) {
            std::fill(reduced.begin(), reduced.end(), 0.0f);
            for (std::size_t w = 0; w < cfg.workers; ++w) {
                // Worker w's shard of this round's examples.
                std::fill(gradient.begin(), gradient.end(), 0.0f);
                for (std::size_t b = 0; b < cfg.batch_per_worker; ++b) {
                    const std::size_t i =
                        base + w * cfg.batch_per_worker + b;
                    const float* x = problem.row(i);
                    const float z = predict_margin(model, x);
                    const float g =
                        loss_gradient_coefficient(cfg.loss, z, problem.y[i]);
                    if (g == 0.0f) continue;
                    for (std::size_t k = 0; k < n; ++k)
                        gradient[k] += g * x[k];
                }
                // Error feedback: add the carried residual before
                // quantizing, as in Seide et al.
                if (cfg.error_feedback)
                    for (std::size_t k = 0; k < n; ++k)
                        gradient[k] += residual[w][k];
                const auto q = ps::quantize_gradient(
                    gradient, cfg.comm_bits,
                    cfg.error_feedback ? &residual[w] : nullptr);
                for (std::size_t k = 0; k < n; ++k) reduced[k] += q[k];
            }
            // Synchronous model update from the all-reduced gradient.
            const float scale =
                eta / static_cast<float>(round_examples);
            for (std::size_t k = 0; k < n; ++k)
                model[k] -= scale * reduced[k];
            ++result.rounds;
        }
        eta *= cfg.step_decay;
        result.loss_trace.push_back(eval());
    }
    result.final_loss =
        result.loss_trace.empty() ? eval() : result.loss_trace.back();
    return result;
}

} // namespace buckwild::core
