#include "core/delayed_sgd.h"

#include <deque>

#include "core/trainer.h"
#include "rng/xorshift.h"
#include "util/logging.h"

namespace buckwild::core {

DelayedSgdResult
train_with_delayed_updates(const dataset::DenseProblem& problem,
                           const DelayedSgdConfig& cfg)
{
    const std::size_t n = problem.dim;
    std::vector<float> model(n, 0.0f);
    rng::Xorshift128Plus gen(cfg.seed);

    // Pending updates: (due time, coefficient, example index). The
    // update vector itself is c * x_i, reconstructed from the dataset at
    // application time to keep memory bounded.
    struct Pending
    {
        std::uint64_t due;
        float coefficient;
        std::uint32_t example;
    };
    std::deque<Pending> queue;

    DelayedSgdResult result;
    auto eval = [&] {
        const Evaluation e = evaluate(cfg.loss, problem.y, [&](std::size_t i) {
            return predict_margin(model, problem.row(i));
        });
        result.accuracy = e.accuracy;
        return e.loss;
    };
    auto apply = [&](const Pending& p) {
        const float* x = problem.row(p.example);
        for (std::size_t k = 0; k < n; ++k)
            model[k] += p.coefficient * x[k];
    };

    std::uint64_t now = 0;
    double delay_sum = 0.0;
    std::uint64_t delay_count = 0;
    float eta = cfg.step_size;
    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        for (std::size_t i = 0; i < problem.examples; ++i, ++now) {
            // 1. Deliver matured updates (queue is due-ordered because
            //    delays are bounded and times increase; scan the front).
            while (!queue.empty() && queue.front().due <= now) {
                apply(queue.front());
                queue.pop_front();
            }
            // 2. Gradient against the stale model.
            const float z = predict_margin(model, problem.row(i));
            const float g =
                loss_gradient_coefficient(cfg.loss, z, problem.y[i]);
            const float c = -eta * g;
            if (c == 0.0f) continue;
            // 3. Enqueue with a random bounded delay.
            const std::uint64_t delay = cfg.max_delay == 0
                ? 0
                : 1 + gen() % cfg.max_delay;
            delay_sum += static_cast<double>(delay);
            ++delay_count;
            if (delay == 0) {
                apply({now, c, static_cast<std::uint32_t>(i)});
            } else {
                // Keep the queue due-ordered under variable delays.
                Pending p{now + delay, c, static_cast<std::uint32_t>(i)};
                auto it = queue.end();
                while (it != queue.begin() && (it - 1)->due > p.due) --it;
                queue.insert(it, p);
            }
        }
        eta *= cfg.step_decay;
        result.loss_trace.push_back(eval());
    }
    // Flush whatever is still in flight.
    for (const auto& p : queue) apply(p);
    queue.clear();

    result.final_loss = eval();
    result.average_delay =
        delay_count > 0 ? delay_sum / static_cast<double>(delay_count)
                        : 0.0;
    return result;
}

} // namespace buckwild::core
