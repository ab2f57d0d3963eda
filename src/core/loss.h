/**
 * @file
 * Loss functions for the single dot-and-AXPY SGD family.
 *
 * §2: "many other problems can be solved using SGD with a single
 * dot-and-AXPY pair ... including linear regression and support vector
 * machines". For all three losses here the gradient of one example is
 * coefficient(y, w.x) * x, so one SGD step is:
 *
 *     z = dot(w, x)
 *     c = -eta * coefficient(y, z)
 *     w = w + c * x            (the AXPY)
 *
 * which is exactly the structure the hardware analysis of the paper rests
 * on.
 */
#ifndef BUCKWILD_CORE_LOSS_H
#define BUCKWILD_CORE_LOSS_H

#include <cstddef>
#include <span>
#include <string>

namespace buckwild::core {

/// The supported single-dot-and-AXPY losses.
enum class Loss {
    kLogistic, ///< log(1 + exp(-y z)) — the paper's running example
    kSquared,  ///< (z - y)^2 / 2 — linear regression (the FPGA study, §8)
    kHinge,    ///< max(0, 1 - y z) — linear SVM (the RFF kernel SVM, §7)
};

/// "logistic" / "squared" / "hinge".
std::string to_string(Loss loss);

/// Loss value of one example given margin-input z = w.x and label y.
float loss_value(Loss loss, float z, float y);

/**
 * The gradient coefficient g(y, z) such that grad = g * x.
 * (The caller multiplies by -eta to form the AXPY coefficient.)
 */
float loss_gradient_coefficient(Loss loss, float z, float y);

/// True if the example is classified correctly (sign agreement); for
/// squared loss, true if |z - y| < 0.5.
bool loss_correct(Loss loss, float z, float y);

/// Average loss and accuracy of a model over a set of examples.
struct Evaluation
{
    double loss = 0.0;
    double accuracy = 0.0; ///< in [0, 1]
};

/// Scores a model in one pass over the examples labelled `labels`;
/// `margin(i)` is the model's margin w.x on example i. Every trainer and
/// emulator scores its model through here.
template <typename Margin>
Evaluation
evaluate(Loss loss, std::span<const float> labels, Margin&& margin)
{
    double total = 0.0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        const float z = margin(i);
        total += loss_value(loss, z, labels[i]);
        if (loss_correct(loss, z, labels[i])) ++correct;
    }
    const double n = static_cast<double>(labels.size());
    return {total / n, static_cast<double>(correct) / n};
}

} // namespace buckwild::core

#endif // BUCKWILD_CORE_LOSS_H
