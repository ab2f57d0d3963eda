/**
 * @file
 * Tests for the bounded-staleness harness: Hogwild!-style delays must be
 * benign at realistic magnitudes (the paper's premise) and only degrade
 * at extreme staleness.
 */
#include <gtest/gtest.h>

#include "core/delayed_sgd.h"
#include "dataset/problem.h"
#include "test_common.h"

namespace buckwild::core {
namespace {

const dataset::DenseProblem&
problem()
{
    static const auto kProblem =
        dataset::generate_logistic_dense(96, 2500, 654);
    return kProblem;
}

DelayedSgdConfig
base()
{
    DelayedSgdConfig cfg;
    cfg.epochs = 10;
    cfg.step_size = 0.15f;
    return cfg;
}

TEST(DelayedSgd, SynchronousBaselineConverges)
{
    const auto r = train_with_delayed_updates(problem(), base());
    EXPECT_LT(r.final_loss, 0.5);
    EXPECT_GT(r.accuracy, 0.78);
    EXPECT_DOUBLE_EQ(r.average_delay, 0.0);
}

TEST(DelayedSgd, HogwildScaleDelaysAreBenign)
{
    // tau ~ #threads (18-core-machine scale): the Hogwild! claim.
    DelayedSgdConfig cfg = base();
    const auto sync = train_with_delayed_updates(problem(), cfg);
    cfg.max_delay = 18;
    const auto stale = train_with_delayed_updates(problem(), cfg);
    EXPECT_GT(stale.average_delay, 1.0);
    EXPECT_NEAR(stale.final_loss, sync.final_loss, 0.03)
        << "realistic asynchrony must not hurt convergence";
}

TEST(DelayedSgd, ExtremeDelaysDegrade)
{
    DelayedSgdConfig cfg = base();
    cfg.step_size = 0.5f; // large steps amplify staleness error
    cfg.step_decay = 1.0f;
    const auto sync = train_with_delayed_updates(problem(), cfg);
    cfg.max_delay = 2000; // nearly an epoch of staleness
    const auto stale = train_with_delayed_updates(problem(), cfg);
    EXPECT_GT(stale.final_loss, sync.final_loss + 0.01)
        << "staleness comparable to the dataset size must show up";
}

TEST(DelayedSgd, DelayMonotonicityCoarse)
{
    // Loss should be (weakly) monotone across widely spaced delays.
    DelayedSgdConfig cfg = base();
    cfg.step_size = 0.4f;
    cfg.step_decay = 1.0f;
    double prev = 0.0;
    bool first = true;
    for (std::size_t tau : {0u, 50u, 5000u}) {
        cfg.max_delay = tau;
        const auto r = train_with_delayed_updates(problem(), cfg);
        if (!first)
            EXPECT_GT(r.final_loss, prev - 0.05)
                << "tau=" << tau << " should not be much better";
        prev = r.final_loss;
        first = false;
    }
}

TEST(DelayedSgd, AverageDelayMatchesConfiguredRange)
{
    DelayedSgdConfig cfg = base();
    cfg.max_delay = 100;
    cfg.epochs = 2;
    const auto r = train_with_delayed_updates(problem(), cfg);
    // Delays are U{1..100}: mean ~ 50.5.
    EXPECT_NEAR(r.average_delay, 50.5, 3.0);
}

TEST(DelayedSgd, LossTraceMatchesGolden)
{
    // FNV-1a of the loss trace, final loss, accuracy and realized delay:
    // a change that moves one bit of the emulation fails this by design.
    // Power-of-two features keep every product exact, so the hash does
    // not depend on FMA contraction.
    const auto p = testutil::power_of_two_dense_problem(48, 600, 655);
    DelayedSgdConfig cfg = base();
    cfg.max_delay = 8;
    cfg.epochs = 4;
    const auto r = train_with_delayed_updates(p, cfg);
    testutil::Fnv1a hash;
    hash.add(r.loss_trace);
    hash.add(r.final_loss);
    hash.add(r.accuracy);
    hash.add(r.average_delay);
    EXPECT_EQ(hash.value, 0xbeebee0594c3283cull) << "0x" << std::hex << hash.value;
}

} // namespace
} // namespace buckwild::core
