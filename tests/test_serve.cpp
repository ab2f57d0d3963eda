/**
 * @file
 * Tests for the serving subsystem: precision parsing, ServingModel
 * quantization, registry hot-swap under a concurrent scorer, the
 * batched-equals-single determinism guarantee, request-queue
 * backpressure, and the Ms8 quantization-error bound on digits.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "buckwild/buckwild.h"
#include "test_common.h"
#include "core/model_io.h"
#include "core/trainer.h"
#include "dataset/digits.h"
#include "dataset/problem.h"
#include "serve/serve.h"

namespace buckwild {
namespace {

// -------------------------------------------------------------- precision

TEST(ServePrecision, ParsesAndPrints)
{
    EXPECT_EQ(serve::parse_precision("Ms8"), serve::Precision::kInt8);
    EXPECT_EQ(serve::parse_precision("8"), serve::Precision::kInt8);
    EXPECT_EQ(serve::parse_precision("Ms16"), serve::Precision::kInt16);
    EXPECT_EQ(serve::parse_precision("Ms32f"), serve::Precision::kFloat32);
    EXPECT_EQ(serve::parse_precision("32"), serve::Precision::kFloat32);
    EXPECT_EQ(to_string(serve::Precision::kInt8), "Ms8");
    EXPECT_EQ(to_string(serve::Precision::kInt16), "Ms16");
    EXPECT_EQ(to_string(serve::Precision::kFloat32), "Ms32f");
    EXPECT_THROW(serve::parse_precision("Ms7"), std::runtime_error);
}

TEST(ServePrecision, DefaultsFromTrainedSignature)
{
    EXPECT_EQ(serve::precision_from_signature(dmgc::parse_signature("D8M8")),
              serve::Precision::kInt8);
    EXPECT_EQ(serve::precision_from_signature(dmgc::parse_signature("D8M16")),
              serve::Precision::kInt16);
    EXPECT_EQ(
        serve::precision_from_signature(dmgc::parse_signature("D32fM32f")),
        serve::Precision::kFloat32);
}

// ----------------------------------------------------------- ServingModel

TEST(ServingModel, Float32IsExact)
{
    const std::vector<float> w = {0.5f, -1.25f, 3.75f, 0.0f};
    serve::ServingModel model(testutil::make_saved_model(w), serve::Precision::kFloat32, 1);
    ASSERT_EQ(model.dim(), w.size());
    EXPECT_EQ(model.quantum(), 1.0f);
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_EQ(model.weights_f32()[i], w[i]);
}

TEST(ServingModel, FormatAdaptsToWeightRange)
{
    // Trained weights escape [-1, 1): the fitted format must widen its
    // integer part (fewer fraction bits) until 5.5 is representable.
    serve::ServingModel model(testutil::make_saved_model({5.5f, -0.25f}),
                              serve::Precision::kInt8, 1);
    EXPECT_GE(model.format().max_value(), 5.5f);
    const float q = model.quantum();
    EXPECT_NEAR(model.weights_i8()[0] * q, 5.5f, q / 2 + 1e-6f);
    EXPECT_NEAR(model.weights_i8()[1] * q, -0.25f, q / 2 + 1e-6f);
}

TEST(ServingModel, QuantizationErrorBoundedByHalfQuantum)
{
    std::vector<float> w;
    for (int i = 0; i < 64; ++i) w.push_back(0.017f * (i - 31));
    serve::ServingModel m8(testutil::make_saved_model(w), serve::Precision::kInt8, 1);
    const float q = m8.quantum();
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_LE(std::fabs(m8.weights_i8()[i] * q - w[i]), q / 2 + 1e-6f);
}

// ----------------------------------------------------------- registry

TEST(ModelRegistry, PublishesMonotonicVersions)
{
    serve::ModelRegistry registry;
    EXPECT_EQ(registry.current_version(), 0u);
    EXPECT_EQ(registry.current(), nullptr);
    EXPECT_EQ(registry.publish(testutil::make_saved_model({1.0f}), serve::Precision::kInt8),
              1u);
    EXPECT_EQ(registry.publish(testutil::make_saved_model({2.0f}), serve::Precision::kInt8),
              2u);
    EXPECT_EQ(registry.current_version(), 2u);
    EXPECT_EQ(registry.current()->version(), 2u);
}

TEST(ModelRegistry, HotSwapUnderConcurrentScorer)
{
    // One thread scores continuously while the main thread keeps
    // republishing models whose weights encode their generation's sign.
    // Every observed score must be internally consistent with the
    // snapshot it came from: snapshots are immutable, so a scorer can
    // never see a half-swapped model.
    const std::size_t dim = 64;
    serve::ModelRegistry registry;
    registry.publish(testutil::make_saved_model(std::vector<float>(dim, 1.0f)),
                     serve::Precision::kInt8);

    const std::vector<float> x(dim, 1.0f);
    serve::InferenceEngine engine;
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> scored{0};
    std::atomic<bool> consistent{true};

    std::thread scorer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const auto model = registry.current();
            const auto result = engine.score_dense(*model, x.data(), dim);
            // Weights are +1 on odd versions, -1 on even versions: the
            // margin's sign must match the snapshot's version parity.
            const bool odd = model->version() % 2 == 1;
            if (odd != (result.margin > 0.0f))
                consistent.store(false, std::memory_order_relaxed);
            if (result.model_version != model->version())
                consistent.store(false, std::memory_order_relaxed);
            scored.fetch_add(1, std::memory_order_relaxed);
        }
    });

    // Swap only once the scorer runs: on a loaded machine the thread may
    // otherwise not be scheduled before all 100 publishes are done.
    while (scored.load(std::memory_order_relaxed) == 0)
        std::this_thread::yield();
    for (int gen = 2; gen <= 101; ++gen) {
        const float sign = gen % 2 == 1 ? 1.0f : -1.0f;
        registry.publish(testutil::make_saved_model(std::vector<float>(dim, sign)),
                         serve::Precision::kInt8);
        std::this_thread::yield();
    }
    stop.store(true);
    scorer.join();
    EXPECT_TRUE(consistent.load());
    EXPECT_GT(scored.load(), 0u);
    EXPECT_EQ(registry.current_version(), 101u);
}

// -------------------------------------------------------------- engine

TEST(InferenceEngine, SparseMatchesDenseScatter)
{
    std::vector<float> w;
    for (int i = 0; i < 32; ++i) w.push_back(0.03f * (i - 16));
    serve::ServingModel model(testutil::make_saved_model(w), serve::Precision::kInt16, 1);
    serve::InferenceEngine engine;

    const std::vector<std::uint32_t> index = {1, 7, 19, 30};
    const std::vector<float> value = {0.5f, -2.0f, 1.25f, 4.0f};
    std::vector<float> dense(32, 0.0f);
    for (std::size_t k = 0; k < index.size(); ++k)
        dense[index[k]] = value[k];

    const auto sparse =
        engine.score_sparse(model, index.data(), value.data(), index.size());
    const auto full = engine.score_dense(model, dense.data(), dense.size());
    EXPECT_NEAR(sparse.margin, full.margin, 1e-4f);
}

TEST(InferenceEngine, RejectsBadRequests)
{
    serve::ServingModel model(testutil::make_saved_model({1.0f, 2.0f}),
                              serve::Precision::kFloat32, 1);
    serve::InferenceEngine engine;
    const float x[4] = {1, 2, 3, 4};
    EXPECT_THROW(engine.score_dense(model, x, 4), std::runtime_error);
    const std::uint32_t index[1] = {9}; // out of range for dim 2
    const float value[1] = {1.0f};
    EXPECT_THROW(engine.score_sparse(model, index, value, 1),
                 std::runtime_error);
}

TEST(InferenceEngine, LinkFunctions)
{
    using E = serve::InferenceEngine;
    EXPECT_NEAR(E::link(core::Loss::kLogistic, 0.0f), 0.5f, 1e-6f);
    EXPECT_GT(E::link(core::Loss::kLogistic, 4.0f), 0.9f);
    EXPECT_EQ(E::link(core::Loss::kSquared, 1.5f), 1.5f);
    EXPECT_EQ(E::link(core::Loss::kHinge, -2.0f), -2.0f);
}

// ---------------------------------------------------------- request queue

TEST(RequestQueue, BackpressureRejectsImmediately)
{
    serve::RequestQueue queue(2);
    serve::Request r;
    EXPECT_TRUE(queue.try_push(std::move(r)));
    EXPECT_TRUE(queue.try_push(serve::Request{}));
    // Full: the push fails NOW — it never blocks waiting for room.
    EXPECT_FALSE(queue.try_push(serve::Request{}));
    EXPECT_EQ(queue.size(), 2u);
}

TEST(RequestQueue, VectoredPushAdmitsPrefix)
{
    serve::RequestQueue queue(4);
    std::vector<serve::Request> first(3);
    EXPECT_EQ(queue.try_push_many(first.data(), first.size()), 3u);
    std::vector<serve::Request> second(3);
    // Only one slot left: a prefix of length 1 is admitted, the caller
    // keeps the rest.
    EXPECT_EQ(queue.try_push_many(second.data(), second.size()), 1u);
    EXPECT_EQ(queue.size(), 4u);
}

TEST(RequestQueue, PopBatchCoalescesUpToMax)
{
    serve::RequestQueue queue(16);
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(queue.try_push(serve::Request{}));
    std::vector<serve::Request> batch;
    EXPECT_EQ(queue.pop_batch(batch, 4), 4u);
    EXPECT_EQ(queue.pop_batch(batch, 16), 6u);
    EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueue, CloseDrainsThenSignalsShutdown)
{
    serve::RequestQueue queue(4);
    ASSERT_TRUE(queue.try_push(serve::Request{}));
    queue.close();
    EXPECT_FALSE(queue.try_push(serve::Request{})) << "closed queue rejects";
    std::vector<serve::Request> batch;
    EXPECT_EQ(queue.pop_batch(batch, 4), 1u) << "drains what was queued";
    EXPECT_EQ(queue.pop_batch(batch, 4), 0u) << "then reports shutdown";
}

TEST(RequestQueue, CloseWakesBlockedConsumer)
{
    serve::RequestQueue queue(4);
    std::thread consumer([&] {
        std::vector<serve::Request> batch;
        EXPECT_EQ(queue.pop_batch(batch, 4), 0u);
    });
    queue.close();
    consumer.join(); // must not hang
}

// -------------------------------------------------------------- server

TEST(Server, BatchedScoresAreBitIdenticalToSingle)
{
    // The acceptance property: coalescing B requests into one kernel
    // sweep must not change a single bit of any score, because batching
    // only amortizes bookkeeping — each request still runs the exact
    // same dot kernel against the same snapshot.
    const std::size_t dim = 96;
    const auto problem = testutil::logistic_problem(dim, 64, 7);
    serve::ModelRegistry registry;
    std::vector<float> w(problem.row(0), problem.row(0) + dim);
    registry.publish(testutil::make_saved_model(std::move(w)), serve::Precision::kInt8);

    // Reference: one-at-a-time through a max_batch=1 server.
    std::vector<float> single(problem.examples);
    {
        serve::ServerConfig cfg;
        cfg.max_batch = 1;
        serve::Server server(registry, cfg);
        for (std::size_t i = 0; i < problem.examples; ++i) {
            auto future = server.submit_dense(std::vector<float>(
                problem.row(i), problem.row(i) + dim));
            ASSERT_TRUE(future.has_value());
            single[i] = future->get().margin;
        }
    }

    // Batched: everything in flight at once through a max_batch=16
    // server, so the workers genuinely coalesce.
    {
        serve::ServerConfig cfg;
        cfg.max_batch = 16;
        serve::Server server(registry, cfg);
        std::vector<std::future<serve::ScoreResult>> futures;
        for (std::size_t i = 0; i < problem.examples; ++i) {
            auto future = server.submit_dense(std::vector<float>(
                problem.row(i), problem.row(i) + dim));
            ASSERT_TRUE(future.has_value());
            futures.push_back(std::move(*future));
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
            const float batched = futures[i].get().margin;
            EXPECT_EQ(batched, single[i]) << "request " << i;
        }
    }
}

TEST(Server, SlotPathMatchesFuturePath)
{
    const std::size_t dim = 32;
    serve::ModelRegistry registry;
    std::vector<float> w(dim);
    for (std::size_t i = 0; i < dim; ++i)
        w[i] = 0.05f * static_cast<float>(i) - 0.8f;
    registry.publish(testutil::make_saved_model(std::move(w)), serve::Precision::kInt16);
    serve::ServerConfig cfg;
    serve::Server server(registry, cfg);

    std::vector<float> x(dim, 0.5f);
    auto future = server.submit_dense(x);
    ASSERT_TRUE(future.has_value());
    const float via_future = future->get().margin;

    serve::ReplySlot slot;
    ASSERT_TRUE(server.submit_dense_view(x.data(), dim, &slot));
    ASSERT_TRUE(slot.wait());
    EXPECT_EQ(slot.result.margin, via_future);
}

TEST(Server, ReportsErrorsThroughBothPaths)
{
    serve::ModelRegistry registry;
    registry.publish(testutil::make_saved_model({1.0f, 2.0f}), serve::Precision::kFloat32);
    serve::ServerConfig cfg;
    serve::Server server(registry, cfg);

    // Dimension mismatch: the future carries the engine's exception.
    auto future = server.submit_dense({1.0f, 2.0f, 3.0f});
    ASSERT_TRUE(future.has_value());
    EXPECT_THROW(future->get(), std::runtime_error);

    // Same failure through a slot: wait() returns false and the error
    // text is published.
    const float x[3] = {1, 2, 3};
    serve::ReplySlot slot;
    ASSERT_TRUE(server.submit_dense_view(x, 3, &slot));
    EXPECT_FALSE(slot.wait());
    EXPECT_FALSE(slot.error.empty());
}

TEST(Server, HotSwapAppliesToLaterRequests)
{
    const std::size_t dim = 16;
    serve::ModelRegistry registry;
    registry.publish(testutil::make_saved_model(std::vector<float>(dim, 1.0f)),
                     serve::Precision::kFloat32);
    serve::ServerConfig cfg;
    serve::Server server(registry, cfg);

    const std::vector<float> x(dim, 1.0f);
    auto before = server.submit_dense(x);
    ASSERT_TRUE(before.has_value());
    const auto first = before->get();
    EXPECT_EQ(first.model_version, 1u);
    EXPECT_GT(first.margin, 0.0f);

    registry.publish(testutil::make_saved_model(std::vector<float>(dim, -1.0f)),
                     serve::Precision::kFloat32);
    auto after = server.submit_dense(x);
    ASSERT_TRUE(after.has_value());
    const auto second = after->get();
    EXPECT_EQ(second.model_version, 2u);
    EXPECT_LT(second.margin, 0.0f);
}

TEST(Server, MetricsCountWhatHappened)
{
    serve::ModelRegistry registry;
    registry.publish(testutil::make_saved_model({0.5f, 0.5f}), serve::Precision::kFloat32);
    serve::ServerConfig cfg;
    cfg.max_batch = 4;
    serve::Server server(registry, cfg);
    for (int i = 0; i < 12; ++i) {
        auto future = server.submit_dense({1.0f, 1.0f});
        ASSERT_TRUE(future.has_value());
        future->get();
    }
    server.stop();
    const auto metrics = server.metrics();
    EXPECT_EQ(metrics.requests, 12u);
    EXPECT_EQ(metrics.rejects, 0u);
    EXPECT_GE(metrics.batches, 3u); // at most 4 per sweep
    EXPECT_EQ(metrics.latencies.size(), 12u);
    EXPECT_GE(metrics.latency_percentile(99), metrics.latency_percentile(50));
}

// ------------------------------------------------- quantization accuracy

TEST(ServeAccuracy, Ms8DigitsErrorWithinQuantizationBound)
{
    // Train a real model on the digits task, publish it at Ms8 and
    // Ms32f, and check the per-request margin error against the analytic
    // bound: biased rounding perturbs each weight by at most q/2, so
    // |z8 - zf| <= (q/2) * ||x||_1 (plus float-summation slack).
    const auto problem = testutil::digits_problem(400, 99);

    core::TrainerConfig cfg;
    cfg.signature = dmgc::parse_signature("D32fM32f");
    cfg.epochs = 4;
    core::Trainer trainer(cfg);
    trainer.fit(problem);

    const auto saved = testutil::make_saved_model(trainer.model());
    serve::ServingModel m8(saved, serve::Precision::kInt8, 1);
    serve::ServingModel mf(saved, serve::Precision::kFloat32, 2);
    serve::InferenceEngine engine;

    const float q = m8.quantum();
    for (std::size_t i = 0; i < 50; ++i) {
        const float* x = problem.row(i);
        float l1 = 0.0f;
        for (std::size_t d = 0; d < problem.dim; ++d) l1 += std::fabs(x[d]);
        const float z8 =
            engine.score_dense(m8, x, problem.dim).margin;
        const float zf =
            engine.score_dense(mf, x, problem.dim).margin;
        const float bound = q / 2 * l1;
        EXPECT_LE(std::fabs(z8 - zf), bound * 1.01f + 1e-4f)
            << "example " << i;
    }
}

} // namespace
} // namespace buckwild
