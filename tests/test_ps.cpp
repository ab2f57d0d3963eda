/**
 * @file
 * Tests for the sharded parameter-server subsystem (src/ps) and the
 * quantizer it shares with the emulated C-term trainer:
 *
 *  - PsQuantize: validation, round-trip error-feedback invariant (fuzz),
 *    wire codec bit-identity against quantize_gradient, byte accounting;
 *  - PsCommSgd: the refactored emulation is bit-identical to a verbatim
 *    replica of the seed implementation, plus recorded golden anchors;
 *  - PsTransport: delivery, drop-with-retry RPC, reorder, shutdown drain;
 *  - PsShard: apply/pull semantics, retransmission dedup, the SSP gate
 *    and worker retirement;
 *  - PsCluster: convergence per precision, fault injection, staleness
 *    bounds, config validation, checkpoint provenance;
 *  - PsWorker: the exact bytes a worker pushes, dense and sparse rows;
 *  - PsSparseCluster: the same over sparse rows, with sparse provenance
 *    on every publish;
 *  - PsServe: train-to-serve hot-swap through a shared ModelRegistry;
 *  - PsConcurrency: concurrent push/pull on one shard (the TSan target).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "core/comm_sgd.h"
#include "dataset/problem.h"
#include "ps/ps.h"
#include "ps/workload.h"
#include "rng/xorshift.h"
#include "serve/serve.h"
#include "test_common.h"
#include "util/thread_pool.h"

namespace buckwild {
namespace {

// ===================================================== PsQuantize

TEST(PsQuantize, ValidatesCommBits)
{
    EXPECT_NO_THROW(ps::validate_comm_bits(1));
    EXPECT_NO_THROW(ps::validate_comm_bits(8));
    EXPECT_NO_THROW(ps::validate_comm_bits(32));
    for (const int bits : {0, 2, 4, 7, 16, 24, 64, -1})
        EXPECT_THROW(ps::validate_comm_bits(bits), std::runtime_error)
            << "bits = " << bits;
}

TEST(PsQuantize, PayloadBytesPerPrecision)
{
    EXPECT_EQ(ps::payload_bytes(256, 32), 1024u);
    EXPECT_EQ(ps::payload_bytes(256, 8), 256u);
    EXPECT_EQ(ps::payload_bytes(256, 1), 32u);
    // Cs1 rounds up to whole bytes.
    EXPECT_EQ(ps::payload_bytes(9, 1), 2u);
    EXPECT_EQ(ps::payload_bytes(0, 1), 0u);
}

std::vector<float>
fuzz_vector(rng::Xorshift128Plus& rng, std::size_t n, float magnitude)
{
    std::vector<float> g(n);
    for (auto& v : g) {
        const double u =
            static_cast<double>(rng() >> 11) * 0x1.0p-53; // [0, 1)
        v = static_cast<float>((2.0 * u - 1.0) * magnitude);
    }
    return g;
}

TEST(PsQuantize, RoundTripInvariantFuzz)
{
    // The error-feedback contract: what was not transmitted is exactly
    // what stays behind — q[k] + r[k] == g[k] up to float rounding.
    rng::Xorshift128Plus rng(2024);
    for (const int bits : {32, 8, 1}) {
        for (int trial = 0; trial < 50; ++trial) {
            const std::size_t n = 1 + static_cast<std::size_t>(rng() % 300);
            const float magnitude =
                std::pow(10.0f, static_cast<float>(rng() % 7) - 3.0f);
            const auto g = fuzz_vector(rng, n, magnitude);
            std::vector<float> residual(n, 0.0f);
            const auto q = ps::quantize_gradient(g, bits, &residual);
            ASSERT_EQ(q.size(), n);
            for (std::size_t k = 0; k < n; ++k) {
                const float tol =
                    1e-6f * (std::fabs(g[k]) + std::fabs(q[k]));
                EXPECT_NEAR(q[k] + residual[k], g[k], tol)
                    << "bits " << bits << " k " << k;
            }
            if (bits == 32) {
                for (std::size_t k = 0; k < n; ++k)
                    EXPECT_EQ(residual[k], 0.0f);
            }
        }
    }
}

TEST(PsQuantize, WireCodecBitIdenticalToQuantizer)
{
    // decode(encode(g)) must reproduce quantize_gradient(g) exactly —
    // the executed cluster and the emulation then share one arithmetic.
    rng::Xorshift128Plus rng(7);
    for (const int bits : {32, 8, 1}) {
        for (int trial = 0; trial < 40; ++trial) {
            const std::size_t n = 1 + static_cast<std::size_t>(rng() % 200);
            auto g = fuzz_vector(rng, n, trial % 2 == 0 ? 1.0f : 40.0f);
            if (trial % 5 == 0) std::fill(g.begin(), g.end(), 0.0f);
            std::vector<float> r_ref(n, 0.0f), r_wire(n, 0.0f);
            const auto q = ps::quantize_gradient(g, bits, &r_ref);
            const ps::WireGradient wire =
                ps::encode_gradient(g.data(), n, bits, r_wire.data());
            EXPECT_EQ(wire.bits, bits);
            EXPECT_EQ(wire.count, n);
            EXPECT_EQ(wire.payload.size(), ps::payload_bytes(n, bits));
            const auto decoded = ps::decode_gradient(wire);
            ASSERT_EQ(decoded.size(), n);
            for (std::size_t k = 0; k < n; ++k) {
                EXPECT_EQ(decoded[k], q[k])
                    << "bits " << bits << " k " << k;
                EXPECT_EQ(r_wire[k], r_ref[k])
                    << "bits " << bits << " k " << k;
            }
        }
    }
}

TEST(PsQuantize, DecodeRejectsCorruptPayload)
{
    ps::WireGradient wire;
    wire.kind = ps::CodecKind::kLinear;
    wire.bits = 8;
    wire.count = 16;
    wire.payload.assign(15, 0); // one byte short
    EXPECT_THROW(ps::decode_gradient(wire), std::runtime_error);
    wire.bits = 5; // kind/bits no longer name a valid tier
    EXPECT_THROW(ps::decode_gradient(wire), std::runtime_error);
}

TEST(PsQuantize, WireBytesCollapseTwentyFoldAtOneBit)
{
    // The acceptance ratio behind bench_cluster_scaling: a dim-512 model
    // on 2 shards pushes >= 20x fewer wire bytes per round at Cs1.
    const std::size_t half = 256;
    const double full = 2.0 * (ps::kWireHeaderBytes +
                               ps::payload_bytes(half, 32));
    const double onebit = 2.0 * (ps::kWireHeaderBytes +
                                 ps::payload_bytes(half, 1));
    EXPECT_GE(full / onebit, 20.0);
}

// =============================================== PsQuantize (sparse)

/// Scatter a decoded sparse gradient into a dense vector of `dim`.
std::vector<float>
scatter(const ps::SparseGradient& g)
{
    std::vector<float> out(g.dim, 0.0f);
    for (std::size_t j = 0; j < g.nnz(); ++j) out[g.index[j]] += g.value[j];
    return out;
}

TEST(PsQuantize, SparseIndexRepsDecodeAlike)
{
    // One logical gradient, three index representations: absolute u32,
    // absolute u16, and delta u8 with zero-valued padding entries where
    // a gap overflows the rep (footnote 6). The wire form normalizes
    // them all to the same gamma gap stream; for the scale-stable tiers
    // (Cs32, Cs8 — padding zeros leave maxabs untouched) the scattered
    // decode is identical.
    const std::vector<float> value = {4.0f, -2.0f, 1.0f, 0.5f};
    const std::vector<std::uint32_t> abs32 = {3, 200, 460, 461};
    const std::vector<std::uint16_t> abs16(abs32.begin(), abs32.end());
    const std::uint32_t dim = 500;

    std::vector<float> delta_value;
    std::vector<std::uint8_t> delta_gap;
    std::uint32_t prev = 0;
    for (std::size_t j = 0; j < abs32.size(); ++j) {
        std::uint32_t gap = abs32[j] - prev;
        while (gap > 255) {
            delta_gap.push_back(255);
            delta_value.push_back(0.0f);
            gap -= 255;
        }
        delta_gap.push_back(static_cast<std::uint8_t>(gap));
        delta_value.push_back(value[j]);
        prev = abs32[j];
    }
    ASSERT_GT(delta_gap.size(), abs32.size()) << "gaps forced padding";

    for (const int bits : {32, 8}) {
        const ps::Codec codec = ps::Codec::from_bits(bits);
        const auto a32 = ps::encode_sparse_gradient(
            ps::GradientView::sparse_view(value.data(), abs32.data(),
                                          value.size(), dim,
                                          simd::sparse::IndexMode::kAbsolute),
            codec, nullptr);
        const auto a16 = ps::encode_sparse_gradient(
            ps::GradientView::sparse_view(value.data(), abs16.data(),
                                          value.size(), dim,
                                          simd::sparse::IndexMode::kAbsolute),
            codec, nullptr);
        const auto d8 = ps::encode_sparse_gradient(
            ps::GradientView::sparse_view(delta_value.data(),
                                          delta_gap.data(),
                                          delta_value.size(), dim,
                                          simd::sparse::IndexMode::kDelta),
            codec, nullptr);
        // Same rep-independent wire form for the absolute views...
        EXPECT_EQ(a32.index_payload, a16.index_payload) << "bits " << bits;
        EXPECT_EQ(a32.payload, a16.payload) << "bits " << bits;
        // ...and the padded delta stream scatters to the same dense
        // gradient (its wire frame carries the extra zero entries).
        EXPECT_EQ(d8.count, delta_value.size());
        testutil::expect_all_eq(
            scatter(ps::decode_sparse_gradient(d8)),
            scatter(ps::decode_sparse_gradient(a32)),
            ("bits " + std::to_string(bits)).c_str());
    }
}

TEST(PsQuantize, SparseResidualInvariantFuzz)
{
    // Error feedback over the nnz entries: the residual the encoder
    // leaves behind is bit-exactly g - q against the decoded values,
    // for every codec tier, entry-aligned with the stored stream.
    rng::Xorshift128Plus rng(515);
    const ps::Codec codecs[] = {ps::Codec::from_bits(32),
                                ps::Codec::from_bits(8),
                                ps::Codec::from_bits(1), ps::Codec::qsgd(4)};
    for (int trial = 0; trial < 40; ++trial) {
        const std::uint32_t dim = 16 + rng() % 2000;
        std::vector<std::uint32_t> index;
        std::uint32_t cursor = rng() % 4;
        while (cursor < dim && index.size() < 400) {
            index.push_back(cursor);
            cursor += 1 + rng() % 11;
        }
        const auto value = fuzz_vector(rng, index.size(), 2.0f);
        std::vector<float> residual(index.size(), 1e9f); // must be overwritten
        const ps::Codec& codec = codecs[trial % 4];
        const auto wire = ps::encode_sparse_gradient(
            ps::GradientView::sparse_view(value.data(), index.data(),
                                          index.size(), dim,
                                          simd::sparse::IndexMode::kAbsolute),
            codec, residual.data(), &rng);
        EXPECT_EQ(wire.count, index.size());
        EXPECT_EQ(wire.dim, dim);
        const ps::SparseGradient q = ps::decode_sparse_gradient(wire);
        ASSERT_EQ(q.index, index) << "trial " << trial;
        for (std::size_t j = 0; j < index.size(); ++j)
            ASSERT_EQ(residual[j], value[j] - q.value[j])
                << codec.name() << " trial " << trial << " j=" << j;
        if (codec.kind == ps::CodecKind::kDense)
            for (const float r : residual) ASSERT_EQ(r, 0.0f);
    }
}

TEST(PsQuantize, SparseEmptyPushEncodesAndDecodes)
{
    // Every worker pushes every round (uniform SSP clocks), so a round
    // that touches nothing on a shard still crosses the wire: nnz 0,
    // dim preserved, empty payloads.
    for (const ps::Codec& codec :
         {ps::Codec::from_bits(32), ps::Codec::from_bits(8),
          ps::Codec::from_bits(1), ps::Codec::qsgd(4)}) {
        const auto view = ps::GradientView::sparse_view<std::uint32_t>(
            nullptr, nullptr, 0, 64, simd::sparse::IndexMode::kAbsolute);
        const auto wire =
            ps::encode_sparse_gradient(view, codec, nullptr);
        EXPECT_TRUE(wire.sparse()) << codec.name();
        EXPECT_EQ(wire.count, 0u) << codec.name();
        EXPECT_EQ(wire.dim, 64u) << codec.name();
        const ps::SparseGradient g = ps::decode_sparse_gradient(wire);
        EXPECT_EQ(g.nnz(), 0u) << codec.name();
        EXPECT_EQ(g.dim, 64u) << codec.name();
    }
}

TEST(PsQuantize, SparseEncodeRejectsMalformedViews)
{
    const float value[2] = {1.0f, 2.0f};
    const ps::Codec codec = ps::Codec::from_bits(8);
    { // a dense view is not a sparse push
        const float g[4] = {1, 2, 3, 4};
        EXPECT_THROW(ps::encode_sparse_gradient(
                         ps::GradientView::dense(g, 4), codec, nullptr),
                     std::runtime_error);
    }
    { // duplicate / non-ascending coordinates
        const std::uint32_t dup[2] = {5, 5};
        EXPECT_THROW(ps::encode_sparse_gradient(
                         ps::GradientView::sparse_view(
                             value, dup, 2, 16,
                             simd::sparse::IndexMode::kAbsolute),
                         codec, nullptr),
                     std::runtime_error);
        const std::uint32_t desc[2] = {9, 3};
        EXPECT_THROW(ps::encode_sparse_gradient(
                         ps::GradientView::sparse_view(
                             value, desc, 2, 16,
                             simd::sparse::IndexMode::kAbsolute),
                         codec, nullptr),
                     std::runtime_error);
    }
    { // coordinate out of the declared span
        const std::uint32_t big[2] = {3, 16};
        EXPECT_THROW(ps::encode_sparse_gradient(
                         ps::GradientView::sparse_view(
                             value, big, 2, 16,
                             simd::sparse::IndexMode::kAbsolute),
                         codec, nullptr),
                     std::runtime_error);
    }
    { // decoding a dense wire gradient as sparse
        float residual[2] = {};
        ps::WireGradient dense =
            ps::encode_gradient(value, 2, 8, residual);
        EXPECT_THROW(ps::decode_sparse_gradient(dense),
                     std::runtime_error);
    }
    { // a truncated index payload
        const std::uint32_t index[2] = {1, 7};
        ps::WireGradient wire = ps::encode_sparse_gradient(
            ps::GradientView::sparse_view(
                value, index, 2, 16, simd::sparse::IndexMode::kAbsolute),
            codec, nullptr);
        wire.index_payload.pop_back();
        EXPECT_THROW(ps::decode_sparse_gradient(wire),
                     std::runtime_error);
    }
}

// ===================================================== PsCommSgd

/// A verbatim replica of the seed's train_comm_sgd (with its embedded
/// quantizer) as it existed before the quantizer moved to ps/quantize:
/// the refactored trainer must reproduce its trajectory bit for bit.
namespace seed_replica {

std::vector<float>
quantize_gradient(const std::vector<float>& g, int bits,
                  std::vector<float>* residual)
{
    const std::size_t n = g.size();
    std::vector<float> q(n);
    if (bits >= 32) {
        q = g;
        if (residual != nullptr)
            for (auto& r : *residual) r = 0.0f;
        return q;
    }

    if (bits == 1) {
        double mag = 0.0;
        for (float v : g) mag += std::fabs(v);
        const float scale =
            n > 0 ? static_cast<float>(mag / static_cast<double>(n)) : 0.0f;
        for (std::size_t k = 0; k < n; ++k)
            q[k] = g[k] >= 0.0f ? scale : -scale;
    } else {
        float maxabs = 0.0f;
        for (float v : g) maxabs = std::max(maxabs, std::fabs(v));
        const float levels = static_cast<float>((1 << (bits - 1)) - 1);
        const float scale = maxabs > 0.0f ? maxabs / levels : 1.0f;
        for (std::size_t k = 0; k < n; ++k)
            q[k] = std::nearbyintf(g[k] / scale) * scale;
    }
    if (residual != nullptr)
        for (std::size_t k = 0; k < n; ++k) (*residual)[k] = g[k] - q[k];
    return q;
}

core::CommSgdResult
train(const dataset::DenseProblem& problem, const core::CommSgdConfig& cfg)
{
    const std::size_t n = problem.dim;
    std::vector<float> model(n, 0.0f);
    std::vector<std::vector<float>> residual(
        cfg.workers, std::vector<float>(n, 0.0f));

    core::CommSgdResult result;
    result.signature = cfg.comm_bits == 32
        ? "Cs32"
        : "Cs" + std::to_string(cfg.comm_bits);
    result.bytes_per_round =
        static_cast<double>(n) * cfg.comm_bits / 8.0 + sizeof(float);

    auto eval = [&] {
        double total = 0.0;
        std::size_t correct = 0;
        for (std::size_t i = 0; i < problem.examples; ++i) {
            float z = 0.0f;
            const float* x = problem.row(i);
            for (std::size_t k = 0; k < n; ++k) z += model[k] * x[k];
            total += loss_value(cfg.loss, z, problem.y[i]);
            if (loss_correct(cfg.loss, z, problem.y[i])) ++correct;
        }
        result.accuracy = static_cast<double>(correct) /
                          static_cast<double>(problem.examples);
        return total / static_cast<double>(problem.examples);
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
                std::fill(gradient.begin(), gradient.end(), 0.0f);
                for (std::size_t b = 0; b < cfg.batch_per_worker; ++b) {
                    const std::size_t i =
                        base + w * cfg.batch_per_worker + b;
                    const float* x = problem.row(i);
                    float z = 0.0f;
                    for (std::size_t k = 0; k < n; ++k)
                        z += model[k] * x[k];
                    const float g = core::loss_gradient_coefficient(
                        cfg.loss, z, problem.y[i]);
                    if (g == 0.0f) continue;
                    for (std::size_t k = 0; k < n; ++k)
                        gradient[k] += g * x[k];
                }
                if (cfg.error_feedback)
                    for (std::size_t k = 0; k < n; ++k)
                        gradient[k] += residual[w][k];
                const auto q = quantize_gradient(
                    gradient, cfg.comm_bits,
                    cfg.error_feedback ? &residual[w] : nullptr);
                for (std::size_t k = 0; k < n; ++k) reduced[k] += q[k];
            }
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

} // namespace seed_replica

const dataset::DenseProblem&
anchor_problem()
{
    static const auto kProblem =
        dataset::generate_logistic_dense(96, 1536, 4242);
    return kProblem;
}

core::CommSgdConfig
anchor_config(int bits)
{
    core::CommSgdConfig cfg;
    cfg.workers = 3;
    cfg.comm_bits = bits;
    cfg.epochs = 6;
    cfg.batch_per_worker = 8;
    cfg.step_size = 0.4f;
    return cfg;
}

TEST(PsCommSgd, EmulationBitIdenticalToSeedReplica)
{
    // The quantizer extraction must be a pure refactor: at every
    // precision (and without feedback) the refactored trainer's loss
    // trace equals the seed's, double for double.
    for (const int bits : {32, 8, 1}) {
        for (const bool feedback : {true, false}) {
            auto cfg = anchor_config(bits);
            cfg.error_feedback = feedback;
            const auto now = core::train_comm_sgd(anchor_problem(), cfg);
            const auto seed = seed_replica::train(anchor_problem(), cfg);
            ASSERT_EQ(now.loss_trace.size(), seed.loss_trace.size());
            for (std::size_t e = 0; e < seed.loss_trace.size(); ++e)
                EXPECT_EQ(now.loss_trace[e], seed.loss_trace[e])
                    << "bits " << bits << " feedback " << feedback
                    << " epoch " << e;
            EXPECT_EQ(now.final_loss, seed.final_loss);
            EXPECT_EQ(now.accuracy, seed.accuracy);
            EXPECT_EQ(now.signature, seed.signature);
            EXPECT_EQ(now.bytes_per_round, seed.bytes_per_round);
        }
    }
}

TEST(PsCommSgd, GoldenTraceAnchor)
{
    // Traces recorded from the seed implementation (Release build).
    // Loose enough (1e-5) to absorb optimization-level FP differences
    // across build presets, tight enough to catch any semantic change.
    const struct
    {
        int bits;
        double accuracy;
        double trace[6];
    } kGolden[] = {
        {32,
         0.83268229166666663,
         {0.42260391796783853, 0.39493114033515059, 0.38538405900574918,
          0.38090271267924436, 0.37843120579907463, 0.3769196434028288}},
        {8,
         0.83268229166666663,
         {0.42261191553552635, 0.39492788603979534, 0.38538291469975167,
          0.38090198186654334, 0.3784314225536794, 0.37692018077291323}},
        {1,
         0.83333333333333337,
         {0.42278591115731007, 0.39529797529553434, 0.38580643069838061,
          0.38122558256198619, 0.37864024331266438, 0.37699530383359087}},
    };
    for (const auto& golden : kGolden) {
        const auto r = core::train_comm_sgd(anchor_problem(),
                                            anchor_config(golden.bits));
        ASSERT_EQ(r.loss_trace.size(), 6u) << "bits " << golden.bits;
        for (std::size_t e = 0; e < 6; ++e)
            EXPECT_NEAR(r.loss_trace[e], golden.trace[e], 1e-5)
                << "bits " << golden.bits << " epoch " << e;
        EXPECT_NEAR(r.accuracy, golden.accuracy, 5e-3);
    }
}

// ===================================================== PsTransport

TEST(PsTransport, DeliversFifoWithoutFaults)
{
    ps::InProcTransport transport(2);
    for (std::uint64_t c = 1; c <= 5; ++c) {
        ps::Message m;
        m.clock = c;
        transport.send(0, std::move(m));
    }
    ps::Message out;
    for (std::uint64_t c = 1; c <= 5; ++c) {
        ASSERT_TRUE(
            transport.recv(0, out, std::chrono::microseconds(1000)));
        EXPECT_EQ(out.clock, c);
    }
    EXPECT_EQ(transport.sent(), 5u);
    EXPECT_EQ(transport.dropped(), 0u);
    // Timeout with nothing queued.
    EXPECT_FALSE(transport.recv(0, out, std::chrono::microseconds(100)));
}

TEST(PsTransport, ClosedMailboxDrainsBacklogThenFails)
{
    ps::InProcTransport transport(1);
    for (std::uint64_t c = 1; c <= 3; ++c) {
        ps::Message m;
        m.clock = c;
        transport.send(0, std::move(m));
    }
    transport.close();
    ps::Message out;
    for (int k = 0; k < 3; ++k)
        EXPECT_TRUE(
            transport.recv(0, out, std::chrono::microseconds(1000)));
    EXPECT_FALSE(transport.recv(0, out, std::chrono::microseconds(1000)));
    EXPECT_TRUE(transport.closed());
}

TEST(PsTransport, ReorderWindowDeliversEverythingOnce)
{
    ps::FaultModel faults;
    faults.reorder_window = 4;
    ps::InProcTransport transport(1, faults);
    const std::uint64_t count = 32;
    for (std::uint64_t c = 1; c <= count; ++c) {
        ps::Message m;
        m.clock = c;
        transport.send(0, std::move(m));
    }
    std::vector<std::uint64_t> received;
    ps::Message out;
    while (transport.recv(0, out, std::chrono::microseconds(100)))
        received.push_back(out.clock);
    ASSERT_EQ(received.size(), count);
    // Exactly-once delivery of every message...
    auto sorted = received;
    std::sort(sorted.begin(), sorted.end());
    for (std::uint64_t c = 1; c <= count; ++c)
        EXPECT_EQ(sorted[c - 1], c);
    // ...but not in order (the window shuffles; deterministic per seed).
    EXPECT_FALSE(std::is_sorted(received.begin(), received.end()));
}

TEST(PsTransport, RpcRetriesThroughDrops)
{
    ps::FaultModel faults;
    faults.drop_prob = 0.25;
    faults.seed = 99;
    ps::InProcTransport transport(2, faults);

    // An echo peer at endpoint 0: every request is acked with its token.
    WorkerGroup echo;
    echo.start(1, [&](std::size_t) {
        ps::Message m;
        for (;;) {
            if (!transport.recv(0, m, std::chrono::microseconds(500))) {
                if (transport.closed()) return;
                continue;
            }
            ps::Message reply;
            reply.kind = ps::Message::Kind::kAck;
            reply.token = m.token;
            reply.clock = m.clock;
            transport.send(m.sender, std::move(reply));
        }
    });

    ps::RpcClient rpc(transport, 1);
    for (std::uint64_t c = 1; c <= 50; ++c) {
        ps::Message request;
        request.clock = c;
        const ps::Message reply = rpc.call(0, std::move(request));
        EXPECT_EQ(reply.clock, c); // the reply to THIS call, not a stale one
    }
    transport.close();
    echo.join();
    // A quarter of the traffic vanished; the protocol recovered all of it.
    EXPECT_GT(transport.dropped(), 0u);
    EXPECT_GT(rpc.retries(), 0u);
}

TEST(PsTransport, RejectsBadConfig)
{
    EXPECT_THROW(ps::InProcTransport(0), std::runtime_error);
    ps::FaultModel faults;
    faults.drop_prob = 1.0;
    EXPECT_THROW(ps::InProcTransport(1, faults), std::runtime_error);
}

TEST(PsTransport, WireBytesCountArraysOnEveryKind)
{
    // A slice costs the same bytes whichever message carries it: moving
    // it from a kModel reply into an ack must not shrink sent_bytes().
    ps::Message model;
    model.kind = ps::Message::Kind::kModel;
    model.weights.assign(8, 1.0f);
    ps::Message ack = model;
    ack.kind = ps::Message::Kind::kAck;
    EXPECT_EQ(ack.wire_bytes(), ps::kWireHeaderBytes + 8 * sizeof(float));
    EXPECT_EQ(ack.wire_bytes(), model.wire_bytes());
    ps::Message stats;
    stats.kind = ps::Message::Kind::kStats;
    stats.stats.assign(3, 0.0);
    EXPECT_EQ(stats.wire_bytes(), ps::kWireHeaderBytes + 3 * sizeof(double));
    ps::Message bare;
    bare.kind = ps::Message::Kind::kAck;
    EXPECT_EQ(bare.wire_bytes(), ps::kWireHeaderBytes);
}

// ===================================================== PsShard

/// A shard on its own thread plus an RpcClient talking to it.
struct ShardHarness
{
    ps::InProcTransport transport;
    ps::ServerShard shard;
    WorkerGroup thread;
    ps::RpcClient rpc;

    ShardHarness(std::size_t dim, const ps::ShardConfig& cfg)
        : transport(2 + cfg.workers), shard(0, 0, dim, cfg, transport),
          rpc(transport, 1)
    {
        thread.start(1, [this](std::size_t) { shard.run(); });
    }

    ~ShardHarness()
    {
        transport.close();
        thread.join();
    }

    ps::Message
    push(std::uint32_t worker, std::uint64_t clock,
         const std::vector<float>& gradient, int bits = 32)
    {
        ps::Message m;
        m.kind = ps::Message::Kind::kPush;
        m.worker = worker;
        m.clock = clock;
        m.gradient =
            ps::encode_gradient(gradient.data(), gradient.size(), bits,
                                nullptr);
        return rpc.call(0, std::move(m));
    }

    std::vector<float>
    pull()
    {
        ps::Message m;
        m.kind = ps::Message::Kind::kPull;
        return rpc.call(0, std::move(m)).weights;
    }

    void
    retire(std::uint32_t worker)
    {
        ps::Message m;
        m.kind = ps::Message::Kind::kRetire;
        m.worker = worker;
        rpc.call(0, std::move(m));
    }
};

ps::ShardConfig
shard_config(std::size_t workers, std::size_t tau)
{
    ps::ShardConfig cfg;
    cfg.workers = workers;
    cfg.tau = tau;
    cfg.step_size = 0.5f;
    cfg.batch = 1;
    return cfg;
}

TEST(PsShard, AppliesPushesAndServesPulls)
{
    ShardHarness h(4, shard_config(1, 16));
    const std::vector<float> g = {1.0f, -2.0f, 0.5f, 4.0f};
    const ps::Message ack = h.push(0, 1, g);
    EXPECT_TRUE(ack.accepted);
    EXPECT_EQ(ack.version, 1u);
    const auto w = h.pull();
    ASSERT_EQ(w.size(), 4u);
    // One push at eta 0.5, batch 1: w = -0.5 * g.
    for (std::size_t k = 0; k < 4; ++k)
        EXPECT_FLOAT_EQ(w[k], -0.5f * g[k]);
    EXPECT_EQ(h.shard.version(), 1u);
}

TEST(PsShard, DeduplicatesRetransmittedPush)
{
    ShardHarness h(4, shard_config(1, 16));
    const std::vector<float> g = {2.0f, 2.0f, 2.0f, 2.0f};
    EXPECT_TRUE(h.push(0, 1, g).accepted);
    // The same clock again — as after a lost ack. Must be acked
    // positively but NOT applied a second time.
    const ps::Message ack = h.push(0, 1, g);
    EXPECT_TRUE(ack.accepted);
    const auto w = h.pull();
    for (std::size_t k = 0; k < 4; ++k)
        EXPECT_FLOAT_EQ(w[k], -1.0f * 1.0f); // one application of -0.5*2
    h.transport.close();
    h.thread.join();
    EXPECT_EQ(h.shard.metrics().pushes, 1u);
    // At least the deliberate resend; RpcClient retransmits on a 200us
    // in-proc timer, so a descheduled shard thread (sanitizer runs)
    // legitimately mints extra duplicates. Exactly-once is the pushes
    // count above, not the duplicate tally.
    EXPECT_GE(h.shard.metrics().duplicates, 1u);
}

TEST(PsShard, AppliedAckCarriesThePostApplySlice)
{
    // The ack of an applied push stands in for the worker's next pull:
    // it carries the slice as it stands after the apply. A duplicate ack
    // and an SSP nack carry none, so retransmissions cost what they did.
    ShardHarness h(2, shard_config(2, 0));
    const std::vector<float> g = {1.0f, -2.0f};
    const ps::Message applied = h.push(0, 1, g);
    ASSERT_TRUE(applied.accepted);
    EXPECT_EQ(applied.weights, (std::vector<float>{-0.5f, 1.0f}));
    EXPECT_EQ(applied.weights, h.pull());
    const ps::Message duplicate = h.push(0, 1, g);
    EXPECT_TRUE(duplicate.accepted);
    EXPECT_TRUE(duplicate.weights.empty());
    const ps::Message gated = h.push(0, 2, g); // worker 1 is at clock 0
    EXPECT_FALSE(gated.accepted);
    EXPECT_TRUE(gated.weights.empty());
    h.transport.close();
    h.thread.join();
    // pull_bytes counts every slice shipped — the pull replies and the
    // one applied ack — while pulls counts kPull requests only.
    const ps::ShardMetrics& m = h.shard.metrics();
    EXPECT_GE(m.pulls, 1u);
    EXPECT_EQ(m.pull_bytes,
              (m.pulls + 1) * (ps::kWireHeaderBytes + 2 * sizeof(float)));
}

TEST(PsShard, GatesRunawayWorkerUntilPeersCatchUp)
{
    // tau = 0: no worker may be ahead of the slowest live worker at all.
    ShardHarness h(2, shard_config(2, 0));
    const std::vector<float> g = {1.0f, 1.0f};
    EXPECT_TRUE(h.push(0, 1, g).accepted);
    // Worker 0 is now 1 round ahead of worker 1 -> its next push bounces.
    EXPECT_FALSE(h.push(0, 2, g).accepted);
    // Worker 1 catches up; the gate opens for worker 0.
    EXPECT_TRUE(h.push(1, 1, g).accepted);
    EXPECT_TRUE(h.push(0, 2, g).accepted);
    h.transport.close();
    h.thread.join();
    // >= 1, not == 1: a nacked push is not dedup-tracked, so an RPC
    // timeout under load may replay it and legitimately gate it twice.
    EXPECT_GE(h.shard.metrics().gated, 1u);
    EXPECT_EQ(h.shard.metrics().pushes, 3u);
}

TEST(PsShard, RetiredWorkerLeavesTheGate)
{
    ShardHarness h(2, shard_config(2, 0));
    const std::vector<float> g = {1.0f, 1.0f};
    EXPECT_TRUE(h.push(0, 1, g).accepted);
    EXPECT_FALSE(h.push(0, 2, g).accepted);
    // Worker 1 finishes without ever pushing; worker 0 must not be
    // wedged against its clock forever.
    h.retire(1);
    EXPECT_TRUE(h.push(0, 2, g).accepted);
    EXPECT_TRUE(h.push(0, 3, g).accepted);
}

TEST(PsShard, AppliesSparsePushGatherScatter)
{
    ShardHarness h(8, shard_config(1, 16));
    const float value[2] = {2.0f, 4.0f};
    const std::uint32_t index[2] = {1, 6};
    ps::Message m;
    m.kind = ps::Message::Kind::kPush;
    m.worker = 0;
    m.clock = 1;
    m.gradient = ps::encode_sparse_gradient(
        ps::GradientView::sparse_view(value, index, 2, 8,
                                      simd::sparse::IndexMode::kAbsolute),
        ps::Codec::from_bits(32), nullptr);
    const ps::Message ack = h.rpc.call(0, std::move(m));
    EXPECT_TRUE(ack.accepted);

    // Only the pushed coordinates moved: w[k] = -eta * g[k] / batch.
    const auto w = h.pull();
    ASSERT_EQ(w.size(), 8u);
    for (std::size_t k = 0; k < 8; ++k) {
        if (k == 1)
            EXPECT_FLOAT_EQ(w[k], -0.5f * 2.0f);
        else if (k == 6)
            EXPECT_FLOAT_EQ(w[k], -0.5f * 4.0f);
        else
            EXPECT_EQ(w[k], 0.0f) << k;
    }
    h.transport.close();
    h.thread.join();
    EXPECT_EQ(h.shard.metrics().sparse_nnz, 2u);
    EXPECT_GT(h.shard.metrics().sparse_bytes, 0u);
    // Numbers processed counts the nnz actually applied, not the dim.
    EXPECT_DOUBLE_EQ(h.shard.metrics().numbers, 2.0);
}

TEST(PsShard, CountsStalenessHistogram)
{
    ShardHarness h(2, shard_config(2, 8));
    const std::vector<float> g = {1.0f, 1.0f};
    // Worker 0 runs 3 rounds ahead while worker 1 sits at clock 0:
    // leads 0, 1, 2 land in the histogram.
    for (std::uint64_t c = 1; c <= 3; ++c)
        EXPECT_TRUE(h.push(0, c, g).accepted);
    h.transport.close();
    h.thread.join();
    const auto& m = h.shard.metrics();
    EXPECT_EQ(m.max_staleness(), 2u);
    ASSERT_GE(m.staleness_counts.size(), 3u);
    EXPECT_EQ(m.staleness_counts[0], 1u);
    EXPECT_EQ(m.staleness_counts[1], 1u);
    EXPECT_EQ(m.staleness_counts[2], 1u);
}

// ===================================================== PsCluster

// The problem itself lives in test_common.h (testutil::cluster_problem)
// so other suites can train on the same canonical instance.
using testutil::cluster_problem;

ps::ClusterConfig
cluster_config(int bits)
{
    ps::ClusterConfig cfg;
    cfg.workers = 2;
    cfg.shards = 2;
    cfg.codec = ps::Codec::from_bits(bits);
    cfg.rounds = 250;
    cfg.batch = 16;
    cfg.tau = 8;
    cfg.step_size = 0.25f;
    return cfg;
}

TEST(PsCluster, FullPrecisionConverges)
{
    const auto r = ps::train_cluster(cluster_problem(), cluster_config(32));
    EXPECT_EQ(r.comm, "Cs32");
    EXPECT_LT(r.final_loss, 0.5);
    EXPECT_GT(r.accuracy, 0.78);
    EXPECT_EQ(r.rounds, 500u);
    EXPECT_EQ(r.metrics.total_pushes(), 1000u); // 2 shards x 500 rounds
    // 2 shards x (16B header + 32 floats).
    EXPECT_DOUBLE_EQ(r.bytes_per_round, 2.0 * (16 + 32 * 4));
    EXPECT_GT(r.metrics.worker_seconds, 0.0);
    EXPECT_GT(r.metrics.gnps(), 0.0);
}

TEST(PsCluster, OneBitTracksFullPrecisionAtFractionOfBytes)
{
    const auto full =
        ps::train_cluster(cluster_problem(), cluster_config(32));
    const auto onebit =
        ps::train_cluster(cluster_problem(), cluster_config(1));
    EXPECT_EQ(onebit.comm, "Cs1");
    EXPECT_NEAR(onebit.accuracy, full.accuracy, 0.03);
    EXPECT_LT(onebit.final_loss, full.final_loss + 0.05);
    EXPECT_LT(onebit.bytes_per_round, full.bytes_per_round / 5.0);
    EXPECT_LT(onebit.metrics.total_push_bytes(),
              full.metrics.total_push_bytes() / 5);
}

TEST(PsCluster, DimFiveTwelveMeetsTwentyFoldByteReduction)
{
    // The acceptance configuration: at dim 512 on 2 shards the Cs1 wire
    // traffic per round is >= 20x under Cs32 (bench_cluster_scaling
    // reports the same numbers over full-length runs).
    const auto problem = dataset::generate_logistic_dense(512, 512, 5);
    auto cfg = cluster_config(32);
    cfg.rounds = 20;
    const auto full = ps::train_cluster(problem, cfg);
    cfg.codec = ps::Codec::from_bits(1);
    const auto onebit = ps::train_cluster(problem, cfg);
    EXPECT_DOUBLE_EQ(full.bytes_per_round, 2080.0);
    EXPECT_DOUBLE_EQ(onebit.bytes_per_round, 96.0);
    EXPECT_GE(full.bytes_per_round / onebit.bytes_per_round, 20.0);
}

TEST(PsCluster, SurvivesFaultInjection)
{
    auto cfg = cluster_config(1);
    cfg.rounds = 150;
    cfg.tau = 6;
    cfg.faults.drop_prob = 0.05;
    cfg.faults.jitter_us = 5;
    cfg.faults.reorder_window = 3;
    const auto r = ps::train_cluster(cluster_problem(), cfg);
    // The fabric really misbehaved...
    EXPECT_GT(r.metrics.messages_dropped, 0u);
    EXPECT_GT(r.metrics.rpc_retries, 0u);
    // ...and the protocol still applied every round exactly once,
    // within the staleness bound, and converged.
    EXPECT_EQ(r.metrics.total_pushes(), 2u * 2u * 150u);
    EXPECT_LE(r.metrics.max_staleness(), 6u);
    EXPECT_GT(r.accuracy, 0.75);
}

TEST(PsCluster, StalenessStaysWithinTau)
{
    auto cfg = cluster_config(32);
    cfg.workers = 4;
    cfg.rounds = 120;
    cfg.tau = 2;
    const auto r = ps::train_cluster(cluster_problem(), cfg);
    EXPECT_LE(r.metrics.max_staleness(), 2u);
    const auto histogram = r.metrics.staleness_histogram();
    std::uint64_t total = 0;
    for (const auto count : histogram) total += count;
    EXPECT_EQ(total, r.metrics.total_pushes());
}

TEST(PsCluster, CheckpointCarriesAsyncProvenance)
{
    auto cfg = cluster_config(1);
    cfg.rounds = 30;
    const auto r = ps::train_cluster(cluster_problem(), cfg);
    // Asynchronous explicit communication at 1 bit: "C1", not "Cs1".
    EXPECT_EQ(r.checkpoint.signature.to_string(), "C1");
    EXPECT_EQ(r.checkpoint.weights.size(), cluster_problem().dim);
    cfg.codec = ps::Codec::from_bits(32);
    const auto full = ps::train_cluster(cluster_problem(), cfg);
    EXPECT_EQ(full.checkpoint.signature.to_string(), "C32f");
}

TEST(PsCluster, ReferenceTierScoresWithReferenceDot)
{
    // A cluster at `impl reference` is reference end to end: its final
    // loss and accuracy are core::evaluate over the reference tier's
    // dense dot, whatever tier the host would pick.
    auto cfg = cluster_config(32);
    cfg.rounds = 40;
    cfg.impl = simd::Impl::kReference;
    const auto& problem = cluster_problem();
    const auto r = ps::train_cluster(problem, cfg);
    const std::vector<float>& w = r.checkpoint.weights;
    const core::Evaluation want =
        core::evaluate(cfg.loss, problem.y, [&](std::size_t i) {
            return simd::DenseOps<float, float>::dot(
                simd::Impl::kReference, problem.row(i), w.data(),
                problem.dim, 1.0f, 1.0f);
        });
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.final_loss),
              std::bit_cast<std::uint64_t>(want.loss));
    EXPECT_EQ(r.accuracy, want.accuracy);
}

TEST(PsCluster, DeterministicReplayRepeatsMetricCounters)
{
    // The deterministic-replay contract behind --metrics-out: with fault
    // injection off, two runs of the same fixed-seed emulation must
    // report identical values for every counter whose semantics are
    // exactly-once. The asynchronous schedule itself is NOT replayed —
    // thread interleaving varies run to run — so counters that observe
    // the schedule rather than the protocol are legitimately
    // nondeterministic and deliberately not asserted:
    //   - gated and the staleness histogram (which worker ran ahead);
    //   - rpc_retries, duplicates, pulls, messages_sent, wire_bytes_sent
    //     (the RPC layer retransmits on a ~200us timeout, so a scheduler
    //     stall adds retries, duplicate pushes, and extra pulls — and
    //     every gate bounce costs an extra push/nack exchange);
    //   - worker_seconds / wall_seconds / gnps (wall-clock);
    //   - final_loss, accuracy, checkpoint weights (floating-point sums
    //     applied in a schedule-dependent order — the Hogwild point).
    auto cfg = cluster_config(8);
    cfg.rounds = 120;
    const auto a = ps::train_cluster(cluster_problem(), cfg);
    const auto b = ps::train_cluster(cluster_problem(), cfg);

    // Run identity.
    EXPECT_EQ(a.comm, b.comm);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.checkpoint.signature.to_string(),
              b.checkpoint.signature.to_string());
    EXPECT_EQ(a.checkpoint.weights.size(), b.checkpoint.weights.size());

    // Exactly-once counters replay bit-identically...
    EXPECT_EQ(a.metrics.total_pushes(), b.metrics.total_pushes());
    EXPECT_EQ(a.metrics.total_push_bytes(), b.metrics.total_push_bytes());
    EXPECT_DOUBLE_EQ(a.bytes_per_round, b.bytes_per_round);
    EXPECT_DOUBLE_EQ(a.metrics.numbers, b.metrics.numbers);
    EXPECT_EQ(a.metrics.messages_dropped, 0u);
    EXPECT_EQ(b.metrics.messages_dropped, 0u);

    // ...and to the closed forms the protocol guarantees: every worker
    // round is applied exactly once on every shard no matter how many
    // retransmissions or gate bounces it took to get there.
    EXPECT_EQ(a.metrics.total_pushes(),
              cfg.workers * cfg.shards * cfg.rounds);
    EXPECT_DOUBLE_EQ(a.metrics.numbers,
                     static_cast<double>(cfg.workers * cfg.rounds *
                                         cfg.batch *
                                         cluster_problem().dim));

    // When neither run happened to retransmit or bounce off the
    // staleness gate, the fabric totals are deterministic too (each
    // retry or bounce adds messages and possibly a duplicate push or
    // repeated pull).
    if (a.metrics.rpc_retries == 0 && b.metrics.rpc_retries == 0 &&
        a.metrics.total_gated() == 0 && b.metrics.total_gated() == 0) {
        EXPECT_EQ(a.metrics.messages_sent, b.metrics.messages_sent);
        EXPECT_EQ(a.metrics.wire_bytes_sent, b.metrics.wire_bytes_sent);
        EXPECT_EQ(a.metrics.total_pull_bytes(),
                  b.metrics.total_pull_bytes());
    }

    // Published through the obs bridge, the replayable counters land in
    // two registries with identical exported values.
    obs::MetricsRegistry reg_a, reg_b;
    a.metrics.publish(reg_a, "ps.");
    b.metrics.publish(reg_b, "ps.");
    const auto snap_a = reg_a.snapshot();
    const auto snap_b = reg_b.snapshot();
    for (const char* name : {"ps.pushes_applied", "ps.push_bytes",
                             "ps.messages_dropped"})
        EXPECT_EQ(snap_a.counters.at(name), snap_b.counters.at(name))
            << name;
    EXPECT_DOUBLE_EQ(snap_a.gauges.at("ps.numbers"),
                     snap_b.gauges.at("ps.numbers"));
}

TEST(PsCluster, WorkerRejectsPullReplyThatDoesNotMatchItsSlice)
{
    // A fake shard answers every pull with one weight too many (a shard
    // process started on a wider problem), or with the right width under
    // the wrong kind, or answers pulls well but acks a push with a slice
    // one weight too wide. The worker must stop and name the shard
    // instead of copying the reply past the end of its model replica.
    const auto& problem = cluster_problem();
    ps::ClusterConfig cfg = cluster_config(32);
    cfg.shards = 1;
    cfg.workers = 1;
    struct BadReply
    {
        ps::Message::Kind pull_kind;
        std::size_t pull_weights;
        std::size_t ack_weights; ///< slice on the ack of every push
    };
    for (const BadReply bad :
         {BadReply{ps::Message::Kind::kModel, problem.dim + 1, 0},
          BadReply{ps::Message::Kind::kAck, problem.dim, 0},
          BadReply{ps::Message::Kind::kModel, problem.dim,
                   problem.dim + 1}}) {
        ps::InProcTransport transport(ps::cluster_endpoints(cfg));
        std::thread fake_shard([&] {
            ps::Message request;
            while (transport.recv(0, request,
                                  std::chrono::milliseconds(5000))) {
                const bool pull = request.kind == ps::Message::Kind::kPull;
                ps::Message reply;
                reply.kind = pull ? bad.pull_kind : ps::Message::Kind::kAck;
                reply.token = request.token;
                reply.accepted = true;
                reply.weights.assign(
                    pull ? bad.pull_weights : bad.ack_weights, 0.0f);
                transport.send(request.sender, std::move(reply));
            }
        });
        try {
            ps::run_worker_rounds(cfg, problem, 0, transport, nullptr);
            ADD_FAILURE() << "worker accepted a mismatched slice";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("shard 0"),
                      std::string::npos)
                << e.what();
        }
        transport.close();
        fake_shard.join();
    }
}

TEST(PsCluster, WorkerPullsOnlyInItsFirstRound)
{
    // One worker, no faults, real shards: round one pulls each shard, and
    // every later round computes on the slices its push acks carried. A
    // shard serves another kPull only after an RPC retry (a retransmitted
    // pull, or a pull after an ack that came back without its slice).
    const auto& problem = cluster_problem();
    ps::ClusterConfig cfg = cluster_config(8);
    cfg.workers = 1;
    cfg.rounds = 100;
    ps::PsConfig ps_cfg;
    ps_cfg.shards = cfg.shards;
    ps_cfg.workers = cfg.workers;
    ps_cfg.tau = cfg.tau;
    ps_cfg.step_size = cfg.step_size;
    ps_cfg.batch = cfg.batch;
    ps_cfg.codec = cfg.codec;
    ps::ParameterServer server(problem.dim, ps_cfg);
    server.start();
    const ps::WorkerStats stats = ps::run_worker_rounds(
        cfg, problem, 0, server.transport(), nullptr);
    server.stop();
    const ps::PsMetrics metrics = server.metrics();
    ASSERT_EQ(metrics.shards.size(), cfg.shards);
    for (std::size_t s = 0; s < cfg.shards; ++s) {
        const ps::ShardMetrics& shard = metrics.shards[s];
        EXPECT_EQ(shard.pushes, cfg.rounds) << "shard " << s;
        EXPECT_GE(shard.pulls, 1u) << "shard " << s;
        EXPECT_LE(shard.pulls, 1 + stats.retries) << "shard " << s;
        // Every pull reply and every applied ack shipped the slice once.
        const std::size_t width = ps::slice_end(problem.dim, cfg.shards, s) -
                                  ps::slice_begin(problem.dim, cfg.shards, s);
        EXPECT_EQ(shard.pull_bytes,
                  (shard.pulls + shard.pushes) *
                      (ps::kWireHeaderBytes + width * sizeof(float)))
            << "shard " << s;
    }
}

// ======================================================= PsWorker

// Every feature is 0 or a signed power of two in [2^-2, 2^1]
// (testutil::power_of_two_feature), so each product the worker forms is
// exact and its pushes are the same bytes whether or not the compiler
// fuses products into FMAs.

/// Runs one worker for `cfg.rounds` rounds at kernel tier `cfg.impl`
/// against two fake shards on an InProcTransport and returns every push
/// it made, shard by shard in clock order. Each fake shard records a
/// push once per clock (a retransmission is only acked) and answers a
/// pull with -2^-4 times the sum of the pushes it has recorded, decoded:
/// the worker trains, and a retransmitted pull gets the same answer.
/// With `slices_in_acks` the ack of a recorded push carries that same
/// slice, as a real shard's does; without, the worker falls back to a
/// pull every round. A fake shard's answer depends only on its own
/// recorded pushes, so both modes must give the same pushes.
template <typename Problem>
std::vector<std::vector<ps::Message>>
worker_pushes(const Problem& problem, ps::ClusterConfig cfg,
              bool slices_in_acks)
{
    cfg.workers = 1;
    cfg.shards = 2;
    ps::InProcTransport transport(ps::cluster_endpoints(cfg));
    std::vector<std::vector<ps::Message>> pushes(cfg.shards);
    std::vector<std::uint64_t> pulls(cfg.shards, 0);
    WorkerGroup shards;
    shards.start(cfg.shards, [&](std::size_t s) {
        std::vector<float> weights(
            ps::slice_end(problem.dim, cfg.shards, s) -
                ps::slice_begin(problem.dim, cfg.shards, s),
            0.0f);
        ps::Message request;
        while (transport.recv(s, request, std::chrono::milliseconds(5000))) {
            ps::Message reply;
            reply.kind = ps::Message::Kind::kAck;
            reply.token = request.token;
            reply.accepted = true;
            if (request.kind == ps::Message::Kind::kPull) {
                ++pulls[s];
                reply.kind = ps::Message::Kind::kModel;
                reply.weights = weights;
            } else if (request.kind == ps::Message::Kind::kPush &&
                       request.clock == pushes[s].size() + 1) {
                // Token and sender vary with retransmission; the push's
                // identity is (worker, clock, gradient).
                ps::Message push;
                push.kind = request.kind;
                push.worker = request.worker;
                push.clock = request.clock;
                push.gradient = request.gradient;
                if (push.gradient.sparse()) {
                    const ps::SparseGradient g =
                        ps::decode_sparse_gradient(push.gradient);
                    for (std::size_t j = 0; j < g.nnz(); ++j)
                        weights[g.index[j]] -= 0x1p-4f * g.value[j];
                } else {
                    const std::vector<float> g =
                        ps::decode_gradient(push.gradient);
                    for (std::size_t k = 0; k < g.size(); ++k)
                        weights[k] -= 0x1p-4f * g[k];
                }
                pushes[s].push_back(std::move(push));
                if (slices_in_acks) reply.weights = weights;
            }
            transport.send(request.sender, std::move(reply));
        }
    });
    const ps::WorkerStats stats =
        ps::run_worker_rounds(cfg, problem, 0, transport, nullptr);
    transport.close();
    shards.join();

    // Proof that each mode ran the path it names.
    for (const std::uint64_t served : pulls) {
        if (slices_in_acks)
            EXPECT_LE(served, 1 + stats.retries);
        else
            EXPECT_GE(served, cfg.rounds);
    }
    for (const auto& shard : pushes) EXPECT_EQ(shard.size(), cfg.rounds);
    return pushes;
}

/// The FNV-1a 64 hash of the bytes of every push worker_pushes() makes
/// at the reference tier, shard 0's in clock order, then shard 1's.
template <typename Problem>
std::uint64_t
worker_push_hash(const Problem& problem, ps::ClusterConfig cfg,
                 bool slices_in_acks)
{
    cfg.impl = simd::Impl::kReference;
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const auto& shard : worker_pushes(problem, cfg, slices_in_acks))
        for (const ps::Message& push : shard)
            for (const std::uint8_t b : ps::serialize_message(push))
                hash = (hash ^ b) * 0x100000001b3ull;
    return hash;
}

ps::ClusterConfig
golden_worker_config(const ps::Codec& codec)
{
    ps::ClusterConfig cfg;
    cfg.codec = codec;
    cfg.error_feedback = true;
    cfg.rounds = 16;
    cfg.batch = 4;
    return cfg;
}

TEST(PsWorker, DensePushesMatchGoldens)
{
    // A change to the round loop that moves these bytes changes what
    // workers train on: these goldens fail by design, bump them
    // consciously. Slices from acks and slices from pulls are the same
    // slices, so both give the same bytes.
    const auto problem = testutil::power_of_two_dense_problem(40, 48, 0xD0);
    for (const bool slices_in_acks : {true, false}) {
        SCOPED_TRACE(slices_in_acks ? "slices in acks" : "pull fallback");
        EXPECT_EQ(worker_push_hash(problem,
                                   golden_worker_config(
                                       ps::Codec::from_bits(32)),
                                   slices_in_acks),
                  0xedd97384f577b4eeull);
        EXPECT_EQ(worker_push_hash(problem,
                                   golden_worker_config(
                                       ps::Codec::from_bits(8)),
                                   slices_in_acks),
                  0x5d6b85af5244f51full);
        EXPECT_EQ(worker_push_hash(problem,
                                   golden_worker_config(ps::Codec::qsgd(4)),
                                   slices_in_acks),
                  0xa8cbcaa283d2c750ull);
    }
}

TEST(PsWorker, DenseRowKindRunsTheClusterTier)
{
    // A dense row's margin and gradient add are the registered
    // DenseOps<float, float> kernels of the tier the cluster names, bit
    // for bit. Uniform (not power-of-two) features make each tier's
    // summation order and FMA use visible.
    const auto problem = dataset::generate_logistic_dense(1000, 3, 0xD1);
    rng::Xorshift128Plus rng(0xD2);
    const std::vector<float> w = fuzz_vector(rng, problem.dim, 0.5f);
    const float g[] = {0.75f, -0.3f, 1.1f};
    for (const simd::Impl impl : simd::kAllImpls) {
        if (!simd::impl_supported(impl)) continue;
        SCOPED_TRACE(simd::to_string(impl));
        auto gradient = ps::detail::accumulator_for(problem, false, impl);
        std::vector<float> want(problem.dim, 0.0f);
        gradient.begin_minibatch();
        for (std::size_t i = 0; i < problem.examples; ++i) {
            const auto x = ps::detail::row(problem, i);
            const float margin = ps::detail::row_dot(impl, x, w.data());
            const float kernel = simd::DenseOps<float, float>::dot(
                impl, x.data(), w.data(), x.size(), 1.0f, 1.0f);
            EXPECT_EQ(std::bit_cast<std::uint32_t>(margin),
                      std::bit_cast<std::uint32_t>(kernel))
                << "row " << i;
            gradient.add(g[i], x);
            simd::DenseOps<float, float>::axpy(impl, want.data(), x.data(),
                                               x.size(), g[i], 1.0f, 1.0f,
                                               simd::biased_unit());
        }
        gradient.add_residual();
        gradient.begin_pushes();
        const std::vector<float> got = ps::decode_gradient(gradient.encode(
            0, problem.dim, ps::Codec::from_bits(32), nullptr));
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0);
    }
}

TEST(PsWorker, DensePushesAtEveryTierTrackTheReference)
{
    // The golden harness run at every tier this host supports: the
    // tiers sum in different orders, so their pushes may differ in the
    // last bits, but every decoded push stays within the kernel
    // comparator's float-model AXPY tolerance (1e-5 per element) of the
    // reference tier's.
    const auto problem = testutil::power_of_two_dense_problem(40, 48, 0xD0);
    for (const ps::Codec codec : {ps::Codec::from_bits(32),
                                  ps::Codec::from_bits(8),
                                  ps::Codec::qsgd(4)}) {
        ps::ClusterConfig cfg = golden_worker_config(codec);
        cfg.impl = simd::Impl::kReference;
        const auto reference = worker_pushes(problem, cfg, true);
        for (const simd::Impl impl : simd::kAllImpls) {
            if (impl == simd::Impl::kReference ||
                !simd::impl_supported(impl))
                continue;
            SCOPED_TRACE(codec.name() + " at " + simd::to_string(impl));
            cfg.impl = impl;
            const auto pushes = worker_pushes(problem, cfg, true);
            ASSERT_EQ(pushes.size(), reference.size());
            for (std::size_t s = 0; s < pushes.size(); ++s) {
                ASSERT_EQ(pushes[s].size(), reference[s].size());
                for (std::size_t r = 0; r < pushes[s].size(); ++r) {
                    SCOPED_TRACE("shard " + std::to_string(s) +
                                 " clock " + std::to_string(r + 1));
                    testutil::expect_all_near(
                        ps::decode_gradient(pushes[s][r].gradient),
                        ps::decode_gradient(reference[s][r].gradient),
                        1e-5, "push");
                }
            }
        }
    }
}

TEST(PsWorker, SparsePushesMatchGoldens)
{
    const auto problem =
        testutil::power_of_two_sparse_problem(96, 48, 0x5A, 6);
    for (const bool slices_in_acks : {true, false}) {
        SCOPED_TRACE(slices_in_acks ? "slices in acks" : "pull fallback");
        EXPECT_EQ(worker_push_hash(problem,
                                   golden_worker_config(
                                       ps::Codec::from_bits(32)),
                                   slices_in_acks),
                  0x50d6dd9690c1c860ull);
        EXPECT_EQ(worker_push_hash(problem,
                                   golden_worker_config(
                                       ps::Codec::from_bits(8)),
                                   slices_in_acks),
                  0xeceadfd31c8c87abull);
        EXPECT_EQ(worker_push_hash(problem,
                                   golden_worker_config(ps::Codec::qsgd(4)),
                                   slices_in_acks),
                  0xeea13fab142ddf50ull);
    }
}

TEST(PsCluster, RejectsBadConfig)
{
    const auto& problem = cluster_problem();
    auto bad = cluster_config(32);
    bad.workers = 0;
    EXPECT_THROW(ps::train_cluster(problem, bad), std::runtime_error);
    bad = cluster_config(32);
    bad.shards = 0;
    EXPECT_THROW(ps::train_cluster(problem, bad), std::runtime_error);
    bad = cluster_config(32);
    bad.shards = problem.dim + 1;
    EXPECT_THROW(ps::train_cluster(problem, bad), std::runtime_error);
    bad = cluster_config(32);
    bad.codec.bits = 7; // kDense at 7 bits names no tier
    EXPECT_THROW(ps::train_cluster(problem, bad), std::runtime_error);
    bad = cluster_config(32);
    bad.step_size = 0.0f;
    EXPECT_THROW(ps::train_cluster(problem, bad), std::runtime_error);
    bad = cluster_config(32);
    bad.batch = 0;
    EXPECT_THROW(ps::train_cluster(problem, bad), std::runtime_error);
    bad = cluster_config(32);
    bad.rounds = 0;
    EXPECT_THROW(ps::train_cluster(problem, bad), std::runtime_error);
}

// ================================================ PsSparseCluster

using testutil::sparse_cluster_problem;

TEST(PsSparseCluster, ConvergesWithinOnePointOfDensePath)
{
    // The acceptance comparison: the sparse gradient path (worker
    // touched-coordinate accumulation -> sparse wire push -> shard
    // gather-scatter apply) on the same examples the dense path trains
    // on, row-major expanded. Statistical efficiency must match.
    const auto& problem = sparse_cluster_problem();
    static const dataset::DenseProblem dense = testutil::densify(problem);

    auto cfg = cluster_config(32);
    cfg.rounds = 250;
    const auto sparse_run = ps::train_cluster(problem, cfg);
    const auto dense_run = ps::train_cluster(dense, cfg);

    EXPECT_GT(dense_run.accuracy, 0.8);
    EXPECT_GE(sparse_run.accuracy, dense_run.accuracy - 0.01)
        << "sparse path must stay within 1pp of the dense path";
    EXPECT_LT(sparse_run.final_loss, dense_run.final_loss + 0.05);

    // Exactly-once protocol accounting holds on the sparse path too.
    EXPECT_EQ(sparse_run.rounds, 500u);
    EXPECT_EQ(sparse_run.metrics.total_pushes(),
              cfg.workers * cfg.shards * cfg.rounds);
    EXPECT_GT(sparse_run.metrics.total_sparse_nnz(), 0u);
    EXPECT_GT(sparse_run.metrics.total_sparse_bytes(), 0u);

    // Sparse traffic is measured from the encoded frames and beats the
    // densified closed form even at full precision (5% rows, batch 16:
    // the round union stays well under the dimension).
    EXPECT_GT(sparse_run.bytes_per_round, 0.0);
    EXPECT_LT(sparse_run.bytes_per_round, dense_run.bytes_per_round);

    // The checkpoint records the sparse signature with i32 indices.
    EXPECT_TRUE(sparse_run.checkpoint.signature.sparse);
    EXPECT_EQ(sparse_run.checkpoint.signature.index_bits, 32);
    EXPECT_EQ(sparse_run.checkpoint.weights.size(), problem.dim);
}

TEST(PsSparseCluster, QuantizedSparsePushesCutBytesFurther)
{
    const auto& problem = sparse_cluster_problem();
    auto cfg = cluster_config(32);
    cfg.rounds = 60;
    const auto full = ps::train_cluster(problem, cfg);
    cfg.codec = ps::Codec::qsgd(4);
    const auto q4 = ps::train_cluster(problem, cfg);
    EXPECT_EQ(q4.comm, "CsQ4");
    // CsQ4-sparse: same gamma index stream, ~4-bit values instead of
    // 32-bit floats — a clear per-round byte cut at matched nnz.
    EXPECT_LT(q4.bytes_per_round, full.bytes_per_round / 1.8);
    EXPECT_NEAR(q4.accuracy, full.accuracy, 0.05);
}

TEST(PsSparseCluster, SurvivesFaultInjectionAndPublishesToServing)
{
    // The sparse end-to-end acceptance path: worker -> quantized sparse
    // push through a faulty fabric -> shard gather-scatter -> checkpoint
    // publish -> serve sparse scores. Runs under TSan in CI.
    const auto& problem = sparse_cluster_problem();

    serve::ModelRegistry registry;
    auto cfg = cluster_config(8);
    cfg.rounds = 150;
    cfg.tau = 6;
    cfg.publish_every = 60;
    cfg.faults.drop_prob = 0.05;
    cfg.faults.jitter_us = 5;
    cfg.faults.reorder_window = 3;
    const auto r = ps::train_cluster(problem, cfg, &registry);

    // The fabric really misbehaved, and the protocol still applied
    // every sparse round exactly once within the staleness bound.
    EXPECT_GT(r.metrics.messages_dropped, 0u);
    EXPECT_GT(r.metrics.rpc_retries, 0u);
    EXPECT_EQ(r.metrics.total_pushes(),
              cfg.workers * cfg.shards * cfg.rounds);
    EXPECT_LE(r.metrics.max_staleness(), cfg.tau);
    EXPECT_GT(r.accuracy, 0.75);
    EXPECT_GT(r.metrics.total_sparse_nnz(), 0u);

    // Published mid-run and finally; the registry serves the sparse
    // checkpoint.
    ASSERT_GE(r.published_versions.size(), 2u);
    EXPECT_EQ(registry.current_version(), r.published_versions.back());
    EXPECT_TRUE(registry.current()->trained_signature().sparse);

    // Score the training rows sparsely through the serving front end.
    serve::ServerConfig serve_cfg;
    serve_cfg.workers = 1;
    serve_cfg.max_batch = 16;
    serve::Server server(registry, serve_cfg);
    std::size_t correct = 0;
    const std::size_t scored = 512;
    for (std::size_t i = 0; i < scored; ++i) {
        const auto& row = problem.rows[i];
        auto pending = server.submit_sparse(row.index, row.value);
        ASSERT_TRUE(pending.has_value());
        const serve::ScoreResult score = pending->get();
        if (score.label == problem.y[i]) ++correct;
    }
    server.stop();
    const double accuracy =
        static_cast<double>(correct) / static_cast<double>(scored);
    EXPECT_NEAR(accuracy, r.accuracy, 0.08)
        << "served sparse accuracy must track training accuracy";
}

TEST(PsSparseCluster, MidRunPublishesCarryTheSparseSignature)
{
    // A serving client that swaps onto a sparse cluster's progress must
    // see the sparse provenance on every version, not only the last.
    const auto& problem = sparse_cluster_problem();
    serve::ModelRegistry registry;
    auto cfg = cluster_config(8);
    cfg.rounds = 200;
    cfg.publish_every = 5;

    std::atomic<bool> done{false};
    std::vector<std::pair<std::uint64_t, bool>> seen; // (version, sparse)
    std::thread poller([&] {
        while (!done.load(std::memory_order_acquire)) {
            const auto model = registry.current();
            if (model != nullptr &&
                (seen.empty() || seen.back().first != model->version()))
                seen.emplace_back(model->version(),
                                  model->trained_signature().sparse);
            std::this_thread::yield();
        }
    });
    const auto r = ps::train_cluster(problem, cfg, &registry);
    done.store(true, std::memory_order_release);
    poller.join();

    ASSERT_GE(r.published_versions.size(), 2u);
    const std::uint64_t final_version = r.published_versions.back();
    std::size_t mid_run = 0;
    for (const auto& [version, sparse] : seen) {
        EXPECT_TRUE(sparse) << "version " << version;
        if (version != final_version) ++mid_run;
    }
    EXPECT_GE(mid_run, 1u);
}

TEST(PsSparseCluster, RejectsBadConfig)
{
    const auto& problem = sparse_cluster_problem();
    auto bad = cluster_config(32);
    bad.workers = 0;
    EXPECT_THROW(ps::train_cluster(problem, bad), std::runtime_error);
    bad = cluster_config(32);
    bad.shards = problem.dim + 1;
    EXPECT_THROW(ps::train_cluster(problem, bad), std::runtime_error);
    bad = cluster_config(32);
    bad.batch = 0;
    EXPECT_THROW(ps::train_cluster(problem, bad), std::runtime_error);
}

// ===================================================== PsServe

TEST(PsServe, ClusterPublishesIntoLiveServingRegistry)
{
    const auto& problem = cluster_problem();

    // A server goes live on a zero model; the training cluster then
    // publishes checkpoints into the same registry mid-run — every swap
    // is picked up by the serving side with no file in between.
    serve::ModelRegistry registry;
    core::SavedModel zero;
    zero.signature = dmgc::Signature::dense_hogwild();
    zero.weights.assign(problem.dim, 0.0f);
    registry.publish(zero, serve::Precision::kFloat32);

    serve::ServerConfig serve_cfg;
    serve_cfg.workers = 1;
    serve_cfg.max_batch = 16;
    serve::Server server(registry, serve_cfg);

    auto cfg = cluster_config(8);
    cfg.rounds = 150;
    cfg.publish_every = 60;
    const auto r = ps::train_cluster(problem, cfg, &registry);

    // Mid-run checkpoints plus the final publish, strictly ordered.
    ASSERT_GE(r.published_versions.size(), 2u);
    for (std::size_t i = 1; i < r.published_versions.size(); ++i)
        EXPECT_GT(r.published_versions[i], r.published_versions[i - 1]);
    EXPECT_EQ(registry.current_version(), r.published_versions.back());
    EXPECT_EQ(registry.current()->trained_signature().to_string(), "C8");

    // The server now scores with the cluster-trained weights.
    std::size_t correct = 0;
    const std::size_t scored = 512;
    for (std::size_t i = 0; i < scored; ++i) {
        auto pending = server.submit_dense(std::vector<float>(
            problem.row(i), problem.row(i) + problem.dim));
        ASSERT_TRUE(pending.has_value());
        const serve::ScoreResult score = pending->get();
        EXPECT_EQ(score.model_version, registry.current_version());
        if (score.label == problem.y[i]) ++correct;
    }
    server.stop();
    const double accuracy =
        static_cast<double>(correct) / static_cast<double>(scored);
    EXPECT_NEAR(accuracy, r.accuracy, 0.08)
        << "served accuracy must track the training accuracy";
    EXPECT_GT(accuracy, 0.75);
}

// ===================================================== PsConcurrency

TEST(PsConcurrency, ConcurrentPushPullOneShard)
{
    // Four workers hammer one shard with interleaved pushes and pulls
    // over the real mailboxes — the TSan target exercising every
    // cross-thread edge: send/recv, RPC retransmit, version counter.
    const std::size_t dim = 64;
    const std::size_t workers = 4;
    const std::uint64_t rounds = 150;

    ps::ShardConfig cfg;
    cfg.workers = workers;
    cfg.tau = 1u << 20; // gate open: this test is about data races
    cfg.step_size = 0.01f;
    cfg.batch = 1;

    ps::InProcTransport transport(1 + workers);
    ps::ServerShard shard(0, 0, dim, cfg, transport);
    WorkerGroup shard_thread;
    shard_thread.start(1, [&](std::size_t) { shard.run(); });

    std::atomic<std::uint64_t> pulls_served{0};
    std::atomic<std::uint64_t> rpc_retries{0};
    WorkerGroup group;
    group.start(workers, [&](std::size_t w) {
        ps::RpcClient rpc(transport, 1 + w);
        rng::Xorshift128Plus rng(1000 + w);
        std::vector<float> gradient(dim);
        for (std::uint64_t round = 1; round <= rounds; ++round) {
            for (auto& v : gradient)
                v = static_cast<float>(
                        static_cast<double>(rng() >> 11) * 0x1.0p-53) -
                    0.5f;
            ps::Message push;
            push.kind = ps::Message::Kind::kPush;
            push.worker = static_cast<std::uint32_t>(w);
            push.clock = round;
            push.gradient = ps::encode_gradient(gradient.data(), dim,
                                                w % 2 == 0 ? 8 : 1,
                                                nullptr);
            ASSERT_TRUE(rpc.call(0, std::move(push)).accepted);
            if (round % 3 == 0) {
                ps::Message pull;
                pull.kind = ps::Message::Kind::kPull;
                const ps::Message reply = rpc.call(0, std::move(pull));
                ASSERT_EQ(reply.weights.size(), dim);
                pulls_served.fetch_add(1, std::memory_order_relaxed);
            }
        }
        rpc_retries.fetch_add(rpc.retries(), std::memory_order_relaxed);
    });
    group.join();
    const std::uint64_t version_before_close = shard.version();
    transport.close();
    shard_thread.join();

    EXPECT_EQ(version_before_close, workers * rounds);
    EXPECT_EQ(shard.metrics().pushes, workers * rounds);
    // Pushes are deduplicated by (worker, clock), so the shard-side count
    // is exactly-once even when the RPC layer retransmits. Pulls are
    // idempotent and served on every arrival: a spurious ~200us timeout
    // (common under TSan's slowdown on a loaded box) makes the shard
    // serve the same pull twice, so its count may exceed the client's
    // completed-call count — by at most one per retransmission.
    EXPECT_GE(shard.metrics().pulls, pulls_served.load());
    EXPECT_LE(shard.metrics().pulls,
              pulls_served.load() + rpc_retries.load());
    for (const float w : shard.weights()) EXPECT_TRUE(std::isfinite(w));
}

} // namespace
} // namespace buckwild
