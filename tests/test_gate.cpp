/**
 * @file
 * Tests for the serving front door (src/gate/): wire-format goldens and
 * an exhaustive truncation/corruption sweep over the parser, the q8
 * feature codec's size and error bounds, partial-I/O injection through
 * the net:: raw hooks, deterministic admission policy (token buckets,
 * cost model, deadline feasibility), the strict-priority lane
 * scheduler, the model router, request-queue telemetry, and a full
 * GateServer/GateClient stack over loopback TCP — including the
 * malformed-ingress paths (NACK-and-survive vs drop-the-connection).
 */
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "gate/gate.h"
#include "net/net.h"
#include "obs/prom.h"
#include "obs/registry.h"
#include "obs/tracectx.h"
#include "serve/serve.h"
#include "test_common.h"
#include "wire_fuzz.h"

namespace buckwild {
namespace {

// ============================================================ GateWire

gate::ScoreRequest
sample_request()
{
    gate::ScoreRequest request;
    request.request_id = 0x1122334455667788ull;
    request.model = "m";
    request.tenant = "t";
    request.lane = gate::Lane::kBatch;
    request.deadline_us = 1000;
    request.encoding = gate::FeatureEncoding::kDenseF32;
    request.dense = {1.0f};
    return request;
}

TEST(GateWire, RequestGoldenBytes)
{
    // The byte-level contract: a client built from other source must
    // produce exactly this. Change the format and this fails by design.
    const std::vector<std::uint8_t> bytes = serialize(sample_request());
    const std::uint8_t expected[] = {
        0x01,                   // kind = ScoreRequest
        0x00,                   // encoding = kDenseF32
        0x01,                   // lane = kBatch
        0x00,                   // reserved
        0x88, 0x77, 0x66, 0x55, // request id, little-endian
        0x44, 0x33, 0x22, 0x11,
        0xe8, 0x03, 0x00, 0x00, // deadline_us = 1000
        0x00, 0x00, 0x00, 0x00, // scale = 0.0f
        0x01, 0x00,             // model name length
        0x01, 0x00,             // tenant length
        0x01, 0x00, 0x00, 0x00, // feature count
        'm',  't',
        0x00, 0x00, 0x80, 0x3f, // 1.0f
    };
    ASSERT_EQ(bytes.size(), sizeof(expected));
    EXPECT_EQ(std::memcmp(bytes.data(), expected, sizeof(expected)), 0);
}

TEST(GateWire, ResponseGoldenBytes)
{
    gate::ScoreResponse response;
    response.request_id = 7;
    response.status = gate::Status::kResourceExhausted;
    response.margin = 1.0f;
    response.score = 0.5f;
    response.label = -1.0f;
    response.model_version = 3;
    response.message = "no";
    const std::vector<std::uint8_t> bytes = serialize(response);
    const std::uint8_t expected[] = {
        0x02, 0x01, 0x00, 0x00,                         // kind, status, rsv
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id
        0x00, 0x00, 0x80, 0x3f,                         // margin 1.0
        0x00, 0x00, 0x00, 0x3f,                         // score 0.5
        0x00, 0x00, 0x80, 0xbf,                         // label -1.0
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // version
        0x02, 0x00, 'n',  'o',                          // message
    };
    ASSERT_EQ(bytes.size(), sizeof(expected));
    EXPECT_EQ(std::memcmp(bytes.data(), expected, sizeof(expected)), 0);
}

gate::ScoreRequest
golden_dense_request()
{
    gate::ScoreRequest request = sample_request();
    request.dense = {0.5f, -2.0f, 3.25f};
    return request;
}

TEST(GateWire, DenseRequestGoldenBytes)
{
    // Several features pin the order and endianness of every element of
    // the feature array, not just the first.
    const std::vector<std::uint8_t> expected = {
        0x01, 0x00, 0x01, 0x00, // kind, kDenseF32, kBatch, reserved
        0x88, 0x77, 0x66, 0x55, // request id
        0x44, 0x33, 0x22, 0x11,
        0xe8, 0x03, 0x00, 0x00, // deadline_us = 1000
        0x00, 0x00, 0x00, 0x00, // scale = 0.0f
        0x01, 0x00, 0x01, 0x00, // model / tenant lengths
        0x03, 0x00, 0x00, 0x00, // feature count
        'm',  't',
        0x00, 0x00, 0x00, 0x3f, // 0.5f
        0x00, 0x00, 0x00, 0xc0, // -2.0f
        0x00, 0x00, 0x50, 0x40, // 3.25f
    };
    EXPECT_EQ(serialize(golden_dense_request()), expected);
}

gate::ScoreRequest
golden_sparse_request()
{
    gate::ScoreRequest request = sample_request();
    request.encoding = gate::FeatureEncoding::kSparseF32;
    request.index = {3, 99, 100000};
    request.dense = {1.0f, -1.0f, 0.25f};
    return request;
}

TEST(GateWire, SparseRequestGoldenBytes)
{
    const std::vector<std::uint8_t> expected = {
        0x01, 0x02, 0x01, 0x00, // kind, kSparseF32, kBatch, reserved
        0x88, 0x77, 0x66, 0x55, // request id
        0x44, 0x33, 0x22, 0x11,
        0xe8, 0x03, 0x00, 0x00, // deadline_us = 1000
        0x00, 0x00, 0x00, 0x00, // scale = 0.0f
        0x01, 0x00, 0x01, 0x00, // model / tenant lengths
        0x03, 0x00, 0x00, 0x00, // feature count
        'm',  't',
        0x03, 0x00, 0x00, 0x00, // coordinates: 3
        0x63, 0x00, 0x00, 0x00, //   99
        0xa0, 0x86, 0x01, 0x00, //   100000
        0x00, 0x00, 0x80, 0x3f, // values: 1.0f
        0x00, 0x00, 0x80, 0xbf, //   -1.0f
        0x00, 0x00, 0x80, 0x3e, //   0.25f
    };
    EXPECT_EQ(serialize(golden_sparse_request()), expected);
}

TEST(GateWire, RoundTripsEveryEncoding)
{
    gate::ScoreRequest dense = sample_request();
    dense.dense = {0.5f, -2.0f, 3.25f};

    gate::ScoreRequest q8 = sample_request();
    q8.encoding = gate::FeatureEncoding::kDenseQ8;
    q8.dense.clear();
    q8.q8 = {-127, 0, 64, 127};
    q8.scale = 0.03125f;

    gate::ScoreRequest sparse = sample_request();
    sparse.encoding = gate::FeatureEncoding::kSparseF32;
    sparse.index = {3, 99, 100000};
    sparse.dense = {1.0f, -1.0f, 0.25f};

    for (const gate::ScoreRequest* in : {&dense, &q8, &sparse}) {
        const std::vector<std::uint8_t> bytes = serialize(*in);
        gate::ScoreRequest out;
        ASSERT_TRUE(gate::deserialize(bytes.data(), bytes.size(), out));
        EXPECT_EQ(out.request_id, in->request_id);
        EXPECT_EQ(out.model, in->model);
        EXPECT_EQ(out.tenant, in->tenant);
        EXPECT_EQ(out.lane, in->lane);
        EXPECT_EQ(out.deadline_us, in->deadline_us);
        EXPECT_EQ(out.encoding, in->encoding);
        EXPECT_EQ(out.dense, in->dense);
        EXPECT_EQ(out.q8, in->q8);
        EXPECT_EQ(out.index, in->index);
    }
}

TEST(GateWire, EveryTruncationPointFailsCleanly)
{
    // A hostile or half-delivered payload must never parse, whatever
    // byte it stops at — sweep every strict prefix of valid messages.
    gate::ScoreRequest request = sample_request();
    request.encoding = gate::FeatureEncoding::kSparseF32;
    request.index = {1, 2};
    request.dense = {1.0f, 2.0f};
    const std::vector<std::uint8_t> bytes = serialize(request);
    gate::ScoreRequest out;
    for (std::size_t n = 0; n < bytes.size(); ++n)
        EXPECT_FALSE(gate::deserialize(bytes.data(), n, out))
            << "prefix of " << n << " bytes parsed";
    EXPECT_TRUE(gate::deserialize(bytes.data(), bytes.size(), out));

    gate::ScoreResponse response;
    response.message = "queue full";
    const std::vector<std::uint8_t> rbytes = serialize(response);
    gate::ScoreResponse rout;
    for (std::size_t n = 0; n < rbytes.size(); ++n)
        EXPECT_FALSE(gate::deserialize(rbytes.data(), n, rout))
            << "prefix of " << n << " bytes parsed";
    EXPECT_TRUE(gate::deserialize(rbytes.data(), rbytes.size(), rout));
}

TEST(GateWire, RejectsCorruptFields)
{
    const std::vector<std::uint8_t> good = serialize(sample_request());
    gate::ScoreRequest out;
    auto corrupted = [&](std::size_t offset, std::uint8_t value) {
        std::vector<std::uint8_t> bytes = good;
        bytes[offset] = value;
        return gate::deserialize(bytes.data(), bytes.size(), out);
    };
    EXPECT_FALSE(corrupted(0, 9)) << "unknown message kind";
    EXPECT_FALSE(corrupted(1, 3)) << "unknown encoding";
    EXPECT_FALSE(corrupted(2, 2)) << "lane out of range";
    EXPECT_FALSE(corrupted(3, 1)) << "reserved byte set";
    EXPECT_FALSE(corrupted(21, 0xff)) << "model name over cap";
    EXPECT_FALSE(corrupted(27, 0xff)) << "feature count over cap";

    std::vector<std::uint8_t> trailing = good;
    trailing.push_back(0x00);
    EXPECT_FALSE(gate::deserialize(trailing.data(), trailing.size(), out))
        << "trailing garbage accepted";

    // A count larger than the remaining bytes must fail BEFORE any
    // allocation-sized-by-count happens (the parser checks remaining()).
    std::vector<std::uint8_t> lying = good;
    lying[24] = 0x10; // claims 16 features, carries 1
    EXPECT_FALSE(gate::deserialize(lying.data(), lying.size(), out));
}

/// Parses one mutant; on acceptance asserts it re-serializes to exactly
/// its bytes and parses again to the same message.
template <typename Message>
bool
gate_round_trip(const std::vector<std::uint8_t>& bytes)
{
    Message first;
    if (!gate::deserialize(bytes.data(), bytes.size(), first)) return false;
    const std::vector<std::uint8_t> again = serialize(first);
    EXPECT_EQ(again, bytes);
    Message second;
    EXPECT_TRUE(gate::deserialize(again.data(), again.size(), second));
    EXPECT_EQ(serialize(second), again);
    return true;
}

TEST(GateWire, MutationFuzzKeepsRequestDecoderTotal)
{
    gate::ScoreRequest q8 = sample_request();
    q8.encoding = gate::FeatureEncoding::kDenseQ8;
    q8.dense.clear();
    q8.q8 = {-127, 0, 64, 127};
    q8.scale = 0.03125f;
    gate::ScoreRequest traced = golden_sparse_request();
    traced.trace.ctx = obs::make_root_context();
    traced.trace.send_ts_ns = 42;
    // Model name length, tenant length, feature count.
    const std::vector<testutil::CountField> counts = {
        {20, 2}, {22, 2}, {24, 4}};
    std::vector<testutil::FuzzSeed> seeds;
    for (const gate::ScoreRequest& request :
         {sample_request(), golden_dense_request(), golden_sparse_request(),
          q8, traced})
        seeds.push_back({serialize(request), counts});
    EXPECT_GT(testutil::fuzz_decoder(seeds, 3000, 0x6A7E,
                                     gate_round_trip<gate::ScoreRequest>),
              1000u);
}

TEST(GateWire, MutationFuzzKeepsResponseDecoderTotal)
{
    gate::ScoreResponse response;
    response.request_id = 7;
    response.status = gate::Status::kResourceExhausted;
    response.margin = 1.0f;
    response.model_version = 3;
    response.message = "queue full";
    gate::ScoreResponse traced = response;
    traced.trace.ctx = obs::make_root_context();
    traced.trace.echo_send_ts_ns = 11;
    traced.trace.echo_recv_ts_ns = 22;
    const std::vector<testutil::CountField> counts = {{32, 2}};
    const std::vector<testutil::FuzzSeed> seeds = {
        {serialize(response), counts}, {serialize(traced), counts}};
    EXPECT_GT(testutil::fuzz_decoder(seeds, 3000, 0x6A7F,
                                     gate_round_trip<gate::ScoreResponse>),
              500u);
}

TEST(GateWire, TraceBlockRoundTripsOnRequestAndResponse)
{
    gate::ScoreRequest request = sample_request();
    const std::vector<std::uint8_t> plain = serialize(request);

    request.trace.ctx.trace_lo = 0x0102030405060708ull;
    request.trace.ctx.trace_hi = 0x1112131415161718ull;
    request.trace.ctx.span = 0x21;
    request.trace.send_ts_ns = 999;
    const std::vector<std::uint8_t> traced = serialize(request);

    // Strictly additive and off the wire when tracing is off — the
    // goldens above never see it.
    ASSERT_EQ(traced.size(), plain.size() + obs::kTraceBlockBytes);
    EXPECT_EQ(std::memcmp(traced.data(), plain.data(), plain.size()), 0);

    gate::ScoreRequest out;
    ASSERT_TRUE(gate::deserialize(traced.data(), traced.size(), out));
    EXPECT_EQ(out.trace.ctx.trace_lo, request.trace.ctx.trace_lo);
    EXPECT_EQ(out.trace.ctx.trace_hi, request.trace.ctx.trace_hi);
    EXPECT_EQ(out.trace.ctx.span, request.trace.ctx.span);
    EXPECT_EQ(out.trace.send_ts_ns, request.trace.send_ts_ns);
    EXPECT_EQ(out.dense, request.dense);
    gate::ScoreRequest old_format;
    ASSERT_TRUE(gate::deserialize(plain.data(), plain.size(), old_format));
    EXPECT_FALSE(old_format.trace.ctx.valid());

    // Responses carry the echo timestamps that make them clock samples.
    gate::ScoreResponse response;
    response.request_id = 7;
    response.status = gate::Status::kOk;
    response.trace.ctx = obs::make_root_context();
    response.trace.send_ts_ns = 300;      // b2
    response.trace.echo_send_ts_ns = 100; // a1
    response.trace.echo_recv_ts_ns = 250; // b1
    const std::vector<std::uint8_t> rbytes = serialize(response);
    gate::ScoreResponse rout;
    ASSERT_TRUE(gate::deserialize(rbytes.data(), rbytes.size(), rout));
    EXPECT_TRUE(rout.trace.ctx.same_trace(response.trace.ctx));
    const obs::ClockSample sample =
        obs::clock_sample_from_reply(rout.trace, 400); // a2
    ASSERT_TRUE(sample.valid);
    EXPECT_EQ(sample.offset_ns, 25);  // ((250-100)+(300-400))/2
    EXPECT_EQ(sample.rtt_ns, 250);    // (400-100)-(300-250)
}

TEST(GateWire, TraceBlockTruncationSweep)
{
    gate::ScoreRequest request = sample_request();
    request.trace.ctx = obs::make_root_context();
    request.trace.send_ts_ns = 1;
    const std::vector<std::uint8_t> bytes = serialize(request);
    const std::size_t base = bytes.size() - obs::kTraceBlockBytes;

    gate::ScoreRequest out;
    for (std::size_t n = 0; n <= bytes.size(); ++n) {
        const bool ok = gate::deserialize(bytes.data(), n, out);
        if (n == base) {
            EXPECT_TRUE(ok) << "base-layout prefix must stay parseable";
            EXPECT_FALSE(out.trace.ctx.valid());
        } else if (n == bytes.size()) {
            EXPECT_TRUE(ok);
            EXPECT_TRUE(out.trace.ctx.valid());
        } else {
            EXPECT_FALSE(ok) << "accepted a " << n << "-byte prefix";
        }
    }

    std::vector<std::uint8_t> bad = bytes;
    bad[base] = 0x00; // tag
    EXPECT_FALSE(gate::deserialize(bad.data(), bad.size(), out));
    bad = bytes;
    bad[base + 1] = obs::kTraceBlockVersion + 1;
    EXPECT_FALSE(gate::deserialize(bad.data(), bad.size(), out));
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(gate::deserialize(padded.data(), padded.size(), out));
}

TEST(GateWire, Q8ShipsQuarterTheBytesWithinHalfQuantum)
{
    std::vector<float> x(256);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = 0.37f * static_cast<float>(i) - 41.0f;

    gate::ScoreRequest f32 = sample_request();
    f32.dense = x;
    gate::ScoreRequest q8 = sample_request();
    q8.encoding = gate::FeatureEncoding::kDenseQ8;
    q8.dense.clear();
    q8.scale = gate::quantize_features_q8(x.data(), x.size(), q8.q8);

    // The claim on the wire: 4x fewer feature bytes.
    const std::size_t f32_bytes = serialize(f32).size();
    const std::size_t q8_bytes = serialize(q8).size();
    EXPECT_EQ(f32_bytes - q8_bytes, x.size() * 3);

    // And the cost of it: at most half a quantum per feature (biased
    // rounding, symmetric grid fitted to max|x|).
    ASSERT_GT(q8.scale, 0.0f);
    std::vector<float> back(x.size());
    gate::dequantize_features_q8(q8.q8.data(), q8.q8.size(), q8.scale,
                                 back.data());
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(back[i], x[i], q8.scale / 2 + 1e-6f);
}

TEST(GateWire, Q8DegeneratesToZeroScale)
{
    std::vector<std::int8_t> q;
    const float zeros[4] = {0, 0, 0, 0};
    EXPECT_EQ(gate::quantize_features_q8(zeros, 4, q), 0.0f);
    EXPECT_EQ(q, (std::vector<std::int8_t>{0, 0, 0, 0}));

    const float nan[2] = {1.0f, std::nanf("")};
    EXPECT_EQ(gate::quantize_features_q8(nan, 2, q), 0.0f)
        << "non-finite input must not produce a poisoned grid";
    EXPECT_EQ(gate::quantize_features_q8(nullptr, 0, q), 0.0f);
}

// ======================================================== GatePartialIo

// Raw-I/O injection hooks (plain function pointers, so state is static):
// deliver/accept ONE byte per call and fail every third call with EINTR.
// write_full/read_full must absorb both and still move exact counts.
std::atomic<int> g_dribble_calls{0};

long
dribble_write(int fd, const void* data, std::size_t n)
{
    if (g_dribble_calls.fetch_add(1) % 3 == 2) {
        errno = EINTR;
        return -1;
    }
    return ::send(fd, data, n > 0 ? 1 : 0, MSG_NOSIGNAL);
}

long
dribble_read(int fd, void* data, std::size_t n)
{
    if (g_dribble_calls.fetch_add(1) % 3 == 2) {
        errno = EINTR;
        return -1;
    }
    return ::recv(fd, data, n > 0 ? 1 : 0, 0);
}

TEST(GatePartialIo, ExactIoSurvivesShortWritesAndEintr)
{
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    net::Fd a(fds[0]), b(fds[1]);

    const std::vector<std::uint8_t> frame =
        serialize(sample_request());
    g_dribble_calls.store(0);
    std::thread writer([&] {
        EXPECT_TRUE(net::write_full(a.get(), frame.data(), frame.size(),
                                    &dribble_write));
    });
    std::vector<std::uint8_t> got(frame.size());
    ASSERT_TRUE(
        net::read_full(b.get(), got.data(), got.size(), &dribble_read));
    writer.join();
    EXPECT_EQ(got, frame);

    gate::ScoreRequest out;
    EXPECT_TRUE(gate::deserialize(got.data(), got.size(), out));
    EXPECT_EQ(out.request_id, sample_request().request_id);
}

// ======================================================= GateAdmission

TEST(GateAdmission, TokenBucketIsDeterministicUnderExplicitClock)
{
    gate::TokenBucket bucket(/*rate=*/1.0, /*burst=*/2.0);
    EXPECT_TRUE(bucket.try_take(100.0)) << "starts full";
    EXPECT_TRUE(bucket.try_take(100.0));
    EXPECT_FALSE(bucket.try_take(100.0)) << "burst exhausted";
    EXPECT_FALSE(bucket.try_take(100.5)) << "half a token is not one";
    EXPECT_TRUE(bucket.try_take(101.0)) << "one second refills one token";
    EXPECT_DOUBLE_EQ(bucket.available(101.0), 0.0);
    // Refill clamps at burst: a long idle gap does not bank extra.
    EXPECT_DOUBLE_EQ(bucket.available(1000.0), 2.0);
}

TEST(GateAdmission, TokenBucketUnlimitedAndClockSkew)
{
    gate::TokenBucket unlimited(/*rate=*/0.0, /*burst=*/1.0);
    for (int i = 0; i < 100; ++i) EXPECT_TRUE(unlimited.try_take(0.0));

    gate::TokenBucket bucket(1.0, 1.0);
    EXPECT_TRUE(bucket.try_take(100.0));
    // A backwards clock must not refill, overflow, or wedge the bucket.
    EXPECT_FALSE(bucket.try_take(50.0));
    EXPECT_TRUE(bucket.try_take(101.0));
}

TEST(GateAdmission, CostModelFoldsObservationsAsEwma)
{
    gate::CostModel cost(1e-9);
    EXPECT_DOUBLE_EQ(cost.seconds_per_number(), 1e-9);
    cost.observe(/*busy_seconds=*/1.0, /*numbers=*/1e6); // sample 1e-6
    EXPECT_DOUBLE_EQ(cost.seconds_per_number(),
                     1e-9 + (1e-6 - 1e-9) / 8.0);
    cost.observe(0.0, 1e6); // non-positive busy time: ignored
    cost.observe(1.0, 0.0); // zero numbers: ignored
    EXPECT_DOUBLE_EQ(cost.seconds_per_number(),
                     1e-9 + (1e-6 - 1e-9) / 8.0);
    EXPECT_DOUBLE_EQ(cost.estimate_seconds(1000.0),
                     cost.seconds_per_number() * 1000.0);
}

TEST(GateAdmission, RateLimitShedsPerTenant)
{
    gate::AdmissionConfig config;
    config.tenant_rate = 1.0;
    config.tenant_burst = 1.0;
    gate::AdmissionController admission(config);

    gate::ScoreRequest request = sample_request();
    request.deadline_us = 0;
    request.tenant = "a";
    EXPECT_TRUE(admission.admit(request, 0.0, 0.0, 0.0).admitted());
    const gate::Decision shed = admission.admit(request, 0.0, 0.0, 0.0);
    EXPECT_EQ(shed.status, gate::Status::kResourceExhausted);
    EXPECT_STREQ(shed.reason, "rate_limit");

    // Tenant isolation: "a" being clipped leaves "b" untouched.
    request.tenant = "b";
    EXPECT_TRUE(admission.admit(request, 0.0, 0.0, 0.0).admitted());
    EXPECT_EQ(admission.tenant_count(), 2u);
}

TEST(GateAdmission, InfeasibleDeadlineRefusedBeforeQueueing)
{
    gate::AdmissionController admission({}); // no rate limits
    gate::ScoreRequest request = sample_request();
    request.deadline_us = 1000; // 1ms budget

    // 0.9ms of backlog + 0.3ms of service cannot make a 1ms deadline.
    const gate::Decision late =
        admission.admit(request, 0.9e-3, 0.3e-3, 0.0);
    EXPECT_EQ(late.status, gate::Status::kDeadlineExceeded);
    EXPECT_STREQ(late.reason, "infeasible_deadline");

    EXPECT_TRUE(admission.admit(request, 0.3e-3, 0.3e-3, 0.0).admitted());

    request.deadline_us = 0; // no deadline: any backlog is acceptable
    EXPECT_TRUE(admission.admit(request, 10.0, 10.0, 0.0).admitted());
}

// ======================================================= GateScheduler

gate::GateTask
make_task(gate::Lane lane, std::size_t features)
{
    gate::GateTask task;
    task.request.lane = lane;
    task.request.dense.assign(features, 1.0f);
    return task;
}

TEST(GateScheduler, InteractivePreemptsBatchAtEveryPop)
{
    gate::LaneScheduler scheduler(4, 4);
    ASSERT_TRUE(scheduler.try_push(make_task(gate::Lane::kBatch, 1)));
    ASSERT_TRUE(scheduler.try_push(make_task(gate::Lane::kBatch, 2)));
    ASSERT_TRUE(
        scheduler.try_push(make_task(gate::Lane::kInteractive, 3)));
    gate::GateTask task;
    ASSERT_TRUE(scheduler.pop(task));
    EXPECT_EQ(task.request.lane, gate::Lane::kInteractive)
        << "interactive must jump the earlier batch work";
    ASSERT_TRUE(scheduler.pop(task));
    EXPECT_EQ(task.request.lane, gate::Lane::kBatch);
    EXPECT_EQ(task.request.dense.size(), 1u) << "batch stays FIFO";
}

TEST(GateScheduler, LaneCapacitiesIsolateOverload)
{
    gate::LaneScheduler scheduler(/*interactive=*/2, /*batch=*/1);
    ASSERT_TRUE(scheduler.try_push(make_task(gate::Lane::kBatch, 1)));
    EXPECT_FALSE(scheduler.try_push(make_task(gate::Lane::kBatch, 1)))
        << "batch lane full";
    // The batch flood must not consume interactive admission.
    EXPECT_TRUE(scheduler.try_push(make_task(gate::Lane::kInteractive, 1)));
    EXPECT_TRUE(scheduler.try_push(make_task(gate::Lane::kInteractive, 1)));
    EXPECT_FALSE(
        scheduler.try_push(make_task(gate::Lane::kInteractive, 1)));
    EXPECT_EQ(scheduler.depth(gate::Lane::kInteractive), 2u);
    EXPECT_EQ(scheduler.depth(gate::Lane::kBatch), 1u);
}

TEST(GateScheduler, TracksBacklogNumbersAndDepthGauges)
{
    obs::MetricsRegistry registry;
    gate::LaneScheduler scheduler(4, 4, &registry);
    obs::Gauge& interactive_depth = registry.gauge(
        obs::labeled("gate.queue_depth", {{"lane", "interactive"}}));

    ASSERT_TRUE(scheduler.try_push(make_task(gate::Lane::kInteractive, 5)));
    ASSERT_TRUE(scheduler.try_push(make_task(gate::Lane::kBatch, 7)));
    EXPECT_EQ(scheduler.backlog_numbers(), 12u);
    EXPECT_DOUBLE_EQ(interactive_depth.value(), 1.0);

    gate::GateTask task;
    ASSERT_TRUE(scheduler.pop(task));
    EXPECT_EQ(scheduler.backlog_numbers(), 7u);
    EXPECT_DOUBLE_EQ(interactive_depth.value(), 0.0);
}

TEST(GateScheduler, CloseDrainsThenReleasesWorkers)
{
    gate::LaneScheduler scheduler(4, 4);
    ASSERT_TRUE(scheduler.try_push(make_task(gate::Lane::kBatch, 1)));
    scheduler.close();
    EXPECT_FALSE(scheduler.try_push(make_task(gate::Lane::kBatch, 1)));
    gate::GateTask task;
    EXPECT_TRUE(scheduler.pop(task)) << "queued work drains";
    EXPECT_FALSE(scheduler.pop(task)) << "then workers are released";
}

TEST(GateScheduler, CloseWakesBlockedWorker)
{
    gate::LaneScheduler scheduler(4, 4);
    std::thread worker([&] {
        gate::GateTask task;
        EXPECT_FALSE(scheduler.pop(task));
    });
    scheduler.close();
    worker.join(); // must not hang
}

// ========================================================== GateRouter

TEST(GateRouter, RoutesByNameAndHotSwapsIndependently)
{
    gate::ModelRouter router;
    EXPECT_EQ(router.find("nope"), nullptr);

    router.publish("a", testutil::make_saved_model({1.0f, 2.0f}),
                   serve::Precision::kFloat32);
    router.publish("b", testutil::make_saved_model({3.0f}),
                   serve::Precision::kFloat32);
    ASSERT_NE(router.find("a"), nullptr);
    const std::uint64_t b_before = router.find("b")->current_version();

    // Republishing "a" bumps only "a".
    router.publish("a", testutil::make_saved_model({9.0f, 9.0f}),
                   serve::Precision::kFloat32);
    EXPECT_EQ(router.find("b")->current_version(), b_before);
    EXPECT_EQ(router.names(), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(router.size(), 2u);
}

// ================================================== RequestQueueGauges

TEST(RequestQueueTelemetry, RejectionsAndDepthAreInstrumented)
{
    // The serve-tier queue satellite: shed work and standing depth must
    // be visible to an operator, not just return values.
    obs::MetricsRegistry registry;
    serve::RequestQueue queue(/*capacity=*/2, /*batch_hint=*/1, &registry);
    obs::Counter& rejected = registry.counter("serve.queue_rejected");
    obs::Gauge& depth = registry.gauge("serve.queue_depth");

    EXPECT_TRUE(queue.try_push(serve::Request{}));
    EXPECT_TRUE(queue.try_push(serve::Request{}));
    EXPECT_DOUBLE_EQ(depth.value(), 2.0);
    EXPECT_EQ(rejected.value(), 0u);

    EXPECT_FALSE(queue.try_push(serve::Request{}));
    EXPECT_FALSE(queue.try_push(serve::Request{}));
    EXPECT_EQ(rejected.value(), 2u);

    std::vector<serve::Request> batch;
    EXPECT_EQ(queue.pop_batch(batch, 8), 2u);
    EXPECT_DOUBLE_EQ(depth.value(), 0.0);

    queue.close();
    EXPECT_FALSE(queue.try_push(serve::Request{}));
    EXPECT_EQ(rejected.value(), 3u) << "post-close sheds count too";
}

// ======================================================== GateEndToEnd

/// Waits (bounded) for a cross-thread counter to settle. The event loop
/// counts an admission after handing the task to a worker, so a fast
/// worker's response can overtake the `gate.admitted` tick by a hair.
template <typename Predicate>
bool
eventually(Predicate predicate,
           std::chrono::milliseconds timeout = std::chrono::seconds(2))
{
    const auto give_up = std::chrono::steady_clock::now() + timeout;
    while (!predicate()) {
        if (std::chrono::steady_clock::now() > give_up) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/// A gate over loopback with one float32 model, private metrics.
struct GateFixture
{
    gate::ModelRouter router;
    dmgc::PerfModel perf = dmgc::PerfModel::paper_model();
    obs::MetricsRegistry registry;
    std::unique_ptr<gate::GateServer> server;

    explicit GateFixture(gate::GateConfig config = {},
                         std::vector<float> weights = {0.5f, -1.0f, 2.0f,
                                                       0.25f})
    {
        router.publish("unit", testutil::make_saved_model(weights),
                       serve::Precision::kFloat32);
        config.metrics_registry = &registry;
        server = std::make_unique<gate::GateServer>(router, perf, config);
    }

    net::Address address() const
    {
        return {"127.0.0.1", server->port()};
    }
};

TEST(GateEndToEnd, ScoresDenseQ8AndSparseOverLoopback)
{
    GateFixture fixture;
    gate::GateClient client(fixture.address());
    ASSERT_TRUE(client.connected());

    gate::ScoreRequest request;
    request.request_id = 42;
    request.model = "unit";
    request.tenant = "test";
    request.dense = {1.0f, 2.0f, -1.0f, 4.0f};
    // dot = 0.5 - 2.0 - 2.0 + 1.0
    const float expected = -2.5f;

    const auto dense = client.call(request);
    ASSERT_TRUE(dense.has_value());
    EXPECT_EQ(dense->status, gate::Status::kOk);
    EXPECT_EQ(dense->request_id, 42u);
    EXPECT_FLOAT_EQ(dense->margin, expected);
    EXPECT_EQ(dense->model_version, 1u);

    gate::ScoreRequest q8 = request;
    q8.request_id = 43;
    q8.encoding = gate::FeatureEncoding::kDenseQ8;
    q8.scale = gate::quantize_features_q8(request.dense.data(),
                                          request.dense.size(), q8.q8);
    q8.dense.clear();
    const auto quantized = client.call(q8);
    ASSERT_TRUE(quantized.has_value());
    EXPECT_EQ(quantized->status, gate::Status::kOk);
    // Error budget: half a quantum per feature times |w|_1.
    EXPECT_NEAR(quantized->margin, expected, q8.scale / 2 * 3.75f + 1e-4f);

    gate::ScoreRequest sparse = request;
    sparse.request_id = 44;
    sparse.encoding = gate::FeatureEncoding::kSparseF32;
    sparse.index = {1, 3};
    sparse.dense = {2.0f, 4.0f};
    const auto sparse_response = client.call(sparse);
    ASSERT_TRUE(sparse_response.has_value());
    EXPECT_EQ(sparse_response->status, gate::Status::kOk);
    EXPECT_FLOAT_EQ(sparse_response->margin, -1.0f);

    // A trace block's send stamp is the client's to choose. The wire-in
    // hop subtracts it from the arrival time, and the client's clock
    // sample subtracts its echo: neither may overflow.
    gate::ScoreRequest traced = request;
    traced.request_id = 45;
    traced.trace.ctx = obs::make_root_context();
    traced.trace.send_ts_ns = std::numeric_limits<std::int64_t>::min();
    const auto traced_response = client.call(traced);
    ASSERT_TRUE(traced_response.has_value());
    EXPECT_EQ(traced_response->status, gate::Status::kOk);
    EXPECT_FLOAT_EQ(traced_response->margin, expected);

    EXPECT_TRUE(eventually([&] {
        const gate::GateStats stats = fixture.server->stats();
        return stats.admitted == 4 && stats.completed == 4 &&
            stats.shed == 0;
    })) << "admitted/completed/shed never settled at 4/4/0";
}

TEST(GateEndToEnd, UnknownModelIsNackedWithoutCharge)
{
    GateFixture fixture;
    gate::GateClient client(fixture.address());
    ASSERT_TRUE(client.connected());

    gate::ScoreRequest request;
    request.request_id = 2;
    request.model = "never-published";
    request.dense = {1.0f};
    const auto response = client.call(request);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, gate::Status::kUnknownModel);
    EXPECT_EQ(fixture.server->stats().shed, 1u);
}

TEST(GateEndToEnd, TenantRateLimitShedsExplicitly)
{
    gate::GateConfig config;
    config.admission.tenant_rate = 0.001; // effectively one-shot
    config.admission.tenant_burst = 1.0;
    GateFixture fixture(config);
    gate::GateClient client(fixture.address());
    ASSERT_TRUE(client.connected());

    gate::ScoreRequest request;
    request.request_id = 2;
    request.model = "unit";
    request.tenant = "greedy";
    request.dense = {1.0f, 1.0f, 1.0f, 1.0f};
    const auto first = client.call(request);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->status, gate::Status::kOk);

    request.request_id = 4;
    const auto second = client.call(request);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->status, gate::Status::kResourceExhausted);
    EXPECT_FALSE(second->message.empty()) << "shed must say why";
    EXPECT_EQ(fixture.server->stats().shed, 1u);
}

TEST(GateEndToEnd, MalformedPayloadNackedConnectionSurvives)
{
    GateFixture fixture;
    std::string error;
    net::Fd raw = net::connect_tcp(fixture.address(),
                                   std::chrono::milliseconds(2000), &error);
    ASSERT_TRUE(raw.valid()) << error;

    // Framing intact, payload garbage: the server must NACK kInvalid and
    // keep the connection — the stream is still in sync.
    const std::uint8_t junk[] = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_TRUE(net::write_frame(raw.get(), junk, sizeof(junk)));
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(net::read_frame(raw.get(), payload, 1u << 20),
              net::FrameResult::kOk);
    gate::ScoreResponse nack;
    ASSERT_TRUE(gate::deserialize(payload.data(), payload.size(), nack));
    EXPECT_EQ(nack.status, gate::Status::kInvalid);

    // Same socket, now a well-formed request: still served.
    gate::ScoreRequest request;
    request.request_id = 6;
    request.model = "unit";
    request.dense = {1.0f, 0.0f, 0.0f, 0.0f};
    const std::vector<std::uint8_t> bytes = serialize(request);
    ASSERT_TRUE(net::write_frame(raw.get(), bytes.data(), bytes.size()));
    ASSERT_EQ(net::read_frame(raw.get(), payload, 1u << 20),
              net::FrameResult::kOk);
    gate::ScoreResponse ok;
    ASSERT_TRUE(gate::deserialize(payload.data(), payload.size(), ok));
    EXPECT_EQ(ok.status, gate::Status::kOk);
    EXPECT_FLOAT_EQ(ok.margin, 0.5f);
    EXPECT_EQ(fixture.server->stats().malformed, 1u);
}

TEST(GateEndToEnd, BadMagicDropsConnectionButNotTheServer)
{
    GateFixture fixture;
    std::string error;
    net::Fd poisoned = net::connect_tcp(
        fixture.address(), std::chrono::milliseconds(2000), &error);
    ASSERT_TRUE(poisoned.valid()) << error;

    // A stream that desyncs (wrong magic) is unrecoverable: the server
    // must cut it loose rather than guess at frame boundaries.
    const char garbage[] = "NOTAFRAMENOTAFRAME";
    ASSERT_TRUE(
        net::write_full(poisoned.get(), garbage, sizeof(garbage)));
    char buf = 0;
    long got;
    // The drop shows up on our side as EOF or a reset.
    while ((got = ::recv(poisoned.get(), &buf, 1, 0)) == -1 &&
           errno == EINTR) {}
    EXPECT_TRUE(got == 0 || (got == -1 && errno == ECONNRESET))
        << "server should close a desynced connection, got=" << got;

    // The blast radius is that one socket: new clients still score.
    gate::GateClient client(fixture.address());
    ASSERT_TRUE(client.connected());
    gate::ScoreRequest request;
    request.request_id = 2;
    request.model = "unit";
    request.dense = {0.0f, 1.0f, 0.0f, 0.0f};
    const auto response = client.call(request);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, gate::Status::kOk);
    EXPECT_FLOAT_EQ(response->margin, -1.0f);
    EXPECT_GE(fixture.server->stats().malformed, 1u);
}

/**
 * A raw client that writes `request` frames as fast as the gate takes
 * them and never reads a reply, with a receive buffer as small as the
 * kernel allows, until the gate closes its connection (a send fails) or
 * 30 s pass.
 */
class Flood
{
  public:
    Flood(const net::Address& address, const gate::ScoreRequest& request)
    {
        // The buffer is set before connecting, so the window the client
        // advertises never exceeds it.
        fd_ = net::Fd(::socket(AF_INET, SOCK_STREAM, 0));
        const int small = 4096;
        ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVBUF, &small,
                     sizeof(small));
        sockaddr_in to{};
        to.sin_family = AF_INET;
        to.sin_port = htons(address.port);
        to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::connect(fd_.get(), reinterpret_cast<sockaddr*>(&to),
                            sizeof(to)),
                  0);
        const std::vector<std::uint8_t> frame =
            net::make_frame(serialize(request));
        std::vector<std::uint8_t> burst;
        for (int i = 0; i < 256; ++i)
            burst.insert(burst.end(), frame.begin(), frame.end());
        thread_ = std::thread([this, burst] {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            std::size_t at = 0; // a short send may stop mid-frame
            while (std::chrono::steady_clock::now() < deadline) {
                const long w =
                    ::send(fd_.get(), burst.data() + at, burst.size() - at,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
                if (w > 0) {
                    at = (at + static_cast<std::size_t>(w)) % burst.size();
                } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
                    pollfd writable{fd_.get(), POLLOUT, 0};
                    ::poll(&writable, 1, 50);
                } else if (errno != EINTR) {
                    closed_.store(true); // reset by the gate
                    return;
                }
            }
        });
    }

    ~Flood() { thread_.join(); }

    /// True once the gate has closed the flooding connection.
    bool closed() const { return closed_.load(); }

  private:
    net::Fd fd_;
    std::atomic<bool> closed_{false};
    std::thread thread_; // last: it uses the members above
};

/// Probes the gate with `probe` on its own connection for as long as
/// `flood` runs: every call must be answered, and within 1 s. Then the
/// flood must have been closed, leaving only the probe's connection.
void
expect_flood_stalls_only_itself(GateFixture& fixture, const Flood& flood,
                                gate::ScoreRequest probe)
{
    gate::GateClient client(fixture.address());
    ASSERT_TRUE(client.connected());
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    int calls = 0;
    // A few probes after the close too, while the gate drops its queue.
    for (int after = 0; after < 5;) {
        probe.request_id = 2 * static_cast<std::uint64_t>(++calls);
        const auto sent = std::chrono::steady_clock::now();
        const auto response =
            client.call(probe, std::chrono::milliseconds(1000));
        ASSERT_TRUE(response.has_value())
            << "call " << calls << " waited past 1 s behind the flood";
        EXPECT_EQ(response->status, gate::Status::kOk);
        EXPECT_LT(std::chrono::steady_clock::now() - sent,
                  std::chrono::seconds(1));
        if (flood.closed()) ++after;
        ASSERT_LT(std::chrono::steady_clock::now(), give_up)
            << "the gate never closed the connection that stopped reading";
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(eventually([&] {
        return fixture.registry.gauge("gate.connections").value() == 1.0;
    })) << "the flooding connection is still counted";
}

TEST(GateSlowReader, IngressNacksToAReaderThatStoppedStallOnlyIt)
{
    // Unknown-model requests are refused by the ingress thread itself.
    // Their NACKs pile up on a client that never reads; the thread that
    // reads every connection must never wait on that one.
    gate::GateConfig config;
    config.workers = 1;
    config.max_frame_bytes = 64 * 1024; // outbox bound: one such frame
    GateFixture fixture(config);
    gate::ScoreRequest flood_request;
    flood_request.model = "never-published";
    flood_request.tenant = "flood";
    flood_request.dense = {1.0f};
    const Flood flood(fixture.address(), flood_request);

    gate::ScoreRequest probe;
    probe.model = "unit";
    probe.tenant = "probe";
    probe.dense = {1.0f, 0.0f, 0.0f, 0.0f};
    expect_flood_stalls_only_itself(fixture, flood, probe);
}

TEST(GateSlowReader, WorkerRepliesToAReaderThatStoppedStallOnlyIt)
{
    // The same with admitted requests: the gate's one scoring worker
    // writes their replies, and must never wait on the flooding client.
    gate::GateConfig config;
    config.workers = 1;
    config.max_frame_bytes = 64 * 1024;
    GateFixture fixture(config);
    gate::ScoreRequest flood_request;
    flood_request.model = "unit";
    flood_request.tenant = "flood";
    flood_request.lane = gate::Lane::kBatch;
    flood_request.dense = {1.0f, 1.0f, 1.0f, 1.0f};
    const Flood flood(fixture.address(), flood_request);

    gate::ScoreRequest probe;
    probe.model = "unit";
    probe.tenant = "probe";
    probe.lane = gate::Lane::kInteractive;
    probe.dense = {1.0f, 0.0f, 0.0f, 0.0f};
    expect_flood_stalls_only_itself(fixture, flood, probe);
}

TEST(GateEndToEnd, StopIsIdempotentAndDrains)
{
    GateFixture fixture;
    fixture.server->stop();
    fixture.server->stop(); // second stop must be a no-op
}

// =================================================== GateConcurrency

TEST(GateConcurrency, ParallelTenantsAllGetAnswers)
{
    // The TSan target: event loop + workers + several pipelined clients
    // racing on one server. Every call must come back with SOME verdict
    // (scored or shed) — nothing hangs, nothing crashes.
    gate::GateConfig config;
    config.workers = 2;
    GateFixture fixture(config);

    constexpr int kThreads = 3;
    constexpr int kCalls = 40;
    std::atomic<int> answered{0};
    std::atomic<int> scored{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            gate::GateClient client(fixture.address());
            ASSERT_TRUE(client.connected());
            gate::ScoreRequest request;
            request.model = "unit";
            request.tenant = "tenant-" + std::to_string(t);
            request.dense = {1.0f, 1.0f, 1.0f, 1.0f};
            for (int i = 0; i < kCalls; ++i) {
                request.request_id =
                    static_cast<std::uint64_t>(t) * 1000 + 2 +
                    static_cast<std::uint64_t>(i) * 2;
                request.lane = (i % 2 != 0) ? gate::Lane::kBatch
                                            : gate::Lane::kInteractive;
                const auto response = client.call(request);
                if (!response.has_value()) continue;
                answered.fetch_add(1);
                if (response->status == gate::Status::kOk)
                    scored.fetch_add(1);
            }
        });
    }
    for (auto& thread : clients) thread.join();
    EXPECT_EQ(answered.load(), kThreads * kCalls);
    EXPECT_GT(scored.load(), 0);
    EXPECT_TRUE(eventually([&] {
        const gate::GateStats stats = fixture.server->stats();
        return stats.completed ==
            static_cast<std::uint64_t>(scored.load()) &&
            stats.admitted + stats.shed ==
            static_cast<std::uint64_t>(kThreads * kCalls);
    })) << "server stats never reconciled with client tallies";
}

} // namespace
} // namespace buckwild
