/**
 * @file
 * Tests for the networking tier: net/ socket + frame primitives, the
 * ps/wire.h message serialization (with byte-level goldens pinning the
 * wire format), the CsQ (QSGD) codec, and the SocketTransport fabric up
 * to a full multi-endpoint cluster over loopback TCP.
 *
 * The golden vectors here are the cross-process contract: a payload a
 * worker encodes in one process must decode bit-identically in a shard
 * process built from the same source. Change the wire format and these
 * tests fail by design — bump them consciously.
 */
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/net.h"
#include "obs/registry.h"
#include "obs/tracectx.h"
#include "ps/ps.h"
#include "rng/xorshift.h"
#include "test_common.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "wire_fuzz.h"

namespace buckwild {
namespace {

// ======================================================== NetSocket

TEST(NetSocket, ParsesAddresses)
{
    const net::Address a = net::parse_address("127.0.0.1:7001");
    EXPECT_EQ(a.host, "127.0.0.1");
    EXPECT_EQ(a.port, 7001);
    EXPECT_EQ(a.to_string(), "127.0.0.1:7001");
    const net::Address b = net::parse_address(":9090"); // empty host
    EXPECT_EQ(b.host, "127.0.0.1");
    EXPECT_EQ(b.port, 9090);
    EXPECT_THROW(net::parse_address("no-port"), std::runtime_error);
    EXPECT_THROW(net::parse_address("h:notaport"), std::runtime_error);
    EXPECT_THROW(net::parse_address("h:65536"), std::runtime_error);
}

TEST(NetSocket, ListenConnectRoundTrip)
{
    std::uint16_t port = 0;
    std::string error;
    net::Fd listener = net::listen_tcp("127.0.0.1", 0, 8, &port, &error);
    ASSERT_TRUE(listener.valid()) << error;
    ASSERT_GT(port, 0);
    EXPECT_EQ(net::local_port(listener.get()), port);

    net::Fd client = net::connect_tcp({"127.0.0.1", port},
                                      std::chrono::milliseconds(2000),
                                      &error);
    ASSERT_TRUE(client.valid()) << error;
    net::Fd server = net::accept_client(listener.get(), 2000);
    ASSERT_TRUE(server.valid());

    const char ping[] = "ping!";
    ASSERT_TRUE(net::write_full(client.get(), ping, sizeof(ping)));
    char buf[sizeof(ping)] = {};
    ASSERT_TRUE(net::read_full(server.get(), buf, sizeof(ping)));
    EXPECT_STREQ(buf, ping);
}

TEST(NetSocket, ConnectTimesOutAgainstNobody)
{
    // A port with no listener: bind one to reserve it, close it, then
    // dial it with a short deadline.
    std::uint16_t port = 0;
    {
        net::Fd reserved = net::listen_tcp("127.0.0.1", 0, 1, &port, nullptr);
        ASSERT_TRUE(reserved.valid());
    }
    std::string error;
    net::Fd fd = net::connect_tcp({"127.0.0.1", port},
                                  std::chrono::milliseconds(50), &error);
    EXPECT_FALSE(fd.valid());
    EXPECT_FALSE(error.empty());
}

TEST(NetSocket, AcceptTimesOutWithoutClient)
{
    net::Fd listener = net::listen_tcp("127.0.0.1", 0, 8, nullptr, nullptr);
    ASSERT_TRUE(listener.valid());
    net::Fd none = net::accept_client(listener.get(), /*timeout_ms=*/20);
    EXPECT_FALSE(none.valid());
}

// ========================================================= NetFrame

/// A connected local socket pair for framing tests.
struct SocketPair
{
    net::Fd a, b;
    SocketPair()
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = net::Fd(fds[0]);
        b = net::Fd(fds[1]);
    }
};

TEST(NetFrame, RoundTripsPayloads)
{
    SocketPair pair;
    for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                   std::size_t{7}, std::size_t{4096}}) {
        std::vector<std::uint8_t> payload(size);
        for (std::size_t i = 0; i < size; ++i)
            payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
        ASSERT_TRUE(
            net::write_frame(pair.a.get(), payload.data(), payload.size()));
        std::vector<std::uint8_t> out;
        ASSERT_EQ(net::read_frame(pair.b.get(), out,
                                  net::kDefaultMaxFrameBytes),
                  net::FrameResult::kOk);
        EXPECT_EQ(out, payload);
    }
}

TEST(NetFrame, MakeFrameMatchesWriteFrameBytes)
{
    // The one-buffer frame (gate replies) and the two-send frame must be
    // the same bytes on the wire.
    SocketPair pair;
    for (const std::size_t size : {std::size_t{0}, std::size_t{7},
                                   std::size_t{4096}}) {
        std::vector<std::uint8_t> payload(size);
        for (std::size_t i = 0; i < size; ++i)
            payload[i] = static_cast<std::uint8_t>(i * 13 + 1);
        ASSERT_TRUE(
            net::write_frame(pair.a.get(), payload.data(), payload.size()));
        std::vector<std::uint8_t> wire(net::kFrameHeaderBytes + size);
        ASSERT_TRUE(net::read_full(pair.b.get(), wire.data(), wire.size()));
        EXPECT_EQ(net::make_frame(payload), wire) << size << "-byte payload";
    }
}

TEST(NetFrame, SurvivesPartialDelivery)
{
    // The sender trickles the frame byte by byte — header split, payload
    // split — and the reader's exact-count loops must reassemble it.
    SocketPair pair;
    std::vector<std::uint8_t> payload(97);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i);

    std::vector<std::uint8_t> frame;
    {
        // Build the exact wire image via a scratch socketpair.
        SocketPair scratch;
        ASSERT_TRUE(net::write_frame(scratch.a.get(), payload.data(),
                                     payload.size()));
        frame.resize(net::kFrameHeaderBytes + payload.size());
        ASSERT_TRUE(net::read_full(scratch.b.get(), frame.data(),
                                  frame.size()));
    }

    std::thread writer([&] {
        for (const std::uint8_t byte : frame) {
            ASSERT_TRUE(net::write_full(pair.a.get(), &byte, 1));
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });
    std::vector<std::uint8_t> out;
    EXPECT_EQ(net::read_frame(pair.b.get(), out, net::kDefaultMaxFrameBytes),
              net::FrameResult::kOk);
    EXPECT_EQ(out, payload);
    writer.join();
}

TEST(NetFrame, RejectsBadMagicAndOversizedBeforeAllocating)
{
    SocketPair pair;
    // Bad magic.
    const std::uint8_t junk[8] = {0xDE, 0xAD, 0xBE, 0xEF, 1, 0, 0, 0};
    ASSERT_TRUE(net::write_full(pair.a.get(), junk, sizeof(junk)));
    std::vector<std::uint8_t> out;
    EXPECT_EQ(net::read_frame(pair.b.get(), out, net::kDefaultMaxFrameBytes),
              net::FrameResult::kBadMagic);

    // Good magic, absurd length: rejected by the cap, not allocated.
    SocketPair fresh;
    std::uint8_t header[8];
    const std::uint32_t magic = net::kFrameMagic;
    const std::uint32_t huge = 0x7FFFFFFFu;
    std::memcpy(header, &magic, 4);
    std::memcpy(header + 4, &huge, 4);
    ASSERT_TRUE(net::write_full(fresh.a.get(), header, sizeof(header)));
    EXPECT_EQ(net::read_frame(fresh.b.get(), out, /*max_frame_bytes=*/1024),
              net::FrameResult::kTooLarge);
}

TEST(NetFrame, DistinguishesCleanCloseFromMidFrameEof)
{
    // Peer closes between frames: clean kClosed.
    {
        SocketPair pair;
        pair.a.reset();
        std::vector<std::uint8_t> out;
        EXPECT_EQ(net::read_frame(pair.b.get(), out,
                                  net::kDefaultMaxFrameBytes),
                  net::FrameResult::kClosed);
    }
    // Peer dies mid-header: kError (a desynced stream, not a shutdown).
    {
        SocketPair pair;
        const std::uint8_t partial[3] = {0x50, 0x46, 0x57};
        ASSERT_TRUE(net::write_full(pair.a.get(), partial, sizeof(partial)));
        pair.a.reset();
        std::vector<std::uint8_t> out;
        EXPECT_EQ(net::read_frame(pair.b.get(), out,
                                  net::kDefaultMaxFrameBytes),
                  net::FrameResult::kError);
    }
}

// ========================================================== NetWire

using Message = ps::Message;

Message
sample_push()
{
    ps::Message m;
    m.kind = ps::Message::Kind::kPush;
    m.sender = 3;
    m.token = 0xABCDEF0123456789ull;
    m.worker = 1;
    m.clock = 42;
    m.version = 7;
    std::vector<float> g = {0.5f, -1.25f, 3.0f, -0.125f, 2.0f};
    std::vector<float> residual(g.size(), 0.0f);
    rng::Xorshift128Plus rng(11);
    m.gradient = ps::encode_gradient(g.data(), g.size(),
                                     ps::Codec::qsgd(4), residual.data(),
                                     &rng);
    return m;
}

TEST(NetWire, MessageRoundTripsEveryField)
{
    Message m = sample_push();
    m.stats = {1.5, -2.5, 1e9};
    m.weights = {0.25f, -0.75f};
    m.accepted = false;
    const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
    EXPECT_EQ(bytes.size(), ps::serialized_bytes(m));

    Message out;
    ASSERT_TRUE(ps::deserialize_message(bytes.data(), bytes.size(), out));
    EXPECT_EQ(out.kind, m.kind);
    EXPECT_EQ(out.sender, m.sender);
    EXPECT_EQ(out.token, m.token);
    EXPECT_EQ(out.worker, m.worker);
    EXPECT_EQ(out.clock, m.clock);
    EXPECT_EQ(out.version, m.version);
    EXPECT_EQ(out.accepted, m.accepted);
    EXPECT_EQ(out.gradient.kind, m.gradient.kind);
    EXPECT_EQ(out.gradient.bits, m.gradient.bits);
    EXPECT_EQ(out.gradient.count, m.gradient.count);
    EXPECT_EQ(out.gradient.scale, m.gradient.scale);
    EXPECT_EQ(out.gradient.norms, m.gradient.norms);
    EXPECT_EQ(out.gradient.payload, m.gradient.payload);
    EXPECT_EQ(out.weights, m.weights);
    EXPECT_EQ(out.stats, m.stats);

    // Cross-"process" bit identity: the receiver's decode equals the
    // sender's (same payload bytes, same arithmetic).
    EXPECT_EQ(ps::decode_gradient(out.gradient),
              ps::decode_gradient(m.gradient));
}

TEST(NetWire, GoldenAckBytes)
{
    // The fixed-header golden: pins offsets, widths, and endianness.
    Message m;
    m.kind = Message::Kind::kAck;
    m.accepted = true;
    m.sender = 2;
    m.worker = 3;
    m.token = 0x0102030405060708ull;
    m.clock = 9;
    m.version = 10;
    const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
    const std::vector<std::uint8_t> golden = {
        1, 1, 0, 32,                      // kind=kAck, accepted, Cs32 codec
        2, 0, 0, 0,                       // sender
        3, 0, 0, 0,                       // worker
        8, 7, 6, 5, 4, 3, 2, 1,           // token (LE)
        9, 0, 0, 0, 0, 0, 0, 0,           // clock
        10, 0, 0, 0, 0, 0, 0, 0,          // version
        0, 0, 0, 0,                       // gradient count
        0, 0, 0, 0,                       // gradient scale
        0, 0, 0, 0,                       // norm count
        0, 0, 0, 0,                       // payload size
        0, 0, 0, 0,                       // weight count
        0, 0, 0, 0,                       // stats count
    };
    EXPECT_EQ(bytes, golden);
}

Message
golden_model_reply()
{
    Message m;
    m.kind = Message::Kind::kModel;
    m.sender = 1;
    m.worker = 4;
    m.token = 0x11;
    m.version = 258;
    m.weights = {1.0f, -2.0f, 0.5f};
    return m;
}

TEST(NetWire, GoldenModelReplyBytes)
{
    // A pull reply's weights are the largest array on the wire: pins
    // every element's order and endianness, not just the count.
    const std::vector<std::uint8_t> golden = {
        3, 1, 0, 32,                      // kind=kModel, accepted, Cs32
        1, 0, 0, 0,                       // sender
        4, 0, 0, 0,                       // worker
        0x11, 0, 0, 0, 0, 0, 0, 0,        // token
        0, 0, 0, 0, 0, 0, 0, 0,           // clock
        2, 1, 0, 0, 0, 0, 0, 0,           // version 258
        0, 0, 0, 0,                       // gradient count
        0, 0, 0, 0,                       // gradient scale
        0, 0, 0, 0,                       // norm count
        0, 0, 0, 0,                       // payload size
        3, 0, 0, 0,                       // weight count
        0x00, 0x00, 0x80, 0x3F,           // 1.0f
        0x00, 0x00, 0x00, 0xC0,           // -2.0f
        0x00, 0x00, 0x00, 0x3F,           // 0.5f
        0, 0, 0, 0,                       // stats count
    };
    EXPECT_EQ(ps::serialize_message(golden_model_reply()), golden);
}

TEST(NetWire, GoldenAckWithSliceBytes)
{
    // The ack of an applied push carries the shard's post-apply slice in
    // the counted weight array every message already has: no new flag,
    // so an old parser reads it and an old worker ignores the slice.
    Message m;
    m.kind = Message::Kind::kAck;
    m.accepted = true;
    m.sender = 1;
    m.token = 0x21;
    m.version = 5;
    m.weights = {0.25f, -1.0f};
    const std::vector<std::uint8_t> golden = {
        1, 1, 0, 32,                      // kind=kAck, accepted, Cs32
        1, 0, 0, 0,                       // sender
        0, 0, 0, 0,                       // worker
        0x21, 0, 0, 0, 0, 0, 0, 0,        // token
        0, 0, 0, 0, 0, 0, 0, 0,           // clock
        5, 0, 0, 0, 0, 0, 0, 0,           // version
        0, 0, 0, 0,                       // gradient count
        0, 0, 0, 0,                       // gradient scale
        0, 0, 0, 0,                       // norm count
        0, 0, 0, 0,                       // payload size
        2, 0, 0, 0,                       // weight count
        0x00, 0x00, 0x80, 0x3E,           // 0.25f
        0x00, 0x00, 0x80, 0xBF,           // -1.0f
        0, 0, 0, 0,                       // stats count
    };
    const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
    EXPECT_EQ(bytes, golden);
    Message out;
    ASSERT_TRUE(ps::deserialize_message(bytes.data(), bytes.size(), out));
    EXPECT_EQ(out.kind, Message::Kind::kAck);
    EXPECT_TRUE(out.accepted);
    EXPECT_EQ(out.weights, m.weights);
}

Message
golden_stats_reply()
{
    Message m;
    m.kind = Message::Kind::kStats;
    m.sender = 0;
    m.worker = 2;
    m.token = 5;
    m.stats = {1.0, -0.5, 3.0};
    return m;
}

TEST(NetWire, GoldenStatsReplyBytes)
{
    const std::vector<std::uint8_t> golden = {
        5, 1, 0, 32,                      // kind=kStats, accepted, Cs32
        0, 0, 0, 0,                       // sender
        2, 0, 0, 0,                       // worker
        5, 0, 0, 0, 0, 0, 0, 0,           // token
        0, 0, 0, 0, 0, 0, 0, 0,           // clock
        0, 0, 0, 0, 0, 0, 0, 0,           // version
        0, 0, 0, 0,                       // gradient count
        0, 0, 0, 0,                       // gradient scale
        0, 0, 0, 0,                       // norm count
        0, 0, 0, 0,                       // payload size
        0, 0, 0, 0,                       // weight count
        3, 0, 0, 0,                       // stats count
        0, 0, 0, 0, 0, 0, 0xF0, 0x3F,     // 1.0
        0, 0, 0, 0, 0, 0, 0xE0, 0xBF,     // -0.5
        0, 0, 0, 0, 0, 0, 0x08, 0x40,     // 3.0
    };
    EXPECT_EQ(ps::serialize_message(golden_stats_reply()), golden);
}

TEST(NetWire, HugeArrayCountsFailBeforeAllocating)
{
    // A 60-byte kModel frame whose norm, weight or stats count claims
    // 2^32-1 elements: the parse must fail on the count, not try to
    // allocate 16-32 GiB first.
    Message m;
    m.kind = Message::Kind::kModel;
    const std::vector<std::uint8_t> plain = ps::serialize_message(m);
    ASSERT_EQ(plain.size(), 60u);
    for (const std::size_t count_at : {44u, 52u, 56u}) {
        std::vector<std::uint8_t> bytes = plain;
        std::fill_n(bytes.begin() + static_cast<long>(count_at), 4, 0xFF);
        Message out;
        EXPECT_FALSE(ps::deserialize_message(bytes.data(), bytes.size(), out))
            << "count at offset " << count_at;
    }
}

TEST(NetWire, RejectsTruncationAndTrailingGarbage)
{
    Message m = sample_push();
    m.weights = {1.0f};
    m.stats = {2.0};
    const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
    Message out;
    // Every possible truncation point must be rejected, never crash.
    for (std::size_t n = 0; n < bytes.size(); ++n)
        EXPECT_FALSE(ps::deserialize_message(bytes.data(), n, out))
            << "accepted a " << n << "-byte prefix";
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(
        ps::deserialize_message(padded.data(), padded.size(), out));
    // Unknown kind byte.
    std::vector<std::uint8_t> bad_kind = bytes;
    bad_kind[0] = 250;
    EXPECT_FALSE(
        ps::deserialize_message(bad_kind.data(), bad_kind.size(), out));
}

TEST(NetWire, TraceBlockRoundTripsOnMessages)
{
    Message m = sample_push();
    const std::vector<std::uint8_t> plain = ps::serialize_message(m);

    m.trace.ctx.trace_lo = 0x1111222233334444ull;
    m.trace.ctx.trace_hi = 0x5555666677778888ull;
    m.trace.ctx.span = 0xAAAA;
    m.trace.ctx.parent = 0xBBBB;
    m.trace.send_ts_ns = 123456789;
    m.trace.echo_send_ts_ns = 111;
    m.trace.echo_recv_ts_ns = 222;
    const std::vector<std::uint8_t> traced = ps::serialize_message(m);

    // The trace block is strictly additive: same prefix, 58 more bytes.
    ASSERT_EQ(traced.size(), plain.size() + obs::kTraceBlockBytes);
    EXPECT_EQ(ps::serialized_bytes(m), traced.size());
    EXPECT_EQ(std::memcmp(traced.data(), plain.data(), plain.size()), 0);

    Message out;
    ASSERT_TRUE(
        ps::deserialize_message(traced.data(), traced.size(), out));
    EXPECT_EQ(out.trace.ctx.trace_lo, m.trace.ctx.trace_lo);
    EXPECT_EQ(out.trace.ctx.trace_hi, m.trace.ctx.trace_hi);
    EXPECT_EQ(out.trace.ctx.span, m.trace.ctx.span);
    EXPECT_EQ(out.trace.ctx.parent, m.trace.ctx.parent);
    EXPECT_EQ(out.trace.send_ts_ns, m.trace.send_ts_ns);
    EXPECT_EQ(out.trace.echo_send_ts_ns, m.trace.echo_send_ts_ns);
    EXPECT_EQ(out.trace.echo_recv_ts_ns, m.trace.echo_recv_ts_ns);
    EXPECT_EQ(out.clock, m.clock) << "regular fields still round-trip";

    // Backward compatibility: an old-format (traceless) frame parses in
    // new code as a message with no context.
    Message old_format;
    ASSERT_TRUE(
        ps::deserialize_message(plain.data(), plain.size(), old_format));
    EXPECT_FALSE(old_format.trace.ctx.valid());
}

TEST(NetWire, TraceBlockTruncationSweep)
{
    Message m = sample_push();
    m.weights = {1.0f};
    m.stats = {2.0};
    m.trace.ctx = obs::make_root_context();
    m.trace.send_ts_ns = 42;
    const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
    const std::size_t base = bytes.size() - obs::kTraceBlockBytes;

    // Exactly two prefixes parse: the traceless base layout (an old
    // sender) and the full traced frame. Every cut INSIDE the trace
    // block is trailing garbage and must reject the whole message.
    Message out;
    for (std::size_t n = 0; n <= bytes.size(); ++n) {
        const bool ok = ps::deserialize_message(bytes.data(), n, out);
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

    // A block-sized tail that is not a well-formed trace block is
    // garbage, not a context: corrupt tag, corrupt version, zeroed ids.
    std::vector<std::uint8_t> bad = bytes;
    bad[base] = 0xCF; // tag
    EXPECT_FALSE(ps::deserialize_message(bad.data(), bad.size(), out));
    bad = bytes;
    bad[base + 1] = obs::kTraceBlockVersion + 1;
    EXPECT_FALSE(ps::deserialize_message(bad.data(), bad.size(), out));
    bad = bytes;
    std::fill(bad.begin() + static_cast<long>(base) + 2,
              bad.begin() + static_cast<long>(base) + 18, 0);
    EXPECT_FALSE(ps::deserialize_message(bad.data(), bad.size(), out))
        << "a zero trace id cannot have been emitted";
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(
        ps::deserialize_message(padded.data(), padded.size(), out));
}

/// A sparse Cs8 push with a known encoding (see SparseCs8MessageBytes
/// for the byte-level walk-through).
Message
sample_sparse_push()
{
    Message m;
    m.kind = ps::Message::Kind::kPush;
    m.accepted = false;
    m.sender = 2;
    m.worker = 3;
    m.token = 0x0102030405060708ull;
    m.clock = 9;
    m.version = 10;
    const float value[2] = {127.0f, -127.0f};
    const std::uint32_t index[2] = {3, 10};
    const ps::GradientView view = ps::GradientView::sparse_view(
        value, index, 2, /*dim=*/32, simd::sparse::IndexMode::kAbsolute);
    m.gradient = ps::encode_sparse_gradient(view, ps::Codec::from_bits(8),
                                            nullptr);
    return m;
}

TEST(NetWire, SparsePushRoundTripsThroughSerialization)
{
    const Message m = sample_sparse_push();
    ASSERT_TRUE(m.gradient.sparse());
    const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
    EXPECT_EQ(bytes.size(), ps::serialized_bytes(m));

    Message out;
    ASSERT_TRUE(ps::deserialize_message(bytes.data(), bytes.size(), out));
    EXPECT_EQ(out.gradient.dim, m.gradient.dim);
    EXPECT_EQ(out.gradient.count, m.gradient.count);
    EXPECT_EQ(out.gradient.index_payload, m.gradient.index_payload);
    EXPECT_EQ(out.gradient.payload, m.gradient.payload);

    // Cross-process bit identity of the sparse decode.
    const ps::SparseGradient a = ps::decode_sparse_gradient(m.gradient);
    const ps::SparseGradient b = ps::decode_sparse_gradient(out.gradient);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.index, (std::vector<std::uint32_t>{3, 10}));
    EXPECT_EQ(a.value, (std::vector<float>{127.0f, -127.0f}));
}

TEST(NetWire, SparsePushTruncationSweep)
{
    // Without a trace block only the full frame parses: a cut at the
    // pre-sparse base layout still has flags bit1 set, so the missing
    // sparse block fails the parse instead of silently reading dense.
    Message m = sample_sparse_push();
    const std::vector<std::uint8_t> plain = ps::serialize_message(m);
    Message out;
    for (std::size_t n = 0; n < plain.size(); ++n)
        EXPECT_FALSE(ps::deserialize_message(plain.data(), n, out))
            << "accepted a " << n << "-byte prefix";
    ASSERT_TRUE(
        ps::deserialize_message(plain.data(), plain.size(), out));
    EXPECT_TRUE(out.gradient.sparse());

    // With a trace block: exactly two parse points, the traceless sparse
    // frame and the full frame — same contract as the dense sweep.
    m.trace.ctx = obs::make_root_context();
    m.trace.send_ts_ns = 42;
    const std::vector<std::uint8_t> traced = ps::serialize_message(m);
    const std::size_t base = traced.size() - obs::kTraceBlockBytes;
    for (std::size_t n = 0; n <= traced.size(); ++n) {
        const bool ok = ps::deserialize_message(traced.data(), n, out);
        if (n == base) {
            EXPECT_TRUE(ok) << "traceless sparse frame must stay parseable";
            EXPECT_TRUE(out.gradient.sparse());
            EXPECT_FALSE(out.trace.ctx.valid());
        } else if (n == traced.size()) {
            EXPECT_TRUE(ok);
            EXPECT_TRUE(out.gradient.sparse());
            EXPECT_TRUE(out.trace.ctx.valid());
        } else {
            EXPECT_FALSE(ok) << "accepted a " << n << "-byte prefix";
        }
    }

    // Trailing garbage after the sparse block, a zero dimension, and an
    // unknown flag bit are each a parse failure, not a guess.
    std::vector<std::uint8_t> padded = plain;
    padded.push_back(0);
    EXPECT_FALSE(
        ps::deserialize_message(padded.data(), padded.size(), out));
    std::vector<std::uint8_t> zero_dim = plain;
    const std::size_t dim_at =
        plain.size() - 8 - m.gradient.index_payload.size();
    std::fill(zero_dim.begin() + static_cast<long>(dim_at),
              zero_dim.begin() + static_cast<long>(dim_at) + 4, 0);
    EXPECT_FALSE(
        ps::deserialize_message(zero_dim.data(), zero_dim.size(), out));
    std::vector<std::uint8_t> bad_flags = plain;
    bad_flags[1] |= 4;
    EXPECT_FALSE(
        ps::deserialize_message(bad_flags.data(), bad_flags.size(), out));
}

TEST(NetWire, SparsePushFuzzRoundTrip)
{
    // Random supports and values through every codec tier: the frame
    // must round-trip field-exact and decode bit-identically on the
    // "receiver" side.
    rng::Xorshift128Plus fuzz(0xF00D);
    const ps::Codec codecs[] = {ps::Codec::from_bits(32),
                                ps::Codec::from_bits(8),
                                ps::Codec::from_bits(1), ps::Codec::qsgd(4)};
    for (int trial = 0; trial < 60; ++trial) {
        const std::uint32_t dim = 8 + fuzz() % 3000;
        const std::size_t nnz = fuzz() % std::min<std::uint32_t>(dim, 300);
        std::vector<std::uint32_t> index;
        std::uint32_t cursor = 0;
        for (std::size_t j = 0; j < nnz && cursor < dim; ++j) {
            index.push_back(cursor);
            cursor += 1 + fuzz() % ((dim / 16) + 1);
        }
        std::vector<float> value(index.size());
        for (auto& v : value)
            v = rng::to_unit_float(static_cast<std::uint32_t>(fuzz())) *
                    8.0f -
                4.0f;
        std::vector<float> residual(index.size(), 0.0f);

        const ps::Codec& codec = codecs[trial % 4];
        const ps::GradientView view = ps::GradientView::sparse_view(
            value.data(), index.data(), index.size(), dim,
            simd::sparse::IndexMode::kAbsolute);
        Message m;
        m.kind = ps::Message::Kind::kPush;
        m.sender = static_cast<std::uint32_t>(fuzz());
        m.worker = static_cast<std::uint32_t>(fuzz() % 64);
        m.token = fuzz();
        m.clock = fuzz() % 1000;
        m.gradient =
            ps::encode_sparse_gradient(view, codec, residual.data(), &fuzz);

        const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
        ASSERT_EQ(bytes.size(), ps::serialized_bytes(m));
        Message out;
        ASSERT_TRUE(
            ps::deserialize_message(bytes.data(), bytes.size(), out))
            << "trial " << trial;
        EXPECT_EQ(out.gradient.dim, dim);
        EXPECT_EQ(out.gradient.count, index.size());

        const ps::SparseGradient sent =
            ps::decode_sparse_gradient(m.gradient);
        const ps::SparseGradient received =
            ps::decode_sparse_gradient(out.gradient);
        ASSERT_EQ(received.index, index) << "trial " << trial;
        ASSERT_EQ(received.index, sent.index);
        ASSERT_EQ(received.value, sent.value);
        // And the error-feedback invariant held through the pack:
        // r == g - q entry-by-entry, bit-exact against the decoded q.
        for (std::size_t j = 0; j < index.size(); ++j)
            ASSERT_EQ(residual[j], value[j] - received.value[j])
                << "trial " << trial << " j=" << j;
    }
}

// ======================================================== NetGolden

TEST(NetGolden, Cs8PayloadBytes)
{
    const float g[4] = {127.0f, -127.0f, 0.0f, 64.0f};
    float residual[4] = {};
    const ps::WireGradient wire = ps::encode_gradient(g, 4, 8, residual);
    EXPECT_EQ(wire.kind, ps::CodecKind::kLinear);
    EXPECT_EQ(wire.scale, 1.0f); // maxabs 127 over 127 levels
    const std::vector<std::uint8_t> golden = {0x7F, 0x81, 0x00, 0x40};
    EXPECT_EQ(wire.payload, golden);
}

TEST(NetGolden, Cs1PayloadBytes)
{
    const float g[4] = {1.0f, -2.0f, 3.0f, -4.0f};
    float residual[4] = {};
    const ps::WireGradient wire = ps::encode_gradient(g, 4, 1, residual);
    EXPECT_EQ(wire.kind, ps::CodecKind::kSign);
    EXPECT_EQ(wire.scale, 2.5f); // mean |g|
    // Bit set = negative, bit k % 8: coordinates 1 and 3.
    const std::vector<std::uint8_t> golden = {0x0A};
    EXPECT_EQ(wire.payload, golden);
}

TEST(NetGolden, CsQ4PayloadBytes)
{
    // One bucket, norm 5; ratios {1, 0, 0, 0} land on levels {7, 0, 0, 0}
    // for every dither u in [0, 1) — the golden is rng-independent.
    const float g[4] = {5.0f, 0.0f, 0.0f, 0.0f};
    float residual[4] = {};
    rng::Xorshift128Plus rng(123);
    const ps::WireGradient wire =
        ps::encode_gradient(g, 4, ps::Codec::qsgd(4), residual, &rng);
    EXPECT_EQ(wire.kind, ps::CodecKind::kQsgd);
    ASSERT_EQ(wire.norms.size(), 1u);
    EXPECT_EQ(wire.norms[0], 5.0f);
    // Byte 0: sign bitmap (all positive). Then Elias gamma of levels+1 =
    // {8, 1, 1, 1} MSB-first: 0001000 1 1 1 -> 0x11 0xC0.
    const std::vector<std::uint8_t> golden = {0x00, 0x11, 0xC0};
    EXPECT_EQ(wire.payload, golden);
    // And the decode returns exactly the grid points.
    const std::vector<float> decoded = ps::decode_gradient(wire);
    ASSERT_EQ(decoded.size(), 4u);
    EXPECT_EQ(decoded[0], 5.0f);
    EXPECT_EQ(decoded[1], 0.0f);
    EXPECT_EQ(residual[0], 0.0f);
}

TEST(NetGolden, SparseCs8MessageBytes)
{
    // The sparse-push extension golden: a full serialized frame, byte by
    // byte. Values {127, -127} at coordinates {3, 10} of a 32-dim slice,
    // Cs8: maxabs 127 over 127 levels -> scale 1.0, levels 0x7F / 0x81.
    // Index stream, Elias gamma MSB-first: gamma(first+1) = gamma(4) =
    // 00100, then the gap gamma(10-3) = gamma(7) = 00111 -> bytes
    // 0x21 0xC0. This is the cross-process contract for sparse pushes —
    // change it consciously.
    const Message m = sample_sparse_push();
    const std::vector<std::uint8_t> bytes = ps::serialize_message(m);
    const std::vector<std::uint8_t> golden = {
        0, 2, 1, 8,              // kind=kPush, flags=sparse, Cs8 codec
        2, 0, 0, 0,              // sender
        3, 0, 0, 0,              // worker
        8, 7, 6, 5, 4, 3, 2, 1,  // token (LE)
        9, 0, 0, 0, 0, 0, 0, 0,  // clock
        10, 0, 0, 0, 0, 0, 0, 0, // version
        2, 0, 0, 0,              // gradient count = nnz
        0x00, 0x00, 0x80, 0x3F,  // scale 1.0f
        0, 0, 0, 0,              // norm count
        2, 0, 0, 0,              // payload size
        0x7F, 0x81,              // int8 levels 127, -127
        0, 0, 0, 0,              // weight count
        0, 0, 0, 0,              // stats count
        32, 0, 0, 0,             // sparse dimension
        2, 0, 0, 0,              // index payload size
        0x21, 0xC0,              // gamma(4) gamma(7)
    };
    EXPECT_EQ(bytes, golden);
}

Message
golden_qsgd_push()
{
    // The CsQ4PayloadBytes gradient (one bucket, norm 5) as a push.
    const float g[4] = {5.0f, 0.0f, 0.0f, 0.0f};
    float residual[4] = {};
    rng::Xorshift128Plus rng(123);
    Message m;
    m.kind = Message::Kind::kPush;
    m.sender = 2;
    m.worker = 3;
    m.token = 0x0102030405060708ull;
    m.clock = 9;
    m.version = 10;
    m.gradient =
        ps::encode_gradient(g, 4, ps::Codec::qsgd(4), residual, &rng);
    return m;
}

TEST(NetGolden, CsQ4PushMessageBytes)
{
    // A CsQ push is the one message carrying the per-bucket norm array.
    const std::vector<std::uint8_t> golden = {
        0, 1, 3, 4,              // kind=kPush, accepted, CsQ4 codec
        2, 0, 0, 0,              // sender
        3, 0, 0, 0,              // worker
        8, 7, 6, 5, 4, 3, 2, 1,  // token (LE)
        9, 0, 0, 0, 0, 0, 0, 0,  // clock
        10, 0, 0, 0, 0, 0, 0, 0, // version
        4, 0, 0, 0,              // gradient count
        0, 0, 0, 0,              // scale (unused by QSGD)
        1, 0, 0, 0,              // norm count
        0x00, 0x00, 0xA0, 0x40,  // norm 5.0f
        3, 0, 0, 0,              // payload size
        0x00, 0x11, 0xC0,        // sign bitmap, gamma levels
        0, 0, 0, 0,              // weight count
        0, 0, 0, 0,              // stats count
    };
    EXPECT_EQ(ps::serialize_message(golden_qsgd_push()), golden);
}

/// A serialized message plus the offsets of its gradient count and of
/// every u32 array count / length prefix (ps/wire.h layout).
testutil::FuzzSeed
ps_fuzz_seed(const Message& m)
{
    testutil::FuzzSeed seed{ps::serialize_message(m), {{36, 4}}};
    std::size_t at = 44;
    for (const std::size_t bytes :
         {m.gradient.norms.size() * 4, m.gradient.payload.size(),
          m.weights.size() * 4, m.stats.size() * 8}) {
        seed.counts.push_back({at, 4});
        at += 4 + bytes;
    }
    if (m.gradient.sparse()) {
        seed.counts.push_back({at, 4});     // dimension
        seed.counts.push_back({at + 4, 4}); // index payload size
    }
    return seed;
}

TEST(NetGolden, MutationFuzzKeepsDecoderTotal)
{
    Message traced = golden_qsgd_push();
    traced.trace.ctx = obs::make_root_context();
    traced.trace.send_ts_ns = 42;
    Message traced_sparse = sample_sparse_push();
    traced_sparse.trace = traced.trace;
    std::vector<testutil::FuzzSeed> seeds;
    for (const Message& m :
         {Message{}, golden_model_reply(), golden_stats_reply(),
          golden_qsgd_push(), sample_sparse_push(), traced, traced_sparse})
        seeds.push_back(ps_fuzz_seed(m));

    const std::size_t accepted = testutil::fuzz_decoder(
        seeds, 3000, 0xF022, [](const std::vector<std::uint8_t>& bytes) {
            Message first;
            if (!ps::deserialize_message(bytes.data(), bytes.size(), first))
                return false;
            const std::vector<std::uint8_t> again =
                ps::serialize_message(first);
            EXPECT_EQ(again, bytes);
            Message second;
            EXPECT_TRUE(
                ps::deserialize_message(again.data(), again.size(), second));
            EXPECT_EQ(ps::serialize_message(second), again);
            return true;
        });
    EXPECT_GT(accepted, 1000u);
}

/// A dense push of `width` coordinates through `codec`.
Message
dense_push(std::size_t width, const ps::Codec& codec)
{
    std::vector<float> g(width);
    for (std::size_t k = 0; k < width; ++k)
        g[k] = static_cast<float>(k % 7) - 3.0f;
    rng::Xorshift128Plus rng(7);
    Message m;
    m.kind = Message::Kind::kPush;
    m.sender = 2;
    m.worker = 3;
    m.token = 0x77;
    m.clock = 1;
    m.gradient = ps::encode_gradient(g.data(), width, codec, nullptr, &rng);
    return m;
}

TEST(NetShard, SurvivesEveryWellFramedRequest)
{
    // Any peer can send a frame that parses but that the shard cannot
    // serve. Each must be dropped, never thrown out of run(): that would
    // end a --listen or --spawn shard process and fail every worker.
    constexpr std::size_t kWidth = 32;
    constexpr std::size_t kControl = 7;
    ps::InProcTransport transport(kControl + 1);
    ps::ShardConfig cfg;
    cfg.workers = 4;
    cfg.tau = std::numeric_limits<std::size_t>::max(); // never gate
    ps::ServerShard shard(0, 0, kWidth, cfg, transport);
    std::exception_ptr thrown;
    std::thread serving([&] {
        try {
            shard.run();
        } catch (...) {
            thrown = std::current_exception();
        }
    });
    const std::uint64_t malformed_before =
        obs::MetricsRegistry::global().counter("ps.shard.malformed").value();
    // Each dropped request is counted; only the first few may warn, or
    // any peer could make the shard write a line per frame it sends.
    testing::internal::CaptureStderr();

    // The probes, each built from a valid request.
    std::vector<Message> probes;
    Message m = dense_push(kWidth, ps::Codec::from_bits(32));
    m.worker = 4; // >= workers
    probes.push_back(m);
    probes.push_back(dense_push(kWidth - 1, ps::Codec::from_bits(32)));
    m = dense_push(kWidth, ps::Codec::from_bits(8));
    m.gradient.bits = 3; // not a Cs8 width
    probes.push_back(m);
    m = dense_push(kWidth, ps::Codec::from_bits(32));
    m.gradient.payload.pop_back(); // payload disagrees with the count
    probes.push_back(m);
    m = sample_sparse_push(); // dim 32 = kWidth
    m.gradient.index_payload.push_back(0xFF); // trailing index bytes
    probes.push_back(m);
    m = Message{};
    m.kind = Message::Kind::kAck; // a reply kind
    probes.push_back(m);
    m = dense_push(kWidth, ps::Codec::from_bits(32));
    m.sender = 1000; // no such reply endpoint
    probes.push_back(m);
    m = Message{};
    m.kind = Message::Kind::kRetire;
    m.worker = 9; // unknown worker
    probes.push_back(m);
    for (const Message& probe : probes) {
        const std::vector<std::uint8_t> bytes = ps::serialize_message(probe);
        Message parsed;
        EXPECT_TRUE(ps::deserialize_message(bytes.data(), bytes.size(), parsed))
            << "each probe is a well-framed message";
        transport.send(0, std::move(parsed));
    }

    // Then every accepted mutant of the push seeds, except a well-formed
    // kShutdown, which legitimately ends the loop. Each push gets a fresh
    // clock, so it is decoded rather than acked as a duplicate.
    Message traced = golden_qsgd_push();
    traced.trace.ctx = obs::make_root_context();
    traced.trace.send_ts_ns = 42;
    Message traced_sparse = sample_sparse_push();
    traced_sparse.trace = traced.trace;
    std::vector<testutil::FuzzSeed> seeds;
    for (const Message& seed :
         {golden_qsgd_push(), sample_sparse_push(), traced, traced_sparse,
          dense_push(kWidth, ps::Codec::from_bits(8)),
          dense_push(kWidth, ps::Codec::qsgd(4))})
        seeds.push_back(ps_fuzz_seed(seed));
    std::uint64_t clock = 1000;
    const std::size_t sent = testutil::fuzz_decoder(
        seeds, 2000, 0x5A4D, [&](const std::vector<std::uint8_t>& bytes) {
            Message mutant;
            if (!ps::deserialize_message(bytes.data(), bytes.size(),
                                         mutant) ||
                mutant.kind == Message::Kind::kShutdown)
                return false;
            mutant.clock = ++clock;
            transport.send(0, std::move(mutant));
            return true;
        });
    EXPECT_GT(sent, 1000u);

    // The shard still answers a pull.
    ps::RpcClient rpc(transport, kControl);
    Message pull;
    pull.kind = Message::Kind::kPull;
    std::size_t pulled = 0;
    EXPECT_NO_THROW(pulled = rpc.call(0, std::move(pull)).weights.size());
    EXPECT_EQ(pulled, kWidth);
    transport.close();
    serving.join();
    EXPECT_EQ(thrown, nullptr);
    std::istringstream log(testing::internal::GetCapturedStderr());
    std::size_t warnings = 0;
    for (std::string line; std::getline(log, line);)
        warnings += line.rfind("warn:", 0) == 0 ? 1 : 0;
    EXPECT_GE(warnings, 1u);
    EXPECT_LE(warnings, BoundedWarn::kLimit);
#if BUCKWILD_OBS_ENABLED
    EXPECT_GE(obs::MetricsRegistry::global()
                      .counter("ps.shard.malformed")
                      .value() -
                  malformed_before,
              probes.size());
#else
    (void)malformed_before;
#endif
}

/// A frame payload as the socket fabric sends it: destination endpoint,
/// then the serialized message.
std::vector<std::uint8_t>
fabric_payload(std::uint32_t dest, const Message& m)
{
    std::vector<std::uint8_t> payload;
    net::ByteWriter(payload).u32(dest);
    ps::append_message(m, payload);
    return payload;
}

/// What read_frame takes out of `bytes` written to a socket that is then
/// closed: the frames, and the result that ended the reading.
struct ReadFrames
{
    std::vector<std::vector<std::uint8_t>> frames;
    net::FrameResult end = net::FrameResult::kClosed;
};

ReadFrames
read_frames(const std::vector<std::uint8_t>& bytes,
            std::size_t max_payload_bytes)
{
    SocketPair pair;
    EXPECT_TRUE(net::write_full(pair.a.get(), bytes.data(), bytes.size()));
    pair.a.reset();
    ReadFrames run;
    std::vector<std::uint8_t> payload;
    while ((run.end = net::read_frame(pair.b.get(), payload,
                                      max_payload_bytes)) ==
           net::FrameResult::kOk)
        run.frames.push_back(payload);
    return run;
}

TEST(NetFrame, SplitterMatchesReadFrameOnMutatedStreams)
{
    // FrameSplitter is the socket fabric's only reader. On any byte
    // stream, cut anywhere, it must not throw, must extract exactly the
    // frames read_frame extracts from the same bytes, and must stop
    // where read_frame stops: a clean end, a truncated frame, or the
    // same poison — which then sticks.
    constexpr std::size_t kMaxPayload = 4096;
    Message traced = golden_qsgd_push();
    traced.trace.ctx = obs::make_root_context();
    traced.trace.send_ts_ns = 42;
    const std::vector<testutil::FuzzSeed> seeds = {
        testutil::frame_stream_seed({fabric_payload(3, golden_model_reply()),
                                     fabric_payload(0, golden_stats_reply()),
                                     {}}),
        testutil::frame_stream_seed({fabric_payload(0, golden_qsgd_push()),
                                     fabric_payload(1, sample_sparse_push()),
                                     fabric_payload(2, traced)}),
    };
    rng::Xorshift128Plus cuts(0xC075);
    const std::size_t clean = testutil::fuzz_decoder(
        seeds, 2000, 0x5B11, [&](const std::vector<std::uint8_t>& bytes) {
            const testutil::FrameRun split =
                testutil::split_frames(bytes, kMaxPayload, cuts);
            const ReadFrames whole = read_frames(bytes, kMaxPayload);
            EXPECT_EQ(split.frames, whole.frames);
            switch (whole.end) {
            case net::FrameResult::kClosed:
                EXPECT_EQ(split.end, net::SplitResult::kNeedMore);
                EXPECT_EQ(split.leftover, 0u);
                break;
            case net::FrameResult::kError: // a truncated last frame
                EXPECT_EQ(split.end, net::SplitResult::kNeedMore);
                EXPECT_GT(split.leftover, 0u);
                break;
            case net::FrameResult::kBadMagic:
                EXPECT_EQ(split.end, net::SplitResult::kBadMagic);
                break;
            case net::FrameResult::kTooLarge:
                EXPECT_EQ(split.end, net::SplitResult::kTooLarge);
                break;
            case net::FrameResult::kOk: ADD_FAILURE(); break;
            }
            return whole.end == net::FrameResult::kClosed;
        });
    EXPECT_GT(clean, 500u);
}

// ========================================================== NetQsgd

TEST(NetQsgd, ResidualIsExactlyGradientMinusDecode)
{
    rng::Xorshift128Plus fuzz(31337);
    for (const int bits : {2, 4, 8}) {
        for (int trial = 0; trial < 20; ++trial) {
            const std::size_t n = 1 + fuzz() % 700; // spans >1 bucket
            std::vector<float> g(n), residual(n, 0.0f);
            for (auto& x : g)
                x = (rng::to_unit_float(
                         static_cast<std::uint32_t>(fuzz() >> 32)) -
                     0.5f) *
                    8.0f;
            rng::Xorshift128Plus dither(trial);
            const ps::WireGradient wire = ps::encode_gradient(
                g.data(), n, ps::Codec::qsgd(bits), residual.data(),
                &dither);
            const std::vector<float> q = ps::decode_gradient(wire);
            ASSERT_EQ(q.size(), n);
            for (std::size_t k = 0; k < n; ++k)
                EXPECT_EQ(residual[k], g[k] - q[k])
                    << "bits " << bits << " k " << k;
        }
    }
}

TEST(NetQsgd, StochasticRoundingIsUnbiased)
{
    // E[decode] == g: average many independent encodes of one vector.
    const std::size_t n = 64;
    std::vector<float> g(n);
    rng::Xorshift128Plus init(5);
    for (auto& x : g)
        x = rng::to_unit_float(static_cast<std::uint32_t>(init() >> 32)) -
            0.5f;
    std::vector<double> mean(n, 0.0);
    const int trials = 3000;
    rng::Xorshift128Plus dither(777);
    for (int t = 0; t < trials; ++t) {
        const ps::WireGradient wire = ps::encode_gradient(
            g.data(), n, ps::Codec::qsgd(4), nullptr, &dither);
        const std::vector<float> q = ps::decode_gradient(wire);
        for (std::size_t k = 0; k < n; ++k) mean[k] += q[k];
    }
    for (std::size_t k = 0; k < n; ++k)
        EXPECT_NEAR(mean[k] / trials, g[k], 0.05) << "k " << k;
}

TEST(NetQsgd, CsQ4HalvesCs8Traffic)
{
    // The acceptance ratio: on a realistic (dense, zero-mean) gradient
    // the gamma-coded CsQ4 payload is >= 2x smaller than Cs8's.
    const std::size_t n = 4096;
    std::vector<float> g(n);
    rng::Xorshift128Plus rng(99);
    for (auto& x : g)
        x = (rng::to_unit_float(static_cast<std::uint32_t>(rng() >> 32)) -
             0.5f) *
            2.0f;
    std::vector<float> r8(n, 0.0f), rq(n, 0.0f);
    const ps::WireGradient cs8 = ps::encode_gradient(g.data(), n, 8,
                                                     r8.data());
    rng::Xorshift128Plus dither(7);
    const ps::WireGradient csq = ps::encode_gradient(
        g.data(), n, ps::Codec::qsgd(4), rq.data(), &dither);
    EXPECT_LE(csq.wire_bytes() * 2, cs8.wire_bytes())
        << "CsQ4 " << csq.wire_bytes() << "B vs Cs8 " << cs8.wire_bytes()
        << "B";
}

// ===================================================== NetTransport

/// A listening "shard-side" transport and a dialing "client-side" one,
/// hosting endpoints 0 and 1 of an `endpoints`-endpoint cluster (a raw
/// peer in a test may speak for endpoint 2 of a 3-endpoint one).
struct TransportPair
{
    std::unique_ptr<ps::SocketTransport> server, client;

    explicit TransportPair(
        ps::FaultModel client_faults = {},
        std::chrono::milliseconds connect_timeout =
            std::chrono::milliseconds(5000),
        std::size_t endpoints = 2)
    {
        ps::SocketTransportConfig s;
        s.endpoints = endpoints;
        s.local = 0;
        s.listen = true;
        server = std::make_unique<ps::SocketTransport>(std::move(s));

        ps::SocketTransportConfig c;
        c.endpoints = endpoints;
        c.local = 1;
        c.peers[0] = {"127.0.0.1", server->port()};
        c.connect_timeout = connect_timeout;
        c.faults = client_faults;
        client = std::make_unique<ps::SocketTransport>(std::move(c));
    }

    ~TransportPair()
    {
        client->close();
        server->close();
    }

    /// Serves the server endpoint on its own thread until it closes:
    /// every request is acked with its token and clock.
    void
    echo(WorkerGroup& thread)
    {
        thread.start(1, [this](std::size_t) {
            ps::Message m;
            for (;;) {
                if (!server->recv(0, m, std::chrono::microseconds(500))) {
                    if (server->closed()) return;
                    continue;
                }
                ps::Message reply;
                reply.kind = ps::Message::Kind::kAck;
                reply.token = m.token;
                reply.clock = m.clock;
                server->send(m.sender, std::move(reply));
            }
        });
    }

    /// `calls` RPCs from the client endpoint; each reply must be its own.
    void
    expect_served(std::uint64_t calls)
    {
        ps::RpcClient rpc(*client, 1);
        for (std::uint64_t c = 1; c <= calls; ++c) {
            ps::Message request;
            request.kind = ps::Message::Kind::kPull;
            request.clock = c;
            EXPECT_EQ(rpc.call(0, std::move(request)).clock, c);
        }
    }
};

/// A raw TCP peer dialing the server of `pair`.
net::Fd
dial_raw(const TransportPair& pair)
{
    std::string error;
    net::Fd fd = net::connect_tcp({"127.0.0.1", pair.server->port()},
                                  std::chrono::milliseconds(2000), &error);
    EXPECT_TRUE(fd.valid()) << error;
    return fd;
}

TEST(NetTransport, BothFabricsRejectAJitterBoundThatOverflows)
{
    // At SIZE_MAX the jitter draw's jitter_us + 1 wraps to a modulo by
    // zero, and RpcClient's 8 x jitter_us timeout wraps far below it.
    ps::FaultModel faults;
    faults.jitter_us = std::numeric_limits<std::size_t>::max();
    EXPECT_THROW(ps::InProcTransport(2, faults), std::runtime_error);
    ps::SocketTransportConfig config;
    config.endpoints = 2;
    config.faults = faults;
    EXPECT_THROW(ps::SocketTransport{config}, std::runtime_error);
    ps::PsConfig ps_config;
    ps_config.faults = faults;
    EXPECT_THROW(ps::validate_ps_config(4, ps_config), std::runtime_error)
        << "a --spawn cluster must reject it before forking";

    // The largest bound whose arithmetic fits is taken; one more is not.
    faults.jitter_us = ps::FaultModel::kMaxJitterUs;
    EXPECT_NO_THROW(ps::InProcTransport(2, faults));
    faults.jitter_us += 1;
    EXPECT_THROW(ps::InProcTransport(2, faults), std::runtime_error);
    faults.jitter_us = 0;
    faults.drop_prob = std::nan("");
    config.faults = faults;
    EXPECT_THROW(ps::SocketTransport{config}, std::runtime_error);
}

TEST(NetTransport, DeliversAndRepliesOverLoopback)
{
    TransportPair pair;
    // Echo thread on the server endpoint: replies over the learned route.
    WorkerGroup echo;
    pair.echo(echo);
    pair.expect_served(20);
    pair.server->close();
    echo.join();
    EXPECT_GE(pair.client->sent(), 20u);
    EXPECT_GT(pair.client->sent_bytes(), 0u);
    EXPECT_GT(pair.client->recv_bytes(), 0u);
}

TEST(NetTransport, RpcRetriesThroughInjectedDrops)
{
    ps::FaultModel faults;
    faults.drop_prob = 0.25;
    faults.seed = 99;
    TransportPair pair(faults);
    WorkerGroup echo;
    pair.echo(echo);

    ps::RpcClient rpc(*pair.client, 1);
    for (std::uint64_t c = 1; c <= 50; ++c) {
        ps::Message request;
        request.kind = ps::Message::Kind::kPull;
        request.clock = c;
        const ps::Message reply = rpc.call(0, std::move(request));
        EXPECT_EQ(reply.clock, c); // the reply to THIS call, never stale
    }
    pair.server->close();
    echo.join();
    // A quarter of the traffic vanished; the protocol recovered all of it.
    EXPECT_GT(pair.client->dropped(), 0u);
    EXPECT_GT(rpc.retries(), 0u);
}

TEST(NetTransport, PayloadsCrossTheSocketBitIdentically)
{
    TransportPair pair;
    ps::Message m = sample_push();
    m.sender = 1; // our endpoint in this 2-endpoint cluster
    const std::vector<float> sent_decode = ps::decode_gradient(m.gradient);
    const std::vector<std::uint8_t> sent_payload = m.gradient.payload;
    pair.client->send(0, std::move(m));
    ps::Message out;
    ASSERT_TRUE(pair.server->recv(0, out, std::chrono::microseconds(
                                              2 * 1000 * 1000)));
    EXPECT_EQ(out.gradient.payload, sent_payload);
    EXPECT_EQ(ps::decode_gradient(out.gradient), sent_decode);
}

TEST(NetTransport, TrickledFrameArrivesWhileAnotherConnectionIsServed)
{
    // A raw peer (endpoint 2) writes one request a byte at a time. The
    // serving thread reassembles it from many partial reads, and halfway
    // through it keeps answering the client's connection.
    TransportPair pair({}, std::chrono::milliseconds(5000), 3);
    WorkerGroup echo;
    pair.echo(echo);
    net::Fd raw = dial_raw(pair);
    Message request;
    request.kind = Message::Kind::kPull;
    request.sender = 2;
    request.token = 77;
    request.clock = 5;
    const std::vector<std::uint8_t> frame =
        net::make_frame(fabric_payload(0, request));
    const auto trickle = [&](std::size_t from, std::size_t to) {
        for (std::size_t i = from; i < to; ++i) {
            ASSERT_TRUE(net::write_full(raw.get(), &frame[i], 1));
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    };
    trickle(0, frame.size() / 2);
    pair.expect_served(10);
    trickle(frame.size() / 2, frame.size());

    net::set_recv_timeout(raw.get(), std::chrono::milliseconds(5000));
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(net::read_frame(raw.get(), payload, net::kDefaultMaxFrameBytes),
              net::FrameResult::kOk);
    net::ByteReader reader(payload.data(), payload.size());
    std::uint32_t dest = 0;
    ASSERT_TRUE(reader.u32(&dest));
    EXPECT_EQ(dest, 2u);
    Message reply;
    ASSERT_TRUE(
        ps::deserialize_message(reader.cursor(), reader.remaining(), reply));
    EXPECT_EQ(reply.kind, Message::Kind::kAck);
    EXPECT_EQ(reply.token, 77u);
    EXPECT_EQ(reply.clock, 5u);
    pair.server->close();
    echo.join();
}

TEST(NetTransport, BadMagicPeerIsDroppedOthersKeepBeingServed)
{
    TransportPair pair;
    WorkerGroup echo;
    pair.echo(echo);
    pair.expect_served(3);
    net::Fd raw = dial_raw(pair);
    const std::uint8_t junk[16] = {'G', 'E', 'T', ' ', '/', ' ', 'H', 'T',
                                   'T', 'P', '/', '1', '.', '1', '\r', '\n'};
    ASSERT_TRUE(net::write_full(raw.get(), junk, sizeof(junk)));
    // The server hangs up on the desynchronized stream...
    pollfd hangup{raw.get(), POLLIN, 0};
    ASSERT_EQ(::poll(&hangup, 1, 5000), 1) << "bad-magic peer not dropped";
    std::uint8_t byte = 0;
    EXPECT_LE(::recv(raw.get(), &byte, 1, 0), 0);
    // ...and the well-behaved connection is served as before.
    pair.expect_served(3);
    pair.server->close();
    echo.join();
}

TEST(NetTransport, CloseFromAnotherThreadWakesABlockedRecv)
{
    TransportPair pair;
    std::promise<std::chrono::steady_clock::time_point> woke;
    std::thread waiter([&] {
        ps::Message m;
        EXPECT_FALSE(pair.server->recv(0, m, std::chrono::seconds(10)));
        woke.set_value(std::chrono::steady_clock::now());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto closed_at = std::chrono::steady_clock::now();
    pair.server->close();
    auto returned = woke.get_future();
    ASSERT_EQ(returned.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    EXPECT_LT(returned.get() - closed_at, std::chrono::milliseconds(100));
    waiter.join();
}

TEST(NetTransport, LargeFramesCrossingEachOtherBothComplete)
{
    // Both ends write an 8 MiB frame at the other at once — larger than
    // the socket buffers. Each send finds its socket full while its peer
    // is busy writing too: a send must keep reading inbound frames as it
    // waits, or both block forever (a retransmitted large push crossing
    // a large ack would do exactly this).
    TransportPair pair;
    Message hello;
    hello.kind = Message::Kind::kPull;
    hello.sender = 1;
    pair.client->send(0, std::move(hello)); // teaches the server a route
    Message got;
    ASSERT_TRUE(pair.server->recv(0, got, std::chrono::seconds(5)));

    const std::size_t count = (8u << 20) / sizeof(float);
    const auto big = [count](Message::Kind kind, std::uint32_t sender,
                             float base) {
        Message m;
        m.kind = kind;
        m.sender = sender;
        m.weights.resize(count);
        for (std::size_t i = 0; i < count; ++i)
            m.weights[i] = base + static_cast<float>(i % 4096);
        return m;
    };
    const Message to_client = big(Message::Kind::kModel, 0, 1.0f);
    const Message to_server = big(Message::Kind::kPush, 1, -1.0f);
    Message at_client, at_server;
    std::promise<void> client_done, server_done;
    std::thread client_side([&] {
        Message m = to_server;
        pair.client->send(0, std::move(m));
        EXPECT_TRUE(pair.client->recv(1, at_client, std::chrono::seconds(30)));
        client_done.set_value();
    });
    std::thread server_side([&] {
        Message m = to_client;
        pair.server->send(1, std::move(m));
        EXPECT_TRUE(pair.server->recv(0, at_server, std::chrono::seconds(30)));
        server_done.set_value();
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    const bool finished =
        client_done.get_future().wait_until(deadline) ==
            std::future_status::ready &&
        server_done.get_future().wait_until(deadline) ==
            std::future_status::ready;
    if (!finished) {
        ADD_FAILURE() << "crossing large frames deadlocked";
        pair.client->close(); // unblocks both sides so the test ends
        pair.server->close();
    }
    client_side.join();
    server_side.join();
    EXPECT_EQ(at_client.weights, to_client.weights);
    EXPECT_EQ(at_server.weights, to_server.weights);
}

TEST(NetTransport, LostPeerFailsTheCallNamingIt)
{
    // A shard that answered once and is then gone: the redial that finds
    // nobody for the whole connect timeout must end the call with an
    // error naming the peer, instead of redialing on each of the RPC
    // layer's hundreds of retransmissions.
    TransportPair pair({}, std::chrono::milliseconds(300));
    const std::string address =
        "127.0.0.1:" + std::to_string(pair.server->port());
    WorkerGroup echo;
    pair.echo(echo);
    ps::RpcClient rpc(*pair.client, 1);
    Message first;
    first.kind = Message::Kind::kPull;
    rpc.call(0, std::move(first));
    pair.server->close();
    echo.join();

    std::promise<std::string> outcome;
    std::thread caller([&] {
        try {
            Message again;
            again.kind = Message::Kind::kPull;
            rpc.call(0, std::move(again));
            outcome.set_value("the call returned");
        } catch (const std::runtime_error& e) {
            outcome.set_value(e.what());
        }
    });
    auto result = outcome.get_future();
    if (result.wait_for(std::chrono::seconds(3)) !=
        std::future_status::ready) {
        ADD_FAILURE() << "a call to a lost peer did not fail within 3 s";
        pair.client->close(); // fails the call, so the test ends
    }
    caller.join();
    const std::string what = result.get();
    EXPECT_NE(what.find(address), std::string::npos) << what;
}

// ======================================================= NetCluster

/// Runs a full S-shard, W-worker cluster as separate SocketTransports
/// over loopback — threads standing in for processes, same fabric the
/// forked topology uses (tests/test_net must stay runnable under TSan,
/// where fork-based assertions would not be).
template <typename Problem>
ps::ClusterResult
train_over_sockets(const Problem& problem, const ps::ClusterConfig& cfg)
{
    const std::size_t shards = cfg.shards;
    // Bind every shard listener first: race-free advertised ports.
    std::vector<net::Fd> listeners(shards);
    std::vector<net::Address> addresses(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        std::uint16_t port = 0;
        std::string error;
        listeners[s] = net::listen_tcp("127.0.0.1", 0, 16, &port, &error);
        EXPECT_TRUE(listeners[s].valid()) << error;
        addresses[s] = {"127.0.0.1", port};
    }

    std::vector<ps::ShardMetrics> shard_metrics(shards);
    WorkerGroup shard_threads;
    shard_threads.start(shards, [&](std::size_t s) {
        ps::ShardNodeOptions options;
        options.index = s;
        options.adopt_listen_fd = listeners[s].release();
        shard_metrics[s] = ps::run_shard_node(cfg, problem.dim, options);
    });

    std::vector<ps::WorkerStats> worker_stats(cfg.workers);
    WorkerGroup worker_threads;
    worker_threads.start(cfg.workers, [&](std::size_t w) {
        worker_stats[w] = ps::run_worker_node(cfg, problem, w, addresses);
    });
    worker_threads.join();

    ps::ClusterResult result;
    result.comm = cfg.codec.name();
    {
        ps::ControlClient control(cfg, addresses);
        const std::vector<float> model = control.snapshot(problem.dim);
        ps::evaluate_model(problem, cfg.loss, model, &result.final_loss,
                           &result.accuracy, cfg.impl);
        result.metrics.shards = control.stats();
        control.shutdown();
    }
    shard_threads.join();
    for (const ps::WorkerStats& w : worker_stats) {
        result.rounds += w.rounds;
        result.metrics.rpc_retries += w.retries;
    }
    return result;
}

ps::ClusterConfig
socket_cluster_config(const ps::Codec& codec)
{
    ps::ClusterConfig cfg;
    cfg.workers = 2;
    cfg.shards = 2;
    cfg.codec = codec;
    cfg.rounds = 100;
    cfg.batch = 16;
    cfg.tau = 8;
    cfg.step_size = 0.25f;
    return cfg;
}

TEST(NetCluster, SocketClusterMatchesInProcessConvergence)
{
    const auto& problem = testutil::cluster_problem();
    for (const ps::Codec& codec :
         {ps::Codec::from_bits(32), ps::Codec::qsgd(4)}) {
        const ps::ClusterConfig cfg = socket_cluster_config(codec);
        const ps::ClusterResult socket = train_over_sockets(problem, cfg);
        const ps::ClusterResult inproc = ps::train_cluster(problem, cfg);
        EXPECT_EQ(socket.rounds, 200u) << codec.name();
        EXPECT_EQ(socket.metrics.total_pushes(), 400u) << codec.name();
        // Same round loop, same codec arithmetic, different fabric: the
        // two runs converge alike (asynchrony makes them nondeterministic,
        // so "alike" is a tolerance, not equality).
        EXPECT_NEAR(socket.accuracy, inproc.accuracy, 0.05) << codec.name();
        EXPECT_LT(socket.final_loss, inproc.final_loss + 0.1)
            << codec.name();
    }
#if BUCKWILD_OBS_ENABLED
    // The real framed traffic registered in the obs counters (compiled
    // out — and so legitimately zero — under -DBUCKWILD_OBS=OFF).
    EXPECT_GT(obs::MetricsRegistry::global()
                  .counter("net.sent_bytes")
                  .value(),
              0u);
    EXPECT_GT(obs::MetricsRegistry::global()
                  .counter("net.frames_recv")
                  .value(),
              0u);
#endif
}

TEST(NetCluster, SurvivesFaultInjectionOverSockets)
{
    // The acceptance criterion: drop/reorder/retransmit chaos against
    // the REAL socket transport, protocol still exactly-once.
    const auto& problem = testutil::cluster_problem();
    ps::ClusterConfig cfg = socket_cluster_config(ps::Codec::from_bits(1));
    cfg.tau = 6;
    cfg.faults.drop_prob = 0.05;
    cfg.faults.jitter_us = 5;
    cfg.faults.reorder_window = 3;
    const ps::ClusterResult r = train_over_sockets(problem, cfg);
    EXPECT_GT(r.metrics.rpc_retries, 0u); // drops really happened
    // Exactly-once: every round applied despite retransmissions.
    EXPECT_EQ(r.metrics.total_pushes(), 2u * 2u * 100u);
    EXPECT_LE(r.metrics.max_staleness(), 6u);
    EXPECT_GT(r.accuracy, 0.75);
}

TEST(NetCluster, SparsePushesCrossRealSockets)
{
    // The sparse gradient path over the REAL socket fabric: gamma-coded
    // index streams framed, shipped, and gather-scatter applied, with
    // nnz accounting surviving the trip.
    const auto& problem = testutil::sparse_cluster_problem();
    for (const ps::Codec& codec :
         {ps::Codec::from_bits(32), ps::Codec::qsgd(4)}) {
        const ps::ClusterConfig cfg = socket_cluster_config(codec);
        const ps::ClusterResult socket = train_over_sockets(problem, cfg);
        const ps::ClusterResult inproc = ps::train_cluster(problem, cfg);
        EXPECT_EQ(socket.rounds, 200u) << codec.name();
        EXPECT_EQ(socket.metrics.total_pushes(), 400u) << codec.name();
        EXPECT_GT(socket.metrics.total_sparse_nnz(), 0u) << codec.name();
        EXPECT_GT(socket.metrics.total_sparse_bytes(), 0u) << codec.name();
        EXPECT_NEAR(socket.accuracy, inproc.accuracy, 0.05) << codec.name();
    }
}

TEST(NetCluster, SpawnRejectsBadConfigBeforeForking)
{
    // A shard process that rejects its configuration dies in its
    // constructor, and the forked workers would then keep dialing its
    // listener: the spawning trainer must reject the configuration the
    // in-process trainer rejects, before it forks anything.
    const auto& problem = testutil::cluster_problem();
    const auto expect_rejected = [&](const ps::ClusterConfig& cfg) {
        EXPECT_THROW(ps::train_cluster_multiprocess(problem, cfg),
                     std::runtime_error);
        errno = 0;
        EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1)
            << "a child was forked";
        EXPECT_EQ(errno, ECHILD);
    };
    ps::ClusterConfig cfg = socket_cluster_config(ps::Codec::from_bits(8));
    cfg.step_size = 0.0f;
    expect_rejected(cfg);
    cfg = socket_cluster_config(ps::Codec::from_bits(8));
    cfg.batch = 0;
    expect_rejected(cfg);
    cfg = socket_cluster_config(ps::Codec::from_bits(8));
    cfg.workers = 0;
    expect_rejected(cfg);
}

} // namespace
} // namespace buckwild
