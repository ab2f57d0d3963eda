/**
 * @file
 * Tests for the observability layer (src/obs):
 *
 *  - ObsRegistry: create-or-get instrument semantics, counter
 *    monotonicity, histogram percentiles agreeing with
 *    util::percentile_of, ordered snapshots, reset;
 *  - ObsTrace: ring overflow/drop accounting, runtime enable gating of
 *    ScopedSpan, cross-thread flush merge ordering;
 *  - ObsExport: golden-JSON output for both exporters plus a file
 *    round-trip through TempFile;
 *  - ObsMacros: the instrumentation macros hit the global registry when
 *    compiled in (and this suite still passes with BUCKWILD_OBS=OFF,
 *    where they expand to no-ops);
 *  - ObsStress: the TSan target — concurrent spans/counters/histograms
 *    with exact final counts.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "obs/tracectx.h"
#include "test_common.h"
#include "util/stats.h"
#include "wire_fuzz.h"

namespace buckwild {
namespace {

// ------------------------------------------------------------- registry

TEST(ObsRegistry, CounterCreateOrGetAndMonotonic)
{
    obs::MetricsRegistry registry;
    obs::Counter& a = registry.counter("requests");
    obs::Counter& b = registry.counter("requests");
    EXPECT_EQ(&a, &b) << "same name must return the same instrument";

    EXPECT_EQ(a.value(), 0u);
    a.add();
    a.add(41);
    EXPECT_EQ(b.value(), 42u);
    b.add(0);
    EXPECT_EQ(a.value(), 42u) << "add(0) must not move the counter";
}

TEST(ObsRegistry, GaugeSetAndAccumulate)
{
    obs::MetricsRegistry registry;
    obs::Gauge& g = registry.gauge("busy_seconds");
    g.set(1.5);
    EXPECT_DOUBLE_EQ(g.value(), 1.5);
    g.add(0.25);
    g.add(0.25);
    EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(ObsRegistry, HistogramPercentilesAgreeWithUtil)
{
    obs::MetricsRegistry registry;
    obs::Histo& h = registry.histogram("latency");
    std::vector<double> xs;
    // A deliberately unsorted, duplicated sample.
    for (int i = 0; i < 257; ++i)
        xs.push_back(static_cast<double>((i * 97) % 64));
    for (double x : xs) h.record(x);

    for (double p : {0.0, 12.5, 50.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), percentile_of(xs, p))
            << "p = " << p;
    EXPECT_EQ(h.count(), xs.size());
}

TEST(ObsRegistry, ReservoirIsExactBelowCap)
{
    obs::Histo h(/*reservoir_cap=*/128);
    for (int i = 0; i < 100; ++i) h.record(static_cast<double>(i));
    EXPECT_FALSE(h.sampled());
    EXPECT_EQ(h.samples().size(), 100u)
        << "below the cap every sample is kept verbatim";
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 49.5);
    const auto summary = h.summary();
    EXPECT_EQ(summary.reservoir_cap, 128u);
    EXPECT_FALSE(summary.sampled);
}

TEST(ObsRegistry, ReservoirBoundsMemoryPastCap)
{
    constexpr std::size_t kCap = 64;
    obs::Histo h(kCap);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        h.record(static_cast<double>(i));
        sum += static_cast<double>(i);
    }
    EXPECT_EQ(h.samples().size(), kCap)
        << "the reservoir must never grow past its cap";
    EXPECT_TRUE(h.sampled());
    // count/sum/min/max stay exact running totals regardless of sampling.
    EXPECT_EQ(h.count(), 10000u);
    EXPECT_DOUBLE_EQ(h.sum(), sum);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 9999.0);
    const auto summary = h.summary();
    EXPECT_TRUE(summary.sampled);
    EXPECT_EQ(summary.reservoir_cap, kCap);
}

TEST(ObsRegistry, ReservoirIsDeterministicAndResetsClean)
{
    auto fill = [](obs::Histo& h) {
        for (int i = 0; i < 5000; ++i)
            h.record(static_cast<double>((i * 131) % 977));
    };
    obs::Histo a(256), b(256);
    fill(a);
    fill(b);
    EXPECT_EQ(a.samples(), b.samples())
        << "fixed-seed reservoirs must subsample identically";

    // reset() must restore the RNG too, so a reused instrument replays
    // the same reservoir for the same input stream.
    const std::vector<double> first = a.samples();
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    fill(a);
    EXPECT_EQ(a.samples(), first);
}

TEST(ObsRegistry, ReservoirPercentileStaysAReasonableEstimate)
{
    // Uniform 0..9999 through a 512-slot reservoir: the subsampled p50
    // must land near the true median (the seed is fixed, so this bound
    // is deterministic, not flaky).
    obs::Histo h(512);
    for (int i = 0; i < 10000; ++i) h.record(static_cast<double>(i));
    EXPECT_NEAR(h.percentile(50.0), 5000.0, 750.0);
    EXPECT_NEAR(h.percentile(95.0), 9500.0, 400.0);
}

TEST(ObsRegistry, SnapshotIsOrderedAndComplete)
{
    obs::MetricsRegistry registry;
    registry.counter("z.last").add(3);
    registry.counter("a.first").add(1);
    registry.gauge("m.middle").set(0.5);
    registry.histogram("h").record(2.0);
    registry.histogram("h").record(4.0);

    const obs::MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters.begin()->first, "a.first");
    EXPECT_EQ(snap.counters.at("z.last"), 3u);
    EXPECT_DOUBLE_EQ(snap.gauges.at("m.middle"), 0.5);
    const auto& h = snap.histograms.at("h");
    EXPECT_EQ(h.count, 2u);
    EXPECT_DOUBLE_EQ(h.sum, 6.0);
    EXPECT_DOUBLE_EQ(h.min, 2.0);
    EXPECT_DOUBLE_EQ(h.max, 4.0);
    EXPECT_DOUBLE_EQ(h.p50, 3.0);
}

TEST(ObsRegistry, ResetZeroesButKeepsHandles)
{
    obs::MetricsRegistry registry;
    obs::Counter& c = registry.counter("c");
    obs::Histo& h = registry.histogram("h");
    c.add(7);
    h.record(1.0);
    registry.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    c.add(1);
    EXPECT_EQ(registry.counter("c").value(), 1u)
        << "handles must stay live across reset";
}

// ---------------------------------------------------------------- trace

TEST(ObsTrace, RingOverflowDropsAndCounts)
{
    obs::TraceRing ring(4, 1);
    obs::TraceEvent ev;
    ev.name = "e";
    ev.category = "t";
    for (int i = 0; i < 4; ++i) {
        ev.ts_ns = i;
        EXPECT_TRUE(ring.record(ev));
    }
    EXPECT_FALSE(ring.record(ev)) << "a full ring must drop, not grow";
    EXPECT_FALSE(ring.record(ev));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 2u);

    std::vector<obs::TraceEvent> out;
    ring.drain(out);
    EXPECT_EQ(out.size(), 4u);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.dropped(), 0u) << "drain resets the drop count";
    EXPECT_TRUE(ring.record(ev)) << "a drained ring accepts again";
}

TEST(ObsTrace, ScopedSpanRecordsOnlyWhenEnabled)
{
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.flush(); // isolate from earlier tests

    tracer.set_enabled(false);
    {
        obs::ScopedSpan span("test", "disabled");
    }
    EXPECT_TRUE(tracer.flush().empty());

    tracer.set_enabled(true);
    {
        obs::ScopedSpan span("test", "enabled");
    }
    tracer.set_enabled(false);
    const auto events = tracer.flush();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "enabled");
    EXPECT_STREQ(events[0].category, "test");
    EXPECT_EQ(events[0].type, obs::TraceEvent::Type::kComplete);
    EXPECT_GE(events[0].dur_ns, 0);
}

TEST(ObsTrace, FlushMergesThreadRingsSortedByTimestamp)
{
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.flush();
    tracer.set_enabled(true);

    constexpr int kThreads = 4;
    constexpr int kEvents = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&tracer] {
            for (int i = 0; i < kEvents; ++i)
                tracer.instant("test", "tick");
        });
    for (auto& th : threads) th.join();
    tracer.set_enabled(false);

    const auto events = tracer.flush();
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(kThreads) * kEvents);
    EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                               [](const auto& a, const auto& b) {
                                   return a.ts_ns < b.ts_ns;
                               }));
    // Every emitting thread contributed under its own trace tid.
    std::vector<std::uint32_t> tids;
    for (const auto& ev : events) tids.push_back(ev.tid);
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

// -------------------------------------------------------------- tracectx

TEST(ObsTraceCtx, RootAndChildLineage)
{
    const obs::TraceContext a = obs::make_root_context();
    const obs::TraceContext b = obs::make_root_context();
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(b.valid());
    EXPECT_FALSE(a.same_trace(b)) << "roots must not share a trace id";
    EXPECT_EQ(a.parent, 0u);

    const obs::TraceContext child = obs::child_of(a);
    EXPECT_TRUE(child.valid());
    EXPECT_TRUE(child.same_trace(a));
    EXPECT_EQ(child.parent, a.span);
    EXPECT_NE(child.span, a.span);

    EXPECT_FALSE(obs::child_of(obs::TraceContext{}).valid());
}

TEST(ObsTraceCtx, HexIdsAreFixedWidthLowercase)
{
    obs::TraceContext ctx;
    ctx.trace_lo = 0xabc;
    ctx.trace_hi = 0x1;
    EXPECT_EQ(obs::trace_id_hex(ctx),
              "00000000000000010000000000000abc");
    EXPECT_EQ(obs::span_id_hex(0xDEADBEEFull), "00000000deadbeef");
}

TEST(ObsTraceCtx, WireBlockRoundTripAndRejections)
{
    obs::WireTrace in;
    in.ctx.trace_lo = 0x1111;
    in.ctx.trace_hi = 0x2222;
    in.ctx.span = 0x3333;
    in.ctx.parent = 0x4444;
    in.send_ts_ns = 1234567;
    in.echo_send_ts_ns = 7;
    in.echo_recv_ts_ns = 9;
    std::vector<std::uint8_t> bytes;
    obs::append_trace_block(bytes, in);
    ASSERT_EQ(bytes.size(), obs::kTraceBlockBytes);
    EXPECT_EQ(bytes[0], obs::kTraceBlockTag);
    EXPECT_EQ(bytes[1], obs::kTraceBlockVersion);

    obs::WireTrace out;
    ASSERT_TRUE(obs::parse_trace_block(bytes.data(), bytes.size(), out));
    EXPECT_EQ(out.ctx.trace_lo, in.ctx.trace_lo);
    EXPECT_EQ(out.ctx.trace_hi, in.ctx.trace_hi);
    EXPECT_EQ(out.ctx.span, in.ctx.span);
    EXPECT_EQ(out.ctx.parent, in.ctx.parent);
    EXPECT_EQ(out.send_ts_ns, in.send_ts_ns);
    EXPECT_EQ(out.echo_send_ts_ns, in.echo_send_ts_ns);
    EXPECT_EQ(out.echo_recv_ts_ns, in.echo_recv_ts_ns);

    // The parser takes exactly one block — nothing shorter or longer.
    for (std::size_t n = 0; n < bytes.size(); ++n)
        EXPECT_FALSE(obs::parse_trace_block(bytes.data(), n, out));
    std::vector<std::uint8_t> longer = bytes;
    longer.push_back(0);
    EXPECT_FALSE(
        obs::parse_trace_block(longer.data(), longer.size(), out));

    std::vector<std::uint8_t> bad = bytes;
    bad[0] = 0xCF; // tag
    EXPECT_FALSE(obs::parse_trace_block(bad.data(), bad.size(), out));
    bad = bytes;
    bad[1] = obs::kTraceBlockVersion + 1;
    EXPECT_FALSE(obs::parse_trace_block(bad.data(), bad.size(), out));
    bad = bytes;
    std::fill(bad.begin() + 2, bad.begin() + 18, 0); // zero trace id
    EXPECT_FALSE(obs::parse_trace_block(bad.data(), bad.size(), out));
}

TEST(ObsTraceCtx, WireBlockMutationFuzzKeepsParserTotal)
{
    obs::WireTrace in;
    in.ctx = obs::make_root_context();
    in.send_ts_ns = 1234567;
    in.echo_send_ts_ns = 7;
    in.echo_recv_ts_ns = 9;
    testutil::FuzzSeed seed;
    obs::append_trace_block(seed.bytes, in);
    const std::size_t accepted = testutil::fuzz_decoder(
        {seed}, 3000, 0x7ACE, [](const std::vector<std::uint8_t>& bytes) {
            obs::WireTrace first;
            if (!obs::parse_trace_block(bytes.data(), bytes.size(), first))
                return false;
            std::vector<std::uint8_t> again;
            obs::append_trace_block(again, first);
            EXPECT_EQ(again, bytes);
            obs::WireTrace second;
            EXPECT_TRUE(
                obs::parse_trace_block(again.data(), again.size(), second));
            std::vector<std::uint8_t> third;
            obs::append_trace_block(third, second);
            EXPECT_EQ(third, again);
            return true;
        });
    EXPECT_GT(accepted, 1000u);
}

TEST(ObsTraceCtx, ClockSampleFromReply)
{
    // The NTP identity on a hand-built exchange: request sent at a1,
    // received at b1 (responder clock), reply sent at b2, received at
    // a2 (local clock again).
    obs::WireTrace reply;
    reply.ctx.trace_lo = 1;
    reply.echo_send_ts_ns = 1000; // a1
    reply.echo_recv_ts_ns = 5400; // b1
    reply.send_ts_ns = 5600;      // b2
    const obs::ClockSample s = obs::clock_sample_from_reply(reply, 2000);
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.offset_ns, 4000); // ((5400-1000)+(5600-2000))/2
    EXPECT_EQ(s.rtt_ns, 800);     // (2000-1000)-(5600-5400)

    // A request block (no echoes) is not a sample.
    obs::WireTrace request;
    request.ctx.trace_lo = 1;
    request.send_ts_ns = 42;
    EXPECT_FALSE(obs::clock_sample_from_reply(request, 100).valid);
    // Non-causal timestamps (a2 < a1) are refused, not averaged in.
    EXPECT_FALSE(obs::clock_sample_from_reply(reply, 500).valid);

    // Three of the stamps are the peer's, so any int64 can arrive. A
    // sample whose differences do not fit in int64 is refused; every
    // other one is exact.
    const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
    const std::int64_t stamps[] = {lo, lo + 1, -1, 1, 5400, hi - 1, hi};
    for (const std::int64_t a1 : stamps)
        for (const std::int64_t b1 : stamps)
            for (const std::int64_t b2 : stamps)
                for (const std::int64_t a2 : stamps) {
                    reply.echo_send_ts_ns = a1;
                    reply.echo_recv_ts_ns = b1;
                    reply.send_ts_ns = b2;
                    const obs::ClockSample x =
                        obs::clock_sample_from_reply(reply, a2);
                    if (!x.valid) continue;
                    using Wide = __int128;
                    EXPECT_EQ(Wide{x.offset_ns},
                              (Wide{b1} - a1 + (Wide{b2} - a2)) / 2);
                    EXPECT_EQ(Wide{x.rtt_ns},
                              Wide{a2} - a1 - (Wide{b2} - b1));
                }
}

// --------------------------------------------------------------- export

TEST(ObsExport, ChromeTraceGoldenJson)
{
    std::vector<obs::TraceEvent> events(3);
    events[0].category = "test";
    events[0].name = "work";
    events[0].type = obs::TraceEvent::Type::kComplete;
    events[0].tid = 3;
    events[0].ts_ns = 1000;
    events[0].dur_ns = 500;
    events[1].category = "io";
    events[1].name = "bytes";
    events[1].type = obs::TraceEvent::Type::kCounter;
    events[1].tid = 1;
    events[1].ts_ns = 2000;
    events[1].value = 7.0;
    events[2].category = "io";
    events[2].name = "mark";
    events[2].type = obs::TraceEvent::Type::kInstant;
    events[2].tid = 2;
    events[2].ts_ns = 2500;

    std::ostringstream out;
    obs::write_chrome_trace(out, events);
    const std::string golden =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        "{\"name\":\"work\",\"cat\":\"test\",\"pid\":1,\"tid\":3,"
        "\"ts\":1,\"ph\":\"X\",\"dur\":0.5}\n"
        ",{\"name\":\"bytes\",\"cat\":\"io\",\"pid\":1,\"tid\":1,"
        "\"ts\":2,\"ph\":\"C\",\"args\":{\"value\":7}}\n"
        ",{\"name\":\"mark\",\"cat\":\"io\",\"pid\":1,\"tid\":2,"
        "\"ts\":2.5,\"ph\":\"i\",\"s\":\"t\"}]}\n";
    EXPECT_EQ(out.str(), golden);
}

TEST(ObsExport, ProcessMetadataAndTraceArgs)
{
    std::vector<obs::TraceEvent> events(2);
    events[0].category = "gate";
    events[0].name = "gate.score";
    events[0].type = obs::TraceEvent::Type::kComplete;
    events[0].tid = 1;
    events[0].ts_ns = 1000;
    events[0].dur_ns = 500;
    events[0].ctx.trace_lo = 0xab;
    events[0].ctx.span = 2;
    events[0].ctx.parent = 1;
    events[1].category = "gate";
    events[1].name = "clocksync";
    events[1].type = obs::TraceEvent::Type::kClockSync;
    events[1].tid = 1;
    events[1].ts_ns = 2000;
    events[1].value = 250.0; // offset_ns
    events[1].dur_ns = 80;   // rtt_ns
    events[1].ctx.trace_lo = 0xab;
    events[1].ctx.span = 3;

    obs::TraceProcessInfo process;
    process.label = "worker1";
    process.pid = 42;
    std::ostringstream out;
    obs::write_chrome_trace(out, events, process);
    const std::string text = out.str();
    // Process metadata names the pid buckwild_tracemerge shows.
    EXPECT_NE(text.find("\"name\":\"process_name\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("\"name\":\"worker1\""), std::string::npos);
    EXPECT_NE(text.find("\"pid\":42"), std::string::npos);
    // Traced events carry their fixed-width hex identity in args.
    EXPECT_NE(
        text.find(
            "\"trace\":\"000000000000000000000000000000ab\""),
        std::string::npos);
    EXPECT_NE(text.find("\"span\":\"0000000000000002\""),
              std::string::npos);
    EXPECT_NE(text.find("\"parent\":\"0000000000000001\""),
              std::string::npos);
    // The clocksync instant exposes its offset/rtt for the merge tool.
    EXPECT_NE(text.find("\"offset_ns\":250"), std::string::npos);
    EXPECT_NE(text.find("\"rtt_ns\":80"), std::string::npos);

    // Without a label the traditional single-process shape is emitted:
    // fixed pid 1, no metadata event (the golden above pins it).
    std::ostringstream plain;
    obs::write_chrome_trace(plain, events);
    EXPECT_EQ(plain.str().find("process_name"), std::string::npos);
    EXPECT_NE(plain.str().find("\"pid\":1,"), std::string::npos);
}

TEST(ObsExport, FlatMetricsGoldenJson)
{
    obs::MetricsRegistry registry;
    registry.counter("x.count").add(3);
    registry.gauge("g").set(1.5);
    obs::Histo& h = registry.histogram("h");
    // Equal samples so every percentile is bit-exact (interpolation
    // between equal neighbors), keeping the golden string stable.
    h.record(2.5);
    h.record(2.5);

    std::ostringstream out;
    obs::write_flat_metrics(out, registry.snapshot());
    const std::string golden =
        "{\"counters\":{\n"
        "\"x.count\":3},\"gauges\":{\n"
        "\"g\":1.5},\"histograms\":{\n"
        "\"h\":{\"count\":2,\"sum\":5,\"min\":2.5,\"max\":2.5,"
        "\"p50\":2.5,\"p95\":2.5,\"p99\":2.5}}}\n";
    EXPECT_EQ(out.str(), golden);
}

TEST(ObsExport, FlatMetricsNotesReservoirSampling)
{
    // Once a histogram starts subsampling, the export must say so (the
    // percentiles are estimates from that point on). A small registry
    // histogram cannot be given a custom cap, so this drives the default
    // cap over the edge.
    obs::MetricsRegistry registry;
    obs::Histo& h = registry.histogram("lat");
    for (std::size_t i = 0; i < obs::Histo::kDefaultReservoir + 1; ++i)
        h.record(1.0);

    std::ostringstream out;
    obs::write_flat_metrics(out, registry.snapshot());
    EXPECT_NE(out.str().find("\"sampled\":true,\"reservoir\":8192"),
              std::string::npos)
        << out.str();
}

TEST(ObsExport, JsonEscapesAndNonFiniteValues)
{
    std::ostringstream out;
    obs::JsonWriter w(out);
    w.begin_object();
    w.key("quote\"back\\slash\nline").value("tab\there");
    w.key("nan").value(std::nan(""));
    w.end_object();
    EXPECT_EQ(out.str(),
              "{\"quote\\\"back\\\\slash\\nline\":\"tab\\there\","
              "\"nan\":null}");
}

TEST(ObsExport, MetricsFileRoundTrip)
{
    obs::MetricsRegistry registry;
    registry.counter("written").add(11);
    registry.histogram("lat").record(0.25);

    testutil::TempFile file("metrics");
    ASSERT_TRUE(obs::export_metrics_file(file.path(), registry));

    std::ifstream in(file.path());
    std::stringstream read_back;
    read_back << in.rdbuf();
    std::ostringstream direct;
    obs::write_flat_metrics(direct, registry.snapshot());
    EXPECT_EQ(read_back.str(), direct.str())
        << "file bytes must match the streamed exporter exactly";
    EXPECT_NE(read_back.str().find("\"written\":11"), std::string::npos);
}

TEST(ObsExport, RejectsUnwritablePath)
{
    obs::MetricsRegistry registry;
    EXPECT_FALSE(
        obs::export_metrics_file("/nonexistent/dir/metrics.json", registry));
    EXPECT_FALSE(obs::export_trace_file("/nonexistent/dir/trace.json"));
}

// --------------------------------------------------------------- macros

TEST(ObsMacros, CountersHitTheGlobalRegistryWhenCompiledIn)
{
    obs::Counter& c =
        obs::MetricsRegistry::global().counter("test.macro_counter");
    const std::uint64_t before = c.value();
    BUCKWILD_OBS_COUNT("test.macro_counter", 5);
#if BUCKWILD_OBS_ENABLED
    EXPECT_EQ(c.value(), before + 5);
#else
    EXPECT_EQ(c.value(), before) << "OFF build must compile macros out";
#endif
}

TEST(ObsMacros, SpansAreInertWhileTracingDisabled)
{
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.flush();
    tracer.set_enabled(false);
    {
        BUCKWILD_OBS_SPAN("test", "inert");
        BUCKWILD_OBS_INSTANT("test", "inert");
    }
    EXPECT_TRUE(tracer.flush().empty());
}

// --------------------------------------------------------------- stress

TEST(ObsStress, ConcurrentSpansCountersAndHistogramsAreExact)
{
    // The TSan target: every write path of the layer (counter RMW, gauge
    // CAS, histogram mutex, span ring push) hammered from four threads
    // while the main thread flushes mid-run — the exact race --trace-out
    // has with live workers. Rings are sized above the per-thread event
    // count so nothing drops and the final accounting is exact (the drop
    // path itself is pinned deterministically above).
    constexpr int kThreads = 4;
    constexpr int kIters = 2000;

    obs::Tracer& tracer = obs::Tracer::global();
    tracer.flush();
    tracer.set_ring_capacity(4096);
    tracer.set_enabled(true);

    obs::Counter& counter =
        obs::MetricsRegistry::global().counter("test.stress_counter");
    obs::Gauge& gauge =
        obs::MetricsRegistry::global().gauge("test.stress_gauge");
    obs::Histo& histo =
        obs::MetricsRegistry::global().histogram("test.stress_histo");
    const std::uint64_t count_before = counter.value();
    const std::size_t histo_before = histo.count();
    gauge.set(0.0);

    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                obs::ScopedSpan span("test", "stress");
                counter.add(1);
                gauge.add(1.0);
                histo.record(static_cast<double>(i));
            }
        });
    // A reader racing the writers (what --trace-out does mid-run).
    std::size_t merged = 0;
    while (!done.load(std::memory_order_relaxed)) {
        merged += tracer.flush().size();
        if (counter.value() - count_before >=
            static_cast<std::uint64_t>(kThreads) * kIters)
            done.store(true, std::memory_order_relaxed);
        std::this_thread::yield();
    }
    for (auto& th : threads) th.join();
    tracer.set_enabled(false);

    merged += tracer.flush().size();
    EXPECT_EQ(counter.value() - count_before,
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kThreads) * kIters);
    EXPECT_EQ(histo.count() - histo_before,
              static_cast<std::size_t>(kThreads) * kIters);
    EXPECT_EQ(merged, static_cast<std::size_t>(kThreads) * kIters)
        << "every span ends up in exactly one flush";
    EXPECT_EQ(tracer.dropped(), 0u);
    tracer.set_ring_capacity(65536);
}

} // namespace
} // namespace buckwild
