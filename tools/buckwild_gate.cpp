/**
 * @file
 * buckwild_gate — open-loop load driver for the serving front door.
 *
 * Drives Poisson arrivals at a target offered QPS against a running
 * `buckwild_serve --listen` gate and reports, per offered-load step,
 * what actually happened: admitted/ok, shed (by status), and per-lane
 * client-observed latency percentiles.
 *
 * Open loop is the point. A closed-loop client slows down when the
 * server does, which hides overload — arrivals here are scheduled from
 * a Poisson process whose rate does not care how the server is doing,
 * so past saturation the driver keeps offering load and the gate's
 * shedding (explicit RESOURCE_EXHAUSTED, bounded admitted latency)
 * becomes directly measurable:
 *
 *     buckwild_serve --model model.bw --listen 127.0.0.1:7070 &
 *     buckwild_gate --connect 127.0.0.1:7070 --dim 256 \
 *         --qps 1000,10000,100000 --duration 3 --json sweep.json
 *
 * Latency is measured client-side with zero bookkeeping: the request id
 * carries the send timestamp (steady-clock ns, low bit replaced by the
 * lane), so the response handler reconstructs latency and lane from the
 * echoed id alone.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gate/gate.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "obs/prom.h"
#include "obs_cli.h"
#include "simd/registry.h"
#include "util/table.h"

namespace {

using namespace buckwild;

struct Options
{
    std::optional<net::Address> connect;
    std::string model = "default";
    std::size_t dim = 0;
    std::vector<double> qps = {1000.0};
    double duration_s = 3.0;
    std::size_t connections = 4;
    std::size_t tenants = 1;
    double batch_frac = 0.5;
    std::uint32_t deadline_us = 0;
    bool q8 = false;
    std::uint64_t seed = 1;
    std::string json_path;
    tools::ObsCliOptions obs;
};

tools::flags::Table
cli(Options& opt)
{
    namespace flags = tools::flags;
    flags::Table t("buckwild_gate — open-loop Poisson load driver for the "
                   "gate");

    t.flag({"--connect"}, "HOST:PORT", "gate address (required)",
           flags::parsed(opt.connect, net::parse_address));
    t.flag({"--model"}, "NAME", "model name to request (default: default)",
           flags::text(opt.model));
    t.flag({"--dim"}, "N", "feature dimension (required; must match the "
           "served model)", flags::count(opt.dim, 1));
    t.flag({"--qps"}, "Q[,Q,...]", "offered-load sweep, requests/s per step "
           "(default 1000)", flags::list(opt.qps, flags::parse_real));
    t.flag({"--duration"}, "S", "seconds per step (default 3)",
           flags::real(opt.duration_s));
    t.flag({"--connections"}, "C", "client connections / sender threads "
           "(default 4)", flags::count(opt.connections, 1));
    t.flag({"--tenants"}, "T", "rotate requests over T tenant ids "
           "(t0..t{T-1}; default 1)", flags::count(opt.tenants, 1));
    t.flag({"--batch-frac"}, "F", "fraction of requests on the batch lane "
           "(default 0.5)", flags::real(opt.batch_frac));
    t.flag({"--deadline-us"}, "D", "deadline on interactive requests "
           "(default 0 = none)", flags::count(opt.deadline_us));
    t.flag({"--encoding"}, "E", "f32 | q8 feature payload (default f32)",
           flags::choice(opt.q8, {{"f32", false}, {"q8", true}}));
    t.flag({"--seed"}, "X", "RNG seed, decimal (default 1)",
           flags::count(opt.seed));
    t.flag({"--json"}, "PATH", "write the sweep as JSON ('-' = stdout)",
           flags::text(opt.json_path));

    t.section("observability (client-side per-lane latency percentiles "
              "and\nshed counters land in the registry as gate.client.* "
              "series;\nwith --trace-out the driver also stamps a trace "
              "context onto\nevery request, which the gate echoes for "
              "clock correlation):");
    tools::add_obs_flags(t, opt.obs);
    return t;
}

std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Per-lane outcome accumulators, merged across sender threads.
struct LaneTally
{
    std::uint64_t ok = 0;
    std::vector<double> latency_us; ///< for OK responses only

    void
    merge(const LaneTally& other)
    {
        ok += other.ok;
        latency_us.insert(latency_us.end(), other.latency_us.begin(),
                          other.latency_us.end());
    }
};

struct Tally
{
    std::uint64_t sent = 0;
    std::uint64_t resource_exhausted = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t other_errors = 0;
    LaneTally lanes[gate::kLanes];

    std::uint64_t
    shed() const
    {
        return resource_exhausted + deadline_exceeded + other_errors;
    }

    void
    merge(const Tally& other)
    {
        sent += other.sent;
        resource_exhausted += other.resource_exhausted;
        deadline_exceeded += other.deadline_exceeded;
        other_errors += other.other_errors;
        for (std::size_t l = 0; l < gate::kLanes; ++l)
            lanes[l].merge(other.lanes[l]);
    }
};

double
percentile_us(std::vector<double>& xs, double p)
{
    if (xs.empty()) return 0.0;
    const auto k = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(xs.size() - 1) + 0.5);
    std::nth_element(xs.begin(), xs.begin() + static_cast<long>(k),
                     xs.end());
    return xs[k];
}

/// The client's view of the step, published as gate.client.* series so
/// a live scrape (or --metrics-out) sees the driver's observed per-lane
/// percentiles and shed counters next to the gate's own server-side
/// gate.hop_seconds decomposition.
void
publish_step_metrics(const Tally& tally, double offered_qps,
                     const double (&p50_us)[gate::kLanes],
                     const double (&p99_us)[gate::kLanes])
{
    static const char* const kLaneNames[gate::kLanes] = {"interactive",
                                                         "batch"};
    auto& registry = obs::MetricsRegistry::global();
    registry.gauge("gate.client.offered_qps").set(offered_qps);
    registry.counter("gate.client.sent").add(tally.sent);
    registry
        .counter(obs::labeled("gate.client.shed",
                              {{"reason", "resource_exhausted"}}))
        .add(tally.resource_exhausted);
    registry
        .counter(obs::labeled("gate.client.shed",
                              {{"reason", "deadline_exceeded"}}))
        .add(tally.deadline_exceeded);
    registry
        .counter(obs::labeled("gate.client.shed", {{"reason", "other"}}))
        .add(tally.other_errors);
    for (std::size_t l = 0; l < gate::kLanes; ++l) {
        const char* lane = kLaneNames[l];
        registry.counter(obs::labeled("gate.client.ok", {{"lane", lane}}))
            .add(tally.lanes[l].ok);
        std::vector<double> seconds;
        seconds.reserve(tally.lanes[l].latency_us.size());
        for (const double us : tally.lanes[l].latency_us)
            seconds.push_back(us * 1e-6);
        registry
            .histogram(obs::labeled("gate.client.latency_seconds",
                                    {{"lane", lane}}))
            .record_many(seconds);
        registry
            .gauge(obs::labeled("gate.client.latency_us",
                                {{"lane", lane}, {"q", "p50"}}))
            .set(p50_us[l]);
        registry
            .gauge(obs::labeled("gate.client.latency_us",
                                {{"lane", lane}, {"q", "p99"}}))
            .set(p99_us[l]);
    }
}

/// One offered-load step: `opt.connections` threads, each its own
/// connection and an independent Poisson stream at rate/connections.
Tally
run_step(const Options& opt, double offered_qps)
{
    const net::Address& address = *opt.connect;
    std::vector<std::unique_ptr<gate::GateClient>> clients;
    std::vector<Tally> tallies(opt.connections);
    std::vector<std::mutex> tally_mutexes(opt.connections);
    for (std::size_t c = 0; c < opt.connections; ++c) {
        auto client = std::make_unique<gate::GateClient>(address);
        if (!client->connected())
            throw std::runtime_error("cannot connect to " +
                                     address.to_string());
        Tally* tally = &tallies[c];
        std::mutex* mutex = &tally_mutexes[c];
        client->set_handler([tally, mutex](
                                const gate::ScoreResponse& response) {
            const auto lane = static_cast<std::size_t>(
                response.request_id & 1u);
            const double latency_us =
                static_cast<double>(now_ns() -
                                    (response.request_id & ~1ull)) *
                1e-3;
            std::lock_guard<std::mutex> lock(*mutex);
            switch (response.status) {
            case gate::Status::kOk:
                tally->lanes[lane].ok += 1;
                tally->lanes[lane].latency_us.push_back(latency_us);
                break;
            case gate::Status::kResourceExhausted:
                tally->resource_exhausted += 1;
                break;
            case gate::Status::kDeadlineExceeded:
                tally->deadline_exceeded += 1;
                break;
            default: tally->other_errors += 1; break;
            }
        });
        clients.push_back(std::move(client));
    }

    std::vector<std::thread> senders;
    for (std::size_t c = 0; c < opt.connections; ++c) {
        senders.emplace_back([&, c] {
            std::mt19937_64 rng(opt.seed + c * 7919);
            std::exponential_distribution<double> gap(
                offered_qps / static_cast<double>(opt.connections));
            std::uniform_real_distribution<double> coin(0.0, 1.0);
            std::uniform_real_distribution<float> feature(-1.0f, 1.0f);

            // A small pool of feature vectors, re-sent round-robin:
            // realistic variety without per-send generation cost.
            constexpr std::size_t kPool = 8;
            std::vector<std::vector<float>> pool(kPool);
            for (auto& x : pool) {
                x.resize(opt.dim);
                for (float& v : x) v = feature(rng);
            }
            std::vector<std::vector<std::int8_t>> pool_q8(kPool);
            std::vector<float> pool_scale(kPool, 0.0f);
            if (opt.q8)
                for (std::size_t i = 0; i < kPool; ++i)
                    pool_scale[i] = gate::quantize_features_q8(
                        pool[i].data(), opt.dim, pool_q8[i]);

            gate::ScoreRequest request;
            request.model = opt.model;
            const auto start = std::chrono::steady_clock::now();
            const auto stop =
                start + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                opt.duration_s));
            auto next = start;
            std::size_t sequence = 0;
            std::uint64_t sent = 0;
            while (true) {
                next += std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(gap(rng)));
                if (next >= stop) break;
                // Open loop: if we fell behind schedule, send
                // immediately (arrival bursts are part of the process).
                std::this_thread::sleep_until(next);

                const std::size_t i = sequence++ % kPool;
                const bool batch = coin(rng) < opt.batch_frac;
                request.lane = batch ? gate::Lane::kBatch
                                     : gate::Lane::kInteractive;
                request.tenant =
                    "t" + std::to_string(sequence % opt.tenants);
                request.deadline_us = batch ? 0 : opt.deadline_us;
                if (opt.q8) {
                    request.encoding = gate::FeatureEncoding::kDenseQ8;
                    request.q8 = pool_q8[i];
                    request.scale = pool_scale[i];
                } else {
                    request.encoding = gate::FeatureEncoding::kDenseF32;
                    request.dense = pool[i];
                }
                request.request_id =
                    (now_ns() & ~1ull) |
                    static_cast<std::uint64_t>(request.lane);
                if (!clients[c]->send(request)) break; // connection died
                ++sent;
            }
            std::lock_guard<std::mutex> lock(tally_mutexes[c]);
            tallies[c].sent += sent;
        });
    }
    for (auto& sender : senders) sender.join();
    // Grace window for in-flight responses, then tear down.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    for (auto& client : clients) client->close();

    Tally total;
    for (std::size_t c = 0; c < opt.connections; ++c) {
        std::lock_guard<std::mutex> lock(tally_mutexes[c]);
        total.merge(tallies[c]);
    }
    return total;
}

} // namespace

int
main(int argc, char** argv)
try {
    Options opt;
    cli(opt).parse_or_exit(argc, argv);
    if (!opt.connect) tools::flags::usage_error("no --connect given");
    if (opt.dim == 0) tools::flags::usage_error("no --dim given");
    if (opt.batch_frac < 0.0 || opt.batch_frac > 1.0)
        tools::flags::usage_error("--batch-frac must be in [0, 1]");
    for (const double qps : opt.qps)
        if (!(qps > 0.0)) tools::flags::usage_error("--qps values must be > 0");

    std::printf("kernels: %s (per-host self-selection; "
                "BUCKWILD_KERNEL_IMPL overrides)\n",
                simd::to_string(simd::best_impl()));

    tools::ObsSession::Workload workload;
    workload.signature = dmgc::Signature::dense_hogwild();
    workload.threads = opt.connections;
    workload.model_size = opt.dim;
    workload.process = "gate_driver";
    tools::ObsSession session(opt.obs, workload);

    TablePrinter table(
        "open-loop gate sweep (" + opt.model + ", dim " +
            std::to_string(opt.dim) + (opt.q8 ? ", q8" : ", f32") + ")",
        {"offered qps", "sent", "ok", "shed", "shed %", "int p50 us",
         "int p99 us", "bat p50 us", "bat p99 us"});
    std::ostringstream json;
    json << "{\"model\":\"" << opt.model << "\",\"dim\":" << opt.dim
         << ",\"encoding\":\"" << (opt.q8 ? "q8" : "f32")
         << "\",\"steps\":[";

    bool first = true;
    for (const double qps : opt.qps) {
        Tally tally = run_step(opt, qps);
        const std::uint64_t ok =
            tally.lanes[0].ok + tally.lanes[1].ok;
        const double shed_rate =
            tally.sent > 0 ? static_cast<double>(tally.shed()) /
                                 static_cast<double>(tally.sent)
                           : 0.0;
        double p50_us[gate::kLanes], p99_us[gate::kLanes];
        for (std::size_t l = 0; l < gate::kLanes; ++l) {
            p50_us[l] = percentile_us(tally.lanes[l].latency_us, 50.0);
            p99_us[l] = percentile_us(tally.lanes[l].latency_us, 99.0);
        }
        publish_step_metrics(tally, qps, p50_us, p99_us);
        const double int_p50 = p50_us[0];
        const double int_p99 = p99_us[0];
        const double bat_p50 = p50_us[1];
        const double bat_p99 = p99_us[1];
        table.add_row({format_num(qps, 5), std::to_string(tally.sent),
                       std::to_string(ok), std::to_string(tally.shed()),
                       format_num(shed_rate * 100.0, 3),
                       format_num(int_p50, 4), format_num(int_p99, 4),
                       format_num(bat_p50, 4), format_num(bat_p99, 4)});
        if (!first) json << ",";
        first = false;
        json << "{\"offered_qps\":" << qps << ",\"sent\":" << tally.sent
             << ",\"ok\":" << ok << ",\"shed\":" << tally.shed()
             << ",\"resource_exhausted\":" << tally.resource_exhausted
             << ",\"deadline_exceeded\":" << tally.deadline_exceeded
             << ",\"other_errors\":" << tally.other_errors
             << ",\"shed_rate\":" << shed_rate
             << ",\"interactive\":{\"ok\":" << tally.lanes[0].ok
             << ",\"p50_us\":" << int_p50 << ",\"p99_us\":" << int_p99
             << "},\"batch\":{\"ok\":" << tally.lanes[1].ok
             << ",\"p50_us\":" << bat_p50 << ",\"p99_us\":" << bat_p99
             << "}}";
    }
    json << "]}";

    table.print(std::cout);
    if (!opt.json_path.empty()) {
        if (opt.json_path == "-") {
            std::cout << json.str() << "\n";
        } else {
            std::ofstream out(opt.json_path);
            out << json.str() << "\n";
            std::printf("wrote %s\n", opt.json_path.c_str());
        }
    }
    session.finish();
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
