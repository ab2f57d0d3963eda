/**
 * @file
 * buckwild_serve — low-precision inference server with a closed-loop
 * synthetic load generator.
 *
 * Loads a BUCKWILD-MODEL file (written by buckwild_train --save),
 * re-quantizes it to a serving precision, and drives a closed-loop load
 * through the micro-batched serving engine, printing a metrics table:
 *
 *     buckwild_train --dense 256 4000 --save model.bw
 *     buckwild_serve --model model.bw --precision Ms8 --batch 1,16
 *     buckwild_serve --model model.bw --libsvm data.svm --workers 2
 *
 * With --listen the tool becomes the network front door instead: the
 * model is published under --name and a gate::GateServer accepts
 * gate-protocol clients (drive it with tools/buckwild_gate):
 *
 *     buckwild_serve --model model.bw --listen 127.0.0.1:7070 \
 *         --workers 2 --obs-port 9900
 *
 * Run with --help for the full flag list.
 */
#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dataset/digits.h"
#include "dataset/libsvm.h"
#include "dataset/problem.h"
#include "gate/gate.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "obs_cli.h"
#include "serve/serve.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace buckwild;

struct Options
{
    std::string model_path;
    std::optional<serve::Precision> precision;
    std::string libsvm_path;
    std::size_t digit_count = 0;
    std::size_t requests = 20000;
    std::size_t clients = 1;
    std::size_t window = 64;
    std::size_t workers = 1;
    std::vector<std::size_t> batches = {1, 16};
    std::size_t queue_capacity = 1024;
    std::size_t linger_us = 200;
    std::optional<simd::Impl> impl;
    // Matches buckwild_train's default so the synthetic load is drawn
    // from the same generative model the trained weights fit.
    std::uint64_t seed = 0x5EED;
    tools::ObsCliOptions obs;
    bool csv = false;
    // Network front-door mode.
    std::optional<net::Address> listen;
    std::string gate_name = "default";
    double duration_s = 0.0;
    double tenant_rate = 0.0; // <= 0 = unlimited
    double tenant_burst = 32.0;
    std::size_t interactive_cap = 256;
    std::size_t batch_cap = 1024;
};

tools::flags::Table
cli(Options& opt)
{
    namespace flags = tools::flags;
    flags::Table t(
        "buckwild_serve — micro-batched low-precision inference serving");

    t.section("model:");
    t.flag({"--model"}, "PATH", "BUCKWILD-MODEL file (required)",
           flags::text(opt.model_path));
    t.flag({"--precision"}, "P", "serving precision Ms8 | Ms16 | Ms32f "
           "(default: the precision the model was trained at)",
           flags::parsed(opt.precision, serve::parse_precision));

    t.section("load (default: synthetic dense requests at the model "
              "dimension):");
    t.flag({"--libsvm"}, "PATH", "sparse requests from a LIBSVM file",
           flags::text(opt.libsvm_path));
    t.flag({"--digits"}, "N", "N synthetic digit images (dim must be " +
           std::to_string(dataset::kDigitPixels) + ")",
           flags::count(opt.digit_count));
    t.flag({"--requests"}, "N", "total requests to serve (default 20000)",
           flags::count(opt.requests, 1));
    t.flag({"--clients"}, "C", "closed-loop client threads (default 1)",
           flags::count(opt.clients, 1));
    t.flag({"--window"}, "W", "in-flight requests per client (default 64; "
           "1 = strict request-response)", flags::count(opt.window));

    t.section("network serving (the front door; see tools/buckwild_gate):");
    t.flag({"--listen"}, "HOST:PORT", "serve the gate wire protocol instead "
           "of the closed-loop bench (port 0 = any free port, printed at "
           "startup)", flags::parsed(opt.listen, net::parse_address));
    t.flag({"--name"}, "NAME", "model name to publish (default: default)",
           flags::text(opt.gate_name));
    t.flag({"--duration"}, "S",
           "exit after S seconds (default: run until SIGINT/SIGTERM)",
           flags::real(opt.duration_s));
    t.flag({"--tenant-rate"}, "R",
           "per-tenant admission rate, requests/s (default: unlimited)",
           flags::real(opt.tenant_rate));
    t.flag({"--tenant-burst"}, "B", "per-tenant token-bucket burst (default "
           "32)", flags::real(opt.tenant_burst));
    t.flag({"--interactive-cap"}, "N", "interactive lane capacity (default "
           "256)", flags::count(opt.interactive_cap));
    t.flag({"--batch-cap"}, "N", "batch lane capacity (default 1024)",
           flags::count(opt.batch_cap));

    t.section("serving:");
    t.flag({"--workers"}, "W", "scoring worker threads (default 1)",
           flags::count(opt.workers));
    t.flag({"--batch"}, "B[,B,...]", "micro-batch bound sweep (default 1,16)",
           flags::list(opt.batches, [](const std::string& token) {
               return flags::parse_count(token, 1);
           }));
    t.flag({"--queue"}, "N", "queue capacity (default 1024)",
           flags::count(opt.queue_capacity));
    t.flag({"--linger"}, "US",
           "batch-fill linger in microseconds (default 200; 0 = no linger)",
           flags::count(opt.linger_us));
    t.flag({"--impl"}, "I", "reference | naive | avx2 | fma | avx512 "
           "(default: fastest supported; the BUCKWILD_KERNEL_IMPL env var "
           "overrides)", flags::parsed(opt.impl, simd::parse_impl));
    t.flag({"--seed"}, "X",
           "load-generator RNG seed, decimal (default 24301 = 0x5EED)",
           flags::count(opt.seed));
    t.flag({"--csv"}, "also print the table as CSV", flags::set(opt.csv, true));

    t.section("observability:");
    tools::add_obs_flags(t, opt.obs);
    return t;
}

/// One pre-generated request: dense features or a sparse row, plus the
/// label the load generator knows (for the accuracy column).
struct LoadSet
{
    bool sparse = false;
    std::size_t dim = 0;
    std::vector<std::vector<float>> dense;
    std::vector<std::vector<std::uint32_t>> index;
    std::vector<std::vector<float>> value;
    std::vector<float> labels;

    std::size_t size() const { return labels.size(); }
};

LoadSet
build_load(const Options& opt, std::size_t model_dim)
{
    LoadSet load;
    load.dim = model_dim;
    if (!opt.libsvm_path.empty()) {
        const auto p =
            dataset::load_libsvm_file(opt.libsvm_path, model_dim);
        load.sparse = true;
        for (std::size_t i = 0; i < p.examples(); ++i) {
            load.index.push_back(p.rows[i].index);
            load.value.push_back(p.rows[i].value);
            load.labels.push_back(p.y[i]);
        }
    } else if (opt.digit_count > 0) {
        if (model_dim != dataset::kDigitPixels)
            throw std::runtime_error("--digits needs a model of dimension " +
                                     std::to_string(dataset::kDigitPixels));
        const auto d = dataset::generate_digits(opt.digit_count, opt.seed);
        for (std::size_t i = 0; i < d.count; ++i) {
            load.dense.emplace_back(d.image(i),
                                    d.image(i) + dataset::kDigitPixels);
            // Binary view of the 10-class task: digit >= 5 is +1.
            load.labels.push_back(d.labels[i] >= 5 ? 1.0f : -1.0f);
        }
    } else {
        const auto p = dataset::generate_logistic_dense(
            model_dim, std::min<std::size_t>(opt.requests, 4096), opt.seed);
        for (std::size_t i = 0; i < p.examples; ++i) {
            load.dense.emplace_back(p.row(i), p.row(i) + p.dim);
            load.labels.push_back(p.y[i]);
        }
    }
    if (load.size() == 0) throw std::runtime_error("empty load set");
    return load;
}

struct RunResult
{
    serve::ServeMetrics metrics;
    double wall_seconds = 0.0;
    double accuracy = 0.0;
};

/**
 * Drives `opt.requests` requests through a fresh server in a closed
 * loop: each client keeps at most `opt.window` requests in flight
 * through the zero-copy slot path, submitting the free part of its
 * window as one vectored burst and reaping the oldest slot when the
 * window fills (window 1 = strict request-response). Backpressure
 * rejects are retried after a yield and counted by the server's
 * metrics.
 */
RunResult
run_closed_loop(const Options& opt, const serve::ModelRegistry& registry,
                const LoadSet& load, std::size_t max_batch)
{
    serve::ServerConfig cfg;
    cfg.workers = opt.workers;
    cfg.max_batch = max_batch;
    cfg.queue_capacity = opt.queue_capacity;
    cfg.linger_us = opt.linger_us;
    if (opt.impl) cfg.impl = *opt.impl;
    // Live observability shares the process-global registry so the
    // sampler and /metrics see requests as they happen (the per-run
    // private registry is still summarized into ServeMetrics).
    if (opt.obs.live())
        cfg.metrics_registry = &obs::MetricsRegistry::global();
    serve::Server server(registry, cfg);

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> correct{0};
    Stopwatch wall;
    run_parallel(opt.clients, [&](std::size_t) {
        const std::size_t window = std::max<std::size_t>(opt.window, 1);
        std::vector<serve::ReplySlot> slots(window);
        std::vector<std::size_t> in_flight(window); // load index per slot
        std::size_t head = 0, tail = 0, local_correct = 0;

        auto reap_oldest = [&] {
            serve::ReplySlot& slot = slots[tail % window];
            if (!slot.wait())
                throw std::runtime_error("request failed: " + slot.error);
            if (slot.result.label == load.labels[in_flight[tail % window]])
                ++local_correct;
            ++tail;
        };

        std::vector<serve::ViewRequest> burst;
        burst.reserve(window);
        for (;;) {
            // Claim one ticket per free window slot; a final over-claim
            // past opt.requests just stops the other clients too.
            const std::size_t want = window - (head - tail);
            std::size_t got = 0, first = 0;
            if (want > 0) {
                first = next.fetch_add(want, std::memory_order_relaxed);
                if (first < opt.requests)
                    got = std::min(want, opt.requests - first);
            }
            if (got == 0) {
                if (tail == head) break; // no tickets, nothing in flight
                reap_oldest();
                continue;
            }
            burst.clear();
            for (std::size_t k = 0; k < got; ++k) {
                const std::size_t i = (first + k) % load.size();
                serve::ReplySlot& slot = slots[(head + k) % window];
                slot.reset();
                in_flight[(head + k) % window] = i;
                serve::ViewRequest view;
                if (load.sparse) {
                    view.index = load.index[i].data();
                    view.value = load.value[i].data();
                    view.length = load.value[i].size();
                } else {
                    view.dense = load.dense[i].data();
                    view.length = load.dense[i].size();
                }
                view.slot = &slot;
                burst.push_back(view);
            }
            std::size_t sent = 0;
            while (sent < got) {
                sent += server.submit_views(burst.data() + sent,
                                            got - sent);
                if (sent < got) std::this_thread::yield(); // shed + retry
            }
            head += got;
            if (head - tail == window) reap_oldest();
        }
        while (tail < head) reap_oldest();
        correct.fetch_add(local_correct, std::memory_order_relaxed);
    });
    RunResult result;
    result.wall_seconds = wall.seconds();
    server.stop();
    result.metrics = server.metrics();
    result.accuracy = static_cast<double>(correct.load()) /
        static_cast<double>(opt.requests);
    return result;
}

std::atomic<bool> g_stop{false};

void
on_signal(int)
{
    g_stop.store(true, std::memory_order_release);
}

/**
 * Front-door mode: publish the model under --name, bind the gate, and
 * serve the wire protocol until --duration elapses or a signal lands.
 * The gate.* instruments go to the process-global registry so
 * --obs-port exposes them on /metrics.
 */
int
run_gate(const Options& opt, const core::SavedModel& saved,
         serve::Precision precision)
{
    gate::ModelRouter router;
    router.publish(opt.gate_name, saved, precision);

    const net::Address& bind = *opt.listen;
    gate::GateConfig cfg;
    cfg.bind_address = bind.host;
    cfg.port = bind.port;
    cfg.workers = opt.workers;
    cfg.interactive_capacity = opt.interactive_cap;
    cfg.batch_capacity = opt.batch_cap;
    cfg.admission.tenant_rate = opt.tenant_rate;
    cfg.admission.tenant_burst = opt.tenant_burst;
    if (opt.impl) cfg.impl = *opt.impl;
    cfg.metrics_registry = &obs::MetricsRegistry::global();

    const dmgc::PerfModel perf = dmgc::PerfModel::paper_model();
    gate::GateServer server(router, perf, cfg);

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    // The scripts that drive this (CI smoke, bench harnesses) parse
    // this line for the bound port — keep the format stable.
    std::printf("gate: model '%s' listening on %s:%u (%zu workers, "
                "lanes %zu/%zu)\n",
                opt.gate_name.c_str(), bind.host.c_str(), server.port(),
                opt.workers, opt.interactive_cap, opt.batch_cap);
    std::fflush(stdout);

    Stopwatch up;
    while (!g_stop.load(std::memory_order_acquire)) {
        if (opt.duration_s > 0.0 && up.seconds() >= opt.duration_s)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    server.stop();
    const gate::GateStats stats = server.stats();
    std::printf("gate: admitted %llu, completed %llu, shed %llu, "
                "deadline-missed %llu, malformed %llu\n",
                static_cast<unsigned long long>(stats.admitted),
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.deadline_missed),
                static_cast<unsigned long long>(stats.malformed));
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    try {
        cli(opt).parse_or_exit(argc, argv);
        if (opt.model_path.empty())
            tools::flags::usage_error("no --model given");

        const auto saved = core::load_model_file(opt.model_path);
        const serve::Precision precision =
            opt.precision ? *opt.precision
                          : serve::precision_from_signature(saved.signature);

        serve::ModelRegistry registry;
        registry.publish(saved, precision);
        const auto model = registry.current();
        std::printf("model %s: dim %zu, loss %s, trained %s, serving %s "
                    "(%zu model bytes/request, %s kernels)\n",
                    opt.model_path.c_str(), model->dim(),
                    to_string(model->loss()).c_str(),
                    model->trained_signature().to_string().c_str(),
                    to_string(precision).c_str(), model->bytes(),
                    simd::to_string(
                        opt.impl.value_or(simd::best_impl())));

        if (opt.listen) {
            // Network front-door mode; /metrics piggybacks on the same
            // shared observability session as the bench mode.
            tools::ObsSession::Workload workload;
            workload.signature = dmgc::Signature::dense_hogwild();
            workload.threads = opt.workers;
            workload.model_size = model->dim();
            workload.process = "serve";
            tools::ObsSession session(opt.obs, workload);
            const int rc = run_gate(opt, saved, precision);
            session.finish();
            return rc;
        }

        const LoadSet load = build_load(opt, model->dim());
        std::printf("load: %zu unique %s requests, %zu total, %zu clients, "
                    "%zu workers, queue %zu\n",
                    load.size(), load.sparse ? "sparse" : "dense",
                    opt.requests, opt.clients, opt.workers,
                    opt.queue_capacity);

        TablePrinter table(
            "serving throughput/latency (" + to_string(precision) + ")",
            {"batch B", "req/s", "p50 us", "p95 us", "p99 us",
             "mean B", "GNPS", "rejects", "accuracy"});

        // Scoring reads float requests against an Ms-precision model, so
        // the roofline signature is the Table-2 D32fM<s> row.
        tools::ObsSession::Workload workload;
        workload.signature = dmgc::Signature::dense_hogwild();
        if (precision == serve::Precision::kInt8)
            workload.signature.model = dmgc::Precision::fixed(8);
        else if (precision == serve::Precision::kInt16)
            workload.signature.model = dmgc::Precision::fixed(16);
        workload.threads = opt.workers;
        workload.model_size = model->dim();
        workload.numbers_gauge = "serve.numbers";
        workload.seconds_gauge = "serve.busy_seconds";
        tools::ObsSession session(opt.obs, workload);

        for (const std::size_t b : opt.batches) {
            const RunResult run =
                run_closed_loop(opt, registry, load, b);
            const auto& m = run.metrics;
            m.publish(obs::MetricsRegistry::global(),
                      "serve.b" + std::to_string(b) + ".");
            table.add_row(
                {std::to_string(b),
                 format_num(static_cast<double>(m.requests) /
                                run.wall_seconds,
                            5),
                 format_num(m.latency_percentile(50) * 1e6, 4),
                 format_num(m.latency_percentile(95) * 1e6, 4),
                 format_num(m.latency_percentile(99) * 1e6, 4),
                 format_num(m.mean_batch_size(), 3),
                 format_num(m.gnps(), 3), std::to_string(m.rejects),
                 format_num(run.accuracy, 4)});
        }
        table.print(std::cout);
        if (opt.csv) table.print_csv(std::cout);

        session.finish();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
