/**
 * @file
 * serve_gate — the read side of the model through the network front
 * door: an in-process gate::GateServer (one event loop, one scoring
 * worker) serving a ModelRouter that holds one Ms8 model, the generator's
 * w_true at its label scale, published through serve::ModelRegistry.
 * Load comes from two GateClient connections in this process carrying
 * held-out dense rows as f32 features; even requests are interactive with
 * a deadline, odd ones batch. Event loop, scoring worker and the two
 * client readers are the four busy threads beside the open-loop sender.
 *
 * Phase A is an open loop of independent users: Poisson arrivals at one
 * fixed absolute rate, frozen well below saturation so that every commit
 * sees the same offered load; latency runs from each request's scheduled
 * send time. Phase B is a closed loop with a fixed window of requests in
 * flight per connection (each response sends the next), measuring
 * capacity. No training code runs, so a training change must read flat.
 */
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "bench.h"
#include "core/model_io.h"
#include "dataset/problem.h"
#include "dmgc/perf_model.h"
#include "gate/client.h"
#include "gate/router.h"
#include "gate/server.h"
#include "gate/wire.h"
#include "net/frame.h"
#include "obs/prom.h"
#include "obs/trace.h"
#include "serve/engine.h"

namespace perfbench {

namespace {

namespace dataset = buckwild::dataset;
namespace gate = buckwild::gate;
namespace serve = buckwild::serve;

constexpr std::size_t kDim = 1024;
constexpr std::size_t kRows = 4096;
constexpr std::size_t kConnections = 2;
/// Phase A offered load. Frozen: about a tenth of the closed-loop
/// capacity measured when the benchmark was defined.
constexpr double kRate = 3000.0;
constexpr std::size_t kWindow = 16; ///< phase B requests in flight per conn
constexpr std::uint32_t kDeadlineUs = 50000; ///< interactive lane budget
constexpr int kSetupReps = 7;
constexpr std::size_t kMaxRequests = 1u << 24;
const char* const kModel = "bench";

/// Per-request times indexed by request id: when the request was due and
/// when it went out. Written by the thread that sends the request, read by
/// its connection's reader thread. Storage grows in chunks as ids are
/// used, so it follows the requests a run actually sends.
class SendTimes
{
  public:
    struct Entry
    {
        std::atomic<std::int64_t> due_ns{0};
        std::atomic<std::int64_t> sent_ns{0};
    };

    SendTimes() = default;
    ~SendTimes()
    {
        for (auto& chunk : chunks_) delete[] chunk.load();
    }
    SendTimes(const SendTimes&) = delete;
    SendTimes& operator=(const SendTimes&) = delete;

    Entry&
    operator[](std::uint64_t seq)
    {
        std::atomic<Entry*>& slot = chunks_.at(seq / kChunk);
        Entry* chunk = slot.load(std::memory_order_acquire);
        if (chunk == nullptr) {
            Entry* fresh = new Entry[kChunk];
            if (slot.compare_exchange_strong(chunk, fresh,
                                             std::memory_order_acq_rel))
                chunk = fresh;
            else
                delete[] fresh; // another sender installed it first
        }
        return chunk[seq % kChunk];
    }

  private:
    static constexpr std::size_t kChunk = 1u << 14;
    std::array<std::atomic<Entry*>, kMaxRequests / kChunk> chunks_{};
};

/// What the reader threads observed over one drive().
struct Counts
{
    std::uint64_t sent = 0;
    std::uint64_t ok = 0, wrong = 0, shed = 0, deadline = 0, errors = 0;
    double loss_sum = 0.0;
    double response_bytes = 0.0;
    std::vector<double> latency_s; ///< phase A, scheduled send -> response
};

/// One connection's view. The reader thread updates `counts` under the
/// mutex; `sent`/`received` are atomics so the main thread can wait for
/// the connection to drain.
struct Tally
{
    std::mutex mutex;
    Counts counts;
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> received{0};
    std::atomic<pid_t> reader_tid{0}; ///< the connection's reader thread
};

pid_t
current_tid()
{
    return static_cast<pid_t>(syscall(SYS_gettid));
}

/// CPU seconds so far of every thread of this process except `skip`,
/// from /proc/self/task/<tid>/schedstat (the scheduler's exact runtime).
double
threads_cpu_s(const std::vector<pid_t>& skip)
{
    double total = 0.0;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        const pid_t tid = std::stoi(task.path().filename().string());
        if (std::find(skip.begin(), skip.end(), tid) != skip.end()) continue;
        std::ifstream in(task.path() / "schedstat");
        unsigned long long ns = 0;
        if (in >> ns) total += static_cast<double>(ns) * 1e-9;
    }
    return total;
}

/// A running gate with its model, connections and the expected answers.
class GateEnv
{
  public:
    GateEnv(const dataset::DenseProblem& rows, const Options& options);
    ~GateEnv();
    GateEnv(const GateEnv&) = delete;
    GateEnv& operator=(const GateEnv&) = delete;

    /// Runs the open loop for `a_s` seconds, then the closed loop for
    /// `b_s`, each followed by a drain.
    void drive(double a_s, double b_s);

    // Results of the last drive().
    double capacity = 0.0;      ///< phase B completions per second
    double a_cpu_s = 0.0;       ///< phase A CPU of all but the client threads
    std::uint64_t a_sent = 0;
    std::vector<double> send_lag_s;
    Counts total;               ///< summed over connections
    gate::GateStats stats;      ///< server stats delta over the drive
    double request_bytes = 0.0; ///< one request frame
    /// Model publish, server start and client connections; the expected
    /// margins the benchmark computes in between are left out.
    double setup_s = 0.0;
    bool budget_exhausted() const { return next_seq_.load() >= kMaxRequests; }

  private:
    bool send(std::size_t conn, std::uint64_t seq);
    void on_response(std::size_t conn, const gate::ScoreResponse& response);
    void drain(double grace_s);

    const dataset::DenseProblem& rows_;
    const Options& options_;
    std::vector<float> expected_; ///< score_dense margin per row
    std::uint64_t version_ = 0;
    buckwild::dmgc::PerfModel perf_ = buckwild::dmgc::PerfModel::paper_model();
    gate::ModelRouter router_;
    std::unique_ptr<gate::GateServer> server_;
    Tally tallies_[kConnections];
    std::vector<std::unique_ptr<gate::GateClient>> clients_;
    SendTimes times_;
    std::atomic<std::uint64_t> next_seq_{0};
    std::atomic<std::uint64_t> a_begin_{0}, a_end_{0}; ///< phase A ids
    std::atomic<bool> closed_loop_{false};
    std::atomic<bool> injected_{false};
};

/// The model the generator drew the labels from: w_true with the margin
/// scale generate_logistic_dense applies (8 / sqrt(dim)), so the served
/// loss is the Bayes loss of the rows.
std::vector<float>
generating_model(const dataset::DenseProblem& rows)
{
    std::vector<float> w = rows.w_true;
    const float scale = 8.0f / std::sqrt(static_cast<float>(rows.dim));
    for (float& v : w) v *= scale;
    return w;
}

gate::ScoreRequest
make_request(std::uint64_t seq, const float* row)
{
    gate::ScoreRequest request;
    request.request_id = seq;
    request.model = kModel;
    request.tenant = seq % kConnections == 0 ? "t0" : "t1";
    const bool batch = (seq / kConnections) % 2 != 0;
    request.lane = batch ? gate::Lane::kBatch : gate::Lane::kInteractive;
    request.deadline_us = batch ? 0 : kDeadlineUs;
    request.encoding = gate::FeatureEncoding::kDenseF32;
    request.dense.assign(row, row + kDim);
    return request;
}

GateEnv::GateEnv(const dataset::DenseProblem& rows, const Options& options)
    : rows_(rows), options_(options)
{
    buckwild::core::SavedModel model;
    model.signature = buckwild::dmgc::Signature::dense_fixed(8, 8);
    model.loss = buckwild::core::Loss::kLogistic;
    model.weights = generating_model(rows);
    const double t0 = now_s();
    version_ = router_.publish(kModel, model, serve::Precision::kInt8);
    const double publish_s = now_s() - t0;
    const auto snapshot = router_.find(kModel)->current();
    const serve::InferenceEngine engine;
    expected_.resize(rows.examples);
    for (std::size_t i = 0; i < rows.examples; ++i)
        expected_[i] = engine.score_dense(*snapshot, rows.row(i), kDim).margin;

    const double t1 = now_s();
    gate::GateConfig cfg;
    cfg.workers = 1;
    server_ = std::make_unique<gate::GateServer>(router_, perf_, cfg);
    const buckwild::net::Address address{"127.0.0.1", server_->port()};
    for (std::size_t c = 0; c < kConnections; ++c) {
        auto client = std::make_unique<gate::GateClient>(address);
        if (!client->connected())
            throw std::runtime_error("gate client could not connect");
        client->set_handler([this, c](const gate::ScoreResponse& response) {
            on_response(c, response);
        });
        clients_.push_back(std::move(client));
    }
    setup_s = publish_s + (now_s() - t1);
    request_bytes = static_cast<double>(
        gate::serialize(make_request(0, rows.row(0))).size() +
        buckwild::net::kFrameHeaderBytes);
}

GateEnv::~GateEnv()
{
    for (auto& client : clients_) client->close();
    server_->stop();
}

/// False once the connection is down; the request then never gets a
/// response and counts as failed.
bool
GateEnv::send(std::size_t conn, std::uint64_t seq)
{
    times_[seq].sent_ns.store(obs::trace_now_ns(),
                              std::memory_order_relaxed);
    tallies_[conn].sent.fetch_add(1, std::memory_order_relaxed);
    return clients_[conn]->send(make_request(seq, rows_.row(seq % kRows)));
}

void
GateEnv::on_response(std::size_t conn, const gate::ScoreResponse& response)
{
    const std::int64_t now = obs::trace_now_ns();
    Tally& t = tallies_[conn];
    const std::uint64_t seq = response.request_id;
    const std::size_t row = seq % kRows;
    SendTimes::Entry& times = times_[seq];
    const std::int64_t sent_ns = times.sent_ns.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(t.mutex);
        Counts& n = t.counts;
        if (response.ok()) {
            float margin = response.margin;
            if (options_.inject == "wrong_score" && !injected_.exchange(true))
                margin = std::nextafter(margin, INFINITY);
            if (margin == expected_[row] &&
                response.model_version == version_) {
                ++n.ok;
                n.loss_sum += logistic_loss(margin, rows_.y[row]);
            } else {
                ++n.wrong;
            }
            if (seq >= a_begin_.load(std::memory_order_relaxed) &&
                seq < a_end_.load(std::memory_order_relaxed))
                n.latency_s.push_back(
                    static_cast<double>(
                        now - times.due_ns.load(std::memory_order_relaxed)) *
                    1e-9);
        } else if (response.status == gate::Status::kResourceExhausted) {
            ++n.shed;
        } else if (response.status == gate::Status::kDeadlineExceeded) {
            ++n.deadline;
        } else {
            ++n.errors;
        }
        n.response_bytes +=
            static_cast<double>(gate::serialize(response).size() +
                                buckwild::net::kFrameHeaderBytes);
    }
    obs::Tracer::global().complete("bench", "GateClient.request", sent_ns,
                                   now - sent_ns);
    if (t.reader_tid.load(std::memory_order_relaxed) == 0)
        t.reader_tid.store(current_tid(), std::memory_order_relaxed);
    if (closed_loop_.load(std::memory_order_relaxed)) {
        const std::uint64_t next = next_seq_.fetch_add(1);
        if (next < kMaxRequests) {
            times_[next].due_ns.store(obs::trace_now_ns(),
                                      std::memory_order_relaxed);
            send(conn, next); // a dead connection shows as missing replies
        }
    }
    // Last: once drain() sees received == sent, no handler is between
    // counting a response and sending the next request.
    t.received.fetch_add(1, std::memory_order_release);
}

void
GateEnv::drain(double grace_s)
{
    const double stop = now_s() + grace_s;
    for (std::size_t c = 0; c < kConnections; ++c)
        while (tallies_[c].received.load(std::memory_order_acquire) <
                   tallies_[c].sent.load(std::memory_order_relaxed) &&
               now_s() < stop)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void
GateEnv::drive(double a_s, double b_s)
{
    const gate::GateStats stats0 = server_->stats();
    std::uint64_t sent0 = 0;
    for (Tally& t : tallies_) {
        std::lock_guard<std::mutex> lock(t.mutex);
        t.counts = Counts{};
        sent0 += t.sent.load();
    }

    // Warm-up: kernels, connections, and each reader's thread id.
    for (std::size_t i = 0; i < 64; ++i) {
        const std::uint64_t seq = next_seq_.fetch_add(1);
        times_[seq].due_ns.store(obs::trace_now_ns(),
                                 std::memory_order_relaxed);
        if (!send(seq % kConnections, seq))
            throw std::runtime_error("gate connection went down");
    }
    drain(2.0);

    // Phase A: open loop, Poisson arrivals at kRate, alternating
    // connections. The sender yields in a loop until each send is due
    // rather than sleeping: at this rate a sleeping sender leaves the
    // vCPU idle, and waking an idle vCPU of the VM took the host anywhere
    // from 0.3 to 1.8 ms at p90 between identical runs.
    std::mt19937_64 rng(options_.seed);
    std::exponential_distribution<double> gap(kRate);
    std::vector<pid_t> clients = {current_tid()};
    for (const Tally& t : tallies_) clients.push_back(t.reader_tid.load());
    const double cpu0 = threads_cpu_s(clients);
    a_begin_.store(next_seq_.load());
    a_end_.store(kMaxRequests); // until the last phase A request is sent
    const auto start = std::chrono::steady_clock::now();
    const std::int64_t start_ns = obs::trace_now_ns();
    double offset_s = 0.0;
    send_lag_s.clear();
    while (true) {
        offset_s += gap(rng);
        if (offset_s >= a_s) break;
        const auto due_at =
            start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::duration<double>(offset_s));
        while (std::chrono::steady_clock::now() < due_at)
            std::this_thread::yield();
        const std::uint64_t seq = next_seq_.fetch_add(1);
        const std::int64_t due =
            start_ns + static_cast<std::int64_t>(offset_s * 1e9);
        if (seq >= kMaxRequests) break;
        times_[seq].due_ns.store(due, std::memory_order_relaxed);
        if (!send(seq % kConnections, seq))
            throw std::runtime_error("gate connection went down");
        send_lag_s.push_back(
            static_cast<double>(times_[seq].sent_ns.load() - due) * 1e-9);
    }
    a_end_.store(next_seq_.load());
    a_sent = a_end_.load() - a_begin_.load();
    drain(2.0);
    a_cpu_s = threads_cpu_s(clients) - cpu0;

    // Phase B: closed loop, kWindow in flight per connection.
    std::uint64_t received0 = 0;
    for (const Tally& t : tallies_) received0 += t.received.load();
    closed_loop_.store(true);
    const double b0 = now_s();
    for (std::size_t c = 0; c < kConnections; ++c)
        for (std::size_t i = 0; i < kWindow; ++i) {
            const std::uint64_t seq = next_seq_.fetch_add(1);
            times_[seq].due_ns.store(obs::trace_now_ns(),
                                     std::memory_order_relaxed);
            if (!send(c, seq))
                throw std::runtime_error("gate connection went down");
        }
    std::this_thread::sleep_for(std::chrono::duration<double>(b_s));
    closed_loop_.store(false);
    std::uint64_t received1 = 0;
    for (const Tally& t : tallies_) received1 += t.received.load();
    capacity = static_cast<double>(received1 - received0) / (now_s() - b0);
    drain(2.0);

    total = Counts{};
    for (Tally& t : tallies_) {
        std::lock_guard<std::mutex> lock(t.mutex);
        const Counts& n = t.counts;
        total.ok += n.ok;
        total.wrong += n.wrong;
        total.shed += n.shed;
        total.deadline += n.deadline;
        total.errors += n.errors;
        total.loss_sum += n.loss_sum;
        total.response_bytes += n.response_bytes;
        total.latency_s.insert(total.latency_s.end(), n.latency_s.begin(),
                               n.latency_s.end());
        total.sent += t.sent.load();
    }
    total.sent -= sent0;
    const gate::GateStats s1 = server_->stats();
    stats.shed = s1.shed - stats0.shed;
    stats.deadline_missed = s1.deadline_missed - stats0.deadline_missed;
    stats.completed = s1.completed - stats0.completed;
}

/// Output checks on one drive(): every request answered, every served
/// margin equal to score_dense on the published snapshot, and the
/// client's and the server's counts agreeing.
void
check_drive(const GateEnv& env, Report& report)
{
    const Counts& n = env.total;
    const std::uint64_t answered = n.ok + n.wrong + n.shed + n.deadline +
                                   n.errors;
    report.check(n.wrong == 0,
                 std::to_string(n.wrong) +
                     " served margins differ from score_dense on the same "
                     "snapshot");
    report.check(answered == n.sent,
                 "ok + wrong + shed + deadline-missed + errors = " +
                     std::to_string(answered) + " != sent " +
                     std::to_string(n.sent));
    report.check(env.stats.completed == n.ok + n.wrong &&
                     env.stats.shed == n.shed &&
                     env.stats.deadline_missed == n.deadline,
                 "server stats disagree with the client's counts");
    report.check(!env.budget_exhausted(), "request id budget exhausted");
    report.count(n.sent, n.sent - n.ok);
}

} // namespace

void
run_serve_gate(const Options& options, Report& report)
{
    // The generator's own model scores rows no model was trained on.
    const dataset::DenseProblem rows =
        dataset::generate_logistic_dense(kDim, kRows, options.seed);

    if (!options.trace) {
        std::vector<double> setup;
        for (int rep = 1; rep < kSetupReps; ++rep)
            setup.push_back(GateEnv(rows, options).setup_s);
        GateEnv env(rows, options);
        setup.push_back(env.setup_s);
        env.drive(options.seconds * 0.5, options.seconds * 0.35);
        check_drive(env, report);
        const Counts& n = env.total;
        report.set("ops_per_s", env.capacity);
        report.set("cpu_us_per_op",
                   env.a_cpu_s / static_cast<double>(env.a_sent) * 1e6);
        report.set("model_loss", n.loss_sum / static_cast<double>(n.ok));
        report.set("bytes_per_op",
                   (env.request_bytes * static_cast<double>(n.sent) +
                    n.response_bytes) /
                       static_cast<double>(n.sent));
        report.set("latency_p50_us", percentile(n.latency_s, 50.0) * 1e6);
        report.set("latency_p90_us", percentile(n.latency_s, 90.0) * 1e6);
        report.set("ok_frac", static_cast<double>(n.ok) /
                                  static_cast<double>(n.sent));
        report.set("setup_s", median(setup));
        report.note("serve_gate: phase A " + std::to_string(env.a_sent) +
                    " requests at " + std::to_string(kRate) +
                    "/s open loop, " + std::to_string(n.latency_s.size()) +
                    " latency samples; phase B window " +
                    std::to_string(kWindow) + " x " +
                    std::to_string(kConnections) + " connections");
        return;
    }

    GateEnv env(rows, options);
    env.drive(options.seconds * 0.2, options.seconds * 0.15);
    check_drive(env, report);
    const double untraced_capacity = env.capacity;
    obs::MetricsRegistry::global().reset();
    TraceSession session;
    env.drive(options.seconds * 0.2, options.seconds * 0.15);
    check_drive(env, report);
    const auto hop = [](const char* name) {
        return histo(obs::labeled("gate.hop_seconds", {{"hop", name}}));
    };
    const auto queue = hop("queue");
    report.set("gate.hop.wire_in_p50_us", hop("wire_in").p50 * 1e6);
    report.set("gate.hop.admission_p50_us", hop("admission").p50 * 1e6);
    report.set("gate.hop.queue_p50_us", queue.p50 * 1e6);
    report.set("gate.hop.queue_p99_us", queue.p99 * 1e6);
    report.set("gate.hop.score_p50_us", hop("score").p50 * 1e6);
    report.set("gate.hop.reply_p50_us", hop("reply").p50 * 1e6);
    const double sent = static_cast<double>(env.total.sent);
    report.set("gate.shed_frac", static_cast<double>(env.stats.shed) / sent);
    report.set("gate.deadline_missed_frac",
               static_cast<double>(env.stats.deadline_missed) / sent);
    report.set("gate.client.send_lag_p99_us",
               percentile(env.send_lag_s, 99.0) * 1e6);
    report.set("gate.client.latency_p99_us",
               percentile(env.total.latency_s, 99.0) * 1e6);

    // Layer replays on the workload's rows and model.
    buckwild::core::SavedModel model;
    model.signature = buckwild::dmgc::Signature::dense_fixed(8, 8);
    model.weights = generating_model(rows);
    serve::ModelRegistry registry;
    std::vector<double> publish_s;
    {
        obs::ScopedSpan span("bench", "replay.serve.publish");
        for (int rep = 0; rep < kSetupReps; ++rep) {
            const double t0 = now_s();
            registry.publish(model, serve::Precision::kInt8);
            publish_s.push_back(now_s() - t0);
        }
    }
    const auto snapshot = registry.current();
    const serve::InferenceEngine engine;
    double score_s = 0.0;
    {
        obs::ScopedSpan span("bench", "replay.serve.score_dense");
        float sink = 0.0f;
        score_s = time_per_call(options.seconds * 0.03, [&] {
            for (std::size_t i = 0; i < kRows; ++i)
                sink += engine.score_dense(*snapshot, rows.row(i), kDim).margin;
        }) / static_cast<double>(kRows);
        do_not_optimize(sink);
    }
    const std::vector<std::uint8_t> frame =
        gate::serialize(make_request(0, rows.row(0)));
    double deserialize_s = 0.0;
    {
        obs::ScopedSpan span("bench", "replay.gate.deserialize");
        gate::ScoreRequest parsed;
        deserialize_s = time_per_call(options.seconds * 0.03, [&] {
            if (!gate::deserialize(frame.data(), frame.size(), parsed))
                throw std::logic_error("replayed request did not parse");
        });
    }
    const auto spans = session.finish(options, report);

    report.set("obs.trace_overhead", 1.0 - env.capacity / untraced_capacity);
    report.set("serve.publish_ms", median(publish_s) * 1e3);
    report.set("serve.score_ns", score_s * 1e9);
    report.set("gate.wire.deserialize_ns", deserialize_s * 1e9);
    const auto admit = spans.find("gate.admit");
    if (admit != spans.end())
        report.set("gate.admit_self_us", admit->second.self_s /
                                             static_cast<double>(
                                                 admit->second.count) *
                                             1e6);
}

} // namespace perfbench
