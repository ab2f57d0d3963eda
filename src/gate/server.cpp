#include "gate/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "net/frame.h"
#include "obs/obs.h"
#include "obs/prom.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace buckwild::gate {

namespace {

double
steady_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
set_nonblocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/**
 * send(2) for the nonblocking connection fds: EAGAIN waits for
 * writability (bounded — a peer that stops reading for 5s forfeits the
 * connection) instead of failing the write_full loop outright.
 */
long
patient_send(int fd, const void* data, std::size_t n)
{
    for (int spins = 0; spins < 100; ++spins) {
        const long sent = ::send(fd, data, n, MSG_NOSIGNAL);
        if (sent >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
            return sent;
        pollfd writable{fd, POLLOUT, 0};
        ::poll(&writable, 1, 50);
    }
    errno = EAGAIN;
    return -1;
}

/// Echoes a traced request's identity and timestamps onto its response
/// (any status, NACKs included) so the client ends up with a complete
/// NTP-style clock-offset sample. No-op for untraced requests.
void
stamp_reply_trace(const ScoreRequest& request, std::int64_t recv_ns,
                  ScoreResponse& response)
{
    if (!request.trace.ctx.valid()) return;
    response.trace.ctx = obs::child_of(request.trace.ctx);
    response.trace.echo_send_ts_ns = request.trace.send_ts_ns;
    response.trace.echo_recv_ts_ns = recv_ns;
    response.trace.send_ts_ns = obs::trace_now_ns();
}

} // namespace

/**
 * One accepted client: the fd, its incremental frame decoder, and the
 * Sink workers reply through. Reads happen only on the event-loop
 * thread; writes (worker replies, event-loop NACKs) serialize on
 * `write_mutex_`, which also guards the close handshake so a worker
 * can never write into a recycled descriptor.
 */
class GateServer::Connection : public Sink
{
  public:
    Connection(net::Fd fd, std::size_t max_frame_bytes)
        : fd_(std::move(fd)), splitter_(max_frame_bytes)
    {
    }

    int raw_fd() const { return fd_.get(); }
    net::FrameSplitter& splitter() { return splitter_; }

    void
    send_response(const ScoreResponse& response) override
    {
        // One buffer for header + payload so the frame goes out in a
        // single write_full pass (through the patient writer, since the
        // fd is nonblocking).
        const std::vector<std::uint8_t> frame =
            net::make_frame(serialize(response));
        std::lock_guard<std::mutex> lock(write_mutex_);
        if (!fd_.valid()) return; // closed while the task was queued
        if (!net::write_full(fd_.get(), frame.data(), frame.size(),
                             &patient_send))
            fd_.shutdown_rdwr(); // let the event loop reap it
    }

    /// Closes the socket; replies already queued on workers become
    /// no-ops. Only the event loop calls this.
    void
    close()
    {
        std::lock_guard<std::mutex> lock(write_mutex_);
        fd_.reset();
    }

  private:
    net::Fd fd_;
    net::FrameSplitter splitter_;
    std::mutex write_mutex_;
};

GateServer::GateServer(ModelRouter& router, const dmgc::PerfModel& perf,
                       GateConfig config)
    : router_(router), config_(std::move(config)),
      metrics_(config_.metrics_registry != nullptr
                   ? *config_.metrics_registry
                   : obs::MetricsRegistry::global()),
      engine_(config_.impl), admission_(config_.admission),
      cost_([&] {
          // Seed from the roofline at a generic Ms8 serving signature;
          // the EWMA of observed batches takes over within a few dozen
          // requests either way.
          const dmgc::Signature sig = dmgc::Signature::dense_fixed(8, 8);
          return CostModel::seed_seconds_per_number(
              perf, sig, config_.workers, 1u << 20,
              config_.fallback_gnps);
      }()),
      scheduler_(config_.interactive_capacity, config_.batch_capacity,
                 &metrics_),
      admitted_(metrics_.counter("gate.admitted")),
      deadline_missed_(metrics_.counter("gate.deadline_missed")),
      malformed_(metrics_.counter("gate.malformed")),
      completed_(metrics_.counter("gate.completed")),
      connections_(metrics_.gauge("gate.connections"))
{
    if (config_.workers == 0) fatal("GateServer requires workers >= 1");
    for (std::size_t lane = 0; lane < kLanes; ++lane)
        latency_[lane] = &metrics_.histogram(obs::labeled(
            "gate.latency_seconds",
            {{"lane", to_string(static_cast<Lane>(lane))}}));
    const auto hop = [this](const char* name) {
        return &metrics_.histogram(
            obs::labeled("gate.hop_seconds", {{"hop", name}}));
    };
    hop_wire_in_ = hop("wire_in");
    hop_admission_ = hop("admission");
    hop_queue_ = hop("queue");
    hop_score_ = hop("score");
    std::string error;
    listener_ = net::listen_tcp(config_.bind_address, config_.port, 128,
                                &port_, &error);
    if (!listener_.valid())
        throw std::runtime_error("gate: cannot listen on " +
                                 config_.bind_address + ":" +
                                 std::to_string(config_.port) + ": " +
                                 error);
    set_nonblocking(listener_.get());
    workers_.start(config_.workers, [this](std::size_t) { worker_loop(); });
    io_thread_.start(1, [this](std::size_t) { event_loop(); });
}

GateServer::~GateServer()
{
    stop();
}

void
GateServer::stop()
{
    if (stopped_) return;
    stopped_ = true;
    stopping_.store(true, std::memory_order_release);
    io_thread_.join();
    scheduler_.close();
    workers_.join();
}

GateStats
GateServer::stats() const
{
    GateStats out;
    out.admitted = admitted_.value();
    out.shed = shed_total_.load(std::memory_order_relaxed);
    out.deadline_missed = deadline_missed_.value();
    out.malformed = malformed_.value();
    out.completed = completed_.value();
    return out;
}

obs::Counter&
GateServer::shed_counter(const char* reason)
{
    std::lock_guard<std::mutex> lock(shed_mutex_);
    auto& slot = shed_by_reason_[reason];
    if (slot == nullptr)
        slot = &metrics_.counter(
            obs::labeled("gate.shed", {{"reason", reason}}));
    return *slot;
}

obs::Counter&
GateServer::tenant_counter(const std::string& tenant)
{
    // Event-loop thread only — no lock needed on the cache map.
    auto& slot = by_tenant_[tenant];
    if (slot == nullptr)
        slot = &metrics_.counter(
            obs::labeled("gate.tenant_admitted", {{"tenant", tenant}}));
    return *slot;
}

void
GateServer::event_loop()
{
    std::map<int, std::shared_ptr<Connection>> connections;
    std::vector<pollfd> fds;
    std::vector<std::uint8_t> payload;
    std::uint8_t buffer[64 * 1024];
    while (!stopping_.load(std::memory_order_acquire)) {
        fds.clear();
        fds.push_back({listener_.get(), POLLIN, 0});
        for (const auto& [fd, connection] : connections)
            fds.push_back({fd, POLLIN, 0});
        const int ready =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
        if (ready <= 0) continue;

        // New clients.
        if ((fds[0].revents & POLLIN) != 0) {
            while (true) {
                net::Fd client(
                    ::accept(listener_.get(), nullptr, nullptr));
                if (!client.valid()) break;
                if (connections.size() >= config_.max_connections) {
                    // Past the connection cap the cheapest refusal is
                    // not accepting state for the peer at all.
                    continue; // RAII closes it
                }
                set_nonblocking(client.get());
                const int fd = client.get();
                connections.emplace(
                    fd, std::make_shared<Connection>(
                            std::move(client), config_.max_frame_bytes));
                connections_.set(
                    static_cast<double>(connections.size()));
            }
        }

        // Readable clients.
        for (std::size_t i = 1; i < fds.size(); ++i) {
            if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0)
                continue;
            const auto it = connections.find(fds[i].fd);
            if (it == connections.end()) continue;
            const std::shared_ptr<Connection>& connection = it->second;
            bool drop = false;
            while (true) {
                const long got = ::recv(connection->raw_fd(), buffer,
                                        sizeof(buffer), 0);
                if (got > 0) {
                    connection->splitter().push(
                        buffer, static_cast<std::size_t>(got));
                    net::SplitResult result;
                    while ((result = connection->splitter().next(
                                payload)) == net::SplitResult::kFrame)
                        handle_payload(connection, payload.data(),
                                       payload.size());
                    if (result == net::SplitResult::kBadMagic ||
                        result == net::SplitResult::kTooLarge) {
                        // Desynced or hostile framing: the stream has
                        // no recoverable next boundary — drop it.
                        malformed_.add(1);
                        drop = true;
                    }
                    continue;
                }
                if (got == 0) { // peer finished
                    drop = true;
                } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                           errno != EINTR) {
                    drop = true;
                }
                break;
            }
            if (drop) {
                connection->close();
                connections.erase(it);
                connections_.set(
                    static_cast<double>(connections.size()));
            }
        }
    }
    for (auto& [fd, connection] : connections) connection->close();
    connections_.set(0.0);
}

void
GateServer::handle_payload(const std::shared_ptr<Connection>& connection,
                           const std::uint8_t* data, std::size_t n)
{
    const std::int64_t recv_ns = obs::trace_now_ns();
    GateTask task;
    if (!deserialize(data, n, task.request)) {
        // Well-framed but unparseable: answer kInvalid if the request
        // id is recoverable? It is not (the parse failed) — poison the
        // connection by shutting it down; the read loop will reap it.
        malformed_.add(1);
        ScoreResponse nack;
        nack.status = Status::kInvalid;
        nack.message = "malformed score request";
        connection->send_response(nack);
        return;
    }
    const ScoreRequest& request = task.request;
    task.ctx = request.trace.ctx;
    task.recv_ns = recv_ns;
    // Wire hop: client send -> ingress arrival. Offset-skewed across
    // hosts online; buckwild_tracemerge corrects the stitched view.
    if (request.trace.ctx.valid() && request.trace.send_ts_ns != 0)
        hop_wire_in_->record(
            static_cast<double>(recv_ns - request.trace.send_ts_ns) *
            1e-9);
    obs::TracedSpan admit_span("gate", "gate.admit", task.ctx);

    ScoreResponse reject;
    reject.request_id = request.request_id;

    if (stopping_.load(std::memory_order_acquire)) {
        reject.status = Status::kShuttingDown;
        stamp_reply_trace(request, recv_ns, reject);
        connection->send_response(reject);
        return;
    }

    // Route before admitting: an unknown model must not consume the
    // tenant's tokens.
    Stopwatch admission_clock;
    const serve::ModelRegistry* registry = router_.find(request.model);
    if (registry == nullptr || registry->current() == nullptr) {
        shed_counter("unknown_model").add(1);
        shed_total_.fetch_add(1, std::memory_order_relaxed);
        reject.status = Status::kUnknownModel;
        reject.message = "no model named '" + request.model + "'";
        stamp_reply_trace(request, recv_ns, reject);
        connection->send_response(reject);
        return;
    }

    const double numbers =
        static_cast<double>(request.feature_count());
    const double service_s = cost_.estimate_seconds(numbers);
    const double backlog_s = cost_.estimate_seconds(
        static_cast<double>(scheduler_.backlog_numbers()));
    const Decision decision = admission_.admit(
        request, backlog_s, service_s, steady_seconds());
    hop_admission_->record(admission_clock.seconds());
    if (!decision.admitted()) {
        shed_counter(decision.reason).add(1);
        shed_total_.fetch_add(1, std::memory_order_relaxed);
        reject.status = decision.status;
        reject.message = decision.reason;
        stamp_reply_trace(request, recv_ns, reject);
        connection->send_response(reject);
        return;
    }

    task.sink = connection;
    task.enqueued = std::chrono::steady_clock::now();
    if (request.deadline_us > 0)
        task.deadline =
            task.enqueued + std::chrono::microseconds(request.deadline_us);
    const std::string tenant = request.tenant;
    if (!scheduler_.try_push(std::move(task))) {
        shed_counter("lane_full").add(1);
        shed_total_.fetch_add(1, std::memory_order_relaxed);
        reject.status = Status::kResourceExhausted;
        reject.message = "lane_full";
        stamp_reply_trace(request, recv_ns, reject);
        connection->send_response(reject);
        return;
    }
    admitted_.add(1);
    tenant_counter(tenant).add(1);
}

void
GateServer::worker_loop()
{
    GateTask task;
    while (scheduler_.pop(task)) {
        score_task(task);
        task.sink.reset(); // release the connection promptly
    }
}

void
GateServer::score_task(GateTask& task)
{
    const ScoreRequest& request = task.request;
    ScoreResponse response;
    response.request_id = request.request_id;

    const auto now = std::chrono::steady_clock::now();
    hop_queue_->record(
        std::chrono::duration<double>(now - task.enqueued).count());
    if (now > task.deadline) {
        // Expired while queued: the admission estimate was optimistic.
        // Failing here still beats scoring — the client has already
        // given up on the answer.
        deadline_missed_.add(1);
        response.status = Status::kDeadlineExceeded;
        response.message = "deadline expired in queue";
        stamp_reply_trace(request, task.recv_ns, response);
        task.sink->send_response(response);
        return;
    }

    const serve::ModelRegistry* registry = router_.find(request.model);
    const std::shared_ptr<const serve::ServingModel> model =
        registry != nullptr ? registry->current() : nullptr;
    if (model == nullptr) {
        response.status = Status::kUnknownModel;
        response.message = "model disappeared while queued";
        stamp_reply_trace(request, task.recv_ns, response);
        task.sink->send_response(response);
        return;
    }

    obs::TracedSpan score_span("gate", "gate.score", task.ctx);
    Stopwatch compute;
    try {
        serve::ScoreResult result;
        switch (request.encoding) {
        case FeatureEncoding::kDenseF32:
            result = engine_.score_dense(*model, request.dense.data(),
                                         request.dense.size());
            break;
        case FeatureEncoding::kDenseQ8: {
            std::vector<float> features(request.q8.size());
            dequantize_features_q8(request.q8.data(), request.q8.size(),
                                   request.scale, features.data());
            result = engine_.score_dense(*model, features.data(),
                                         features.size());
            break;
        }
        case FeatureEncoding::kSparseF32:
            result = engine_.score_sparse(*model, request.index.data(),
                                          request.dense.data(),
                                          request.dense.size());
            break;
        }
        response.margin = result.margin;
        response.score = result.score;
        response.label = result.label;
        response.model_version = result.model_version;
        completed_.add(1);
    } catch (const std::exception& e) {
        response.status = Status::kInvalid;
        response.message = e.what();
    }
    cost_.observe(compute.seconds(),
                  static_cast<double>(request.feature_count()));
    hop_score_->record(compute.seconds());
    const double latency =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      task.enqueued)
            .count();
    latency_[static_cast<std::size_t>(request.lane)]->record(latency);
    stamp_reply_trace(request, task.recv_ns, response);
    task.sink->send_response(response);
}

} // namespace buckwild::gate
