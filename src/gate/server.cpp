#include "gate/server.h"

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
      connections_(metrics_.gauge("gate.connections")),
      reactor_({.max_payload_bytes = config_.max_frame_bytes,
                .listen = true,
                .bind_address = config_.bind_address,
                .port = config_.port,
                .max_connections = config_.max_connections},
          [this](const auto& c, const auto& f) { handle_payload(c, f); },
          // Desynced or hostile framing: the reactor drops the stream,
          // which has no recoverable next boundary.
          [this](const ConnectionPtr&) { malformed_.add(1); })
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
    workers_.start(config_.workers, [this](std::size_t) { worker_loop(); });
    io_thread_.start(1, [this](std::size_t) {
        // close() wakes the poll; the timeout is only a backstop.
        while (!reactor_.closed()) {
            reactor_.poll(std::chrono::seconds(1));
            connections_.set(static_cast<double>(reactor_.connections()));
        }
        connections_.set(0.0);
    });
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
    reactor_.close();
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
    // I/O thread only — no lock needed on the cache map.
    auto& slot = by_tenant_[tenant];
    if (slot == nullptr)
        slot = &metrics_.counter(
            obs::labeled("gate.tenant_admitted", {{"tenant", tenant}}));
    return *slot;
}

void
GateServer::reply(const ConnectionPtr& connection,
                  const ScoreResponse& response)
{
    const std::vector<std::uint8_t> frame =
        net::make_frame(serialize(response));
    reactor_.post(connection, frame.data(), frame.size());
}

void
GateServer::handle_payload(const ConnectionPtr& connection,
                           const std::vector<std::uint8_t>& payload)
{
    const std::int64_t recv_ns = obs::trace_now_ns();
    GateTask task;
    if (!deserialize(payload.data(), payload.size(), task.request)) {
        // Well-framed but unparseable: the stream is still in sync, so
        // the connection stays; the NACK cannot echo a request id.
        malformed_.add(1);
        ScoreResponse nack;
        nack.status = Status::kInvalid;
        nack.message = "malformed score request";
        reply(connection, nack);
        return;
    }
    const ScoreRequest& request = task.request;
    task.ctx = request.trace.ctx;
    task.recv_ns = recv_ns;
    // Wire hop: client send -> ingress arrival. Offset-skewed across
    // hosts online; buckwild_tracemerge corrects the stitched view. The
    // stamp is the client's: subtracted as doubles, a hostile one cannot
    // overflow.
    if (request.trace.ctx.valid() && request.trace.send_ts_ns != 0)
        hop_wire_in_->record((static_cast<double>(recv_ns) -
                              static_cast<double>(request.trace.send_ts_ns)) *
                             1e-9);
    obs::TracedSpan admit_span("gate", "gate.admit", task.ctx);
    // A refusal is one NACK, counted under its reason.
    const auto shed = [&](Status status, const char* reason,
                          std::string message) {
        shed_counter(reason).add(1);
        shed_total_.fetch_add(1, std::memory_order_relaxed);
        ScoreResponse reject;
        reject.request_id = request.request_id;
        reject.status = status;
        reject.message = std::move(message);
        stamp_reply_trace(request, recv_ns, reject);
        reply(connection, reject);
    };

    // Route before admitting: an unknown model must not consume the
    // tenant's tokens.
    Stopwatch admission_clock;
    const serve::ModelRegistry* registry = router_.find(request.model);
    if (registry == nullptr || registry->current() == nullptr)
        return shed(Status::kUnknownModel, "unknown_model",
                    "no model named '" + request.model + "'");

    const double numbers =
        static_cast<double>(request.feature_count());
    const double service_s = cost_.estimate_seconds(numbers);
    const double backlog_s = cost_.estimate_seconds(
        static_cast<double>(scheduler_.backlog_numbers()));
    const Decision decision = admission_.admit(
        request, backlog_s, service_s, steady_seconds());
    hop_admission_->record(admission_clock.seconds());
    if (!decision.admitted())
        return shed(decision.status, decision.reason, decision.reason);

    task.connection = connection;
    task.enqueued = std::chrono::steady_clock::now();
    if (request.deadline_us > 0)
        task.deadline =
            task.enqueued + std::chrono::microseconds(request.deadline_us);
    const std::string tenant = request.tenant;
    if (!scheduler_.try_push(std::move(task)))
        return shed(Status::kResourceExhausted, "lane_full", "lane_full");
    admitted_.add(1);
    tenant_counter(tenant).add(1);
}

void
GateServer::worker_loop()
{
    GateTask task;
    while (scheduler_.pop(task)) {
        score_task(task);
        task.connection.reset(); // release the connection promptly
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
        reply(task.connection, response);
        return;
    }

    const serve::ModelRegistry* registry = router_.find(request.model);
    const std::shared_ptr<const serve::ServingModel> model =
        registry != nullptr ? registry->current() : nullptr;
    if (model == nullptr) {
        response.status = Status::kUnknownModel;
        response.message = "model disappeared while queued";
        stamp_reply_trace(request, task.recv_ns, response);
        reply(task.connection, response);
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
    reply(task.connection, response);
}

} // namespace buckwild::gate
