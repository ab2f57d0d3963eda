#include "ps/shard.h"

#include <algorithm>
#include <limits>

#include "obs/obs.h"
#include "obs/prom.h"
#include "simd/sparse_ops.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace buckwild::ps {

ServerShard::ServerShard(std::size_t index, std::size_t begin,
                         std::size_t end, const ShardConfig& config,
                         Transport& transport)
    : index_(index), begin_(begin), end_(end), config_(config),
      transport_(transport), weights_(end - begin, 0.0f),
      clocks_(config.workers, 0), retired_(config.workers, false),
      staleness_histo_(
          obs::MetricsRegistry::global().histogram("ps.staleness")),
      hop_push_wire_(obs::MetricsRegistry::global().histogram(
          obs::labeled("ps.hop_seconds", {{"hop", "push_wire"}}))),
      hop_apply_(obs::MetricsRegistry::global().histogram(
          obs::labeled("ps.hop_seconds", {{"hop", "apply"}}))),
      ssp_bounce_rate_(
          obs::MetricsRegistry::global().gauge("ps.ssp.bounce_rate"))
{
    if (end <= begin) fatal("shard range must be non-empty");
    if (config.workers == 0) fatal("shard needs at least one worker");
    if (!(config.step_size > 0.0f)) fatal("step_size must be positive");
    if (config.batch == 0) fatal("batch must be >= 1");
    // The first push is acked under the RPC retransmit timeout; pay the
    // one-time kernel-registry resolution here, not on that deadline.
    simd::warm_dense_kernels();
    simd::warm_sparse_kernels();
}

void
ServerShard::run()
{
    Message message;
    for (;;) {
        if (!transport_.recv(index_, message,
                             std::chrono::microseconds(1000))) {
            // recv fails on an idle timeout or once closed-and-drained;
            // a closed mailbox returns its backlog before failing.
            if (transport_.closed()) break;
            continue;
        }
        // Any peer can send a well-framed request this shard cannot
        // serve. Like an unparseable frame, it is dropped: the shard
        // outlives it, and a genuine sender's retransmit recovers.
        try {
            if (!handle(std::move(message))) return;
        } catch (const std::runtime_error& e) {
            malformed_warnings_.warn("ps: shard " + std::to_string(index_) +
                                     " dropped a malformed request: " +
                                     e.what());
            BUCKWILD_OBS_COUNT("ps.shard.malformed", 1);
        }
    }
}

bool
ServerShard::handle(Message&& message)
{
    if (message.sender >= transport_.endpoints())
        fatal("reply endpoint " + std::to_string(message.sender) +
              " out of range");
    switch (message.kind) {
      case Message::Kind::kPush: handle_push(std::move(message)); break;
      case Message::Kind::kPull: handle_pull(std::move(message)); break;
      case Message::Kind::kRetire: handle_retire(std::move(message)); break;
      case Message::Kind::kStats: handle_stats(std::move(message)); break;
      case Message::Kind::kShutdown: {
        // Ack first, then leave the loop: the shard process exits while
        // the controller still gets its confirmation.
        Message ack;
        ack.kind = Message::Kind::kAck;
        ack.token = message.token;
        ack.worker = message.worker;
        ack.accepted = true;
        ack.version = version_.load(std::memory_order_relaxed);
        stamp_reply_trace(message, ack);
        transport_.send(message.sender, std::move(ack));
        return false;
      }
      default: fatal("a reply kind is not a request");
    }
    return true;
}

std::uint64_t
ServerShard::min_live_clock() const
{
    std::uint64_t lowest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t w = 0; w < clocks_.size(); ++w)
        if (!retired_[w]) lowest = std::min(lowest, clocks_[w]);
    return lowest == std::numeric_limits<std::uint64_t>::max() ? 0 : lowest;
}

void
ServerShard::handle_push(Message&& push)
{
    if (push.worker >= clocks_.size()) fatal("push from unknown worker");
    // Records a child span of the worker's push RPC — the server half
    // of the cross-process trace (no-op unless tracing is on and the
    // push carried a context).
    obs::TracedSpan handler_span("ps", "shard.push", push.trace.ctx);
    // Wire hop: worker send -> shard arrival. Exact on one host (forked
    // cluster, shared CLOCK_MONOTONIC); cross-host it is offset-skewed
    // online and corrected offline by buckwild_tracemerge. The stamp is
    // the sender's: subtracted as doubles, a hostile one cannot overflow.
    if (push.trace.ctx.valid() && push.trace.send_ts_ns != 0 &&
        push.recv_ts_ns != 0)
        hop_push_wire_.record((static_cast<double>(push.recv_ts_ns) -
                               static_cast<double>(push.trace.send_ts_ns)) *
                              1e-9);
    Message ack;
    ack.kind = Message::Kind::kAck;
    ack.token = push.token;
    ack.worker = push.worker;
    stamp_reply_trace(push, ack);

    // Exactly-once over a lossy fabric: a retransmission of an
    // already-applied push (its ack was dropped) is acked, not re-applied.
    if (push.clock <= clocks_[push.worker]) {
        ++metrics_.duplicates;
        ack.accepted = true;
        ack.version = version_.load(std::memory_order_relaxed);
        transport_.send(push.sender, std::move(ack));
        return;
    }

    // The SSP gate: admitting this push would put the worker
    // `lead` rounds ahead of the slowest live worker.
    const std::uint64_t lead = clocks_[push.worker] - min_live_clock();
    if (lead > config_.tau) {
        ++metrics_.gated;
        BUCKWILD_OBS_COUNT("ps.shard.gated", 1);
        BUCKWILD_OBS_COUNT("ps.ssp.bounces", 1);
        BUCKWILD_OBS_INSTANT("ps", "shard.gate_nack");
        update_bounce_rate();
        ack.accepted = false;
        ack.version = version_.load(std::memory_order_relaxed);
        transport_.send(push.sender, std::move(ack));
        return;
    }

    const bool sparse = push.gradient.sparse();
    if (sparse ? push.gradient.dim != size()
               : push.gradient.count != size())
        fatal("push gradient does not match the shard slice");

    // Apply through the registered kernels: the dense float AXPY the
    // Hogwild! trainer uses, or — for a sparse push — the gather-scatter
    // sparse AXPY over only the pushed coordinates: w -= (eta/batch) * g.
    Stopwatch apply;
    const float c = -config_.step_size / static_cast<float>(config_.batch);
    std::size_t applied_numbers = size();
    if (sparse) {
        const SparseGradient gradient =
            decode_sparse_gradient(push.gradient);
        {
            obs::TracedSpan apply_span("ps", "shard.apply",
                                       handler_span.ctx());
            BUCKWILD_OBS_SPAN("ps", "shard.apply");
            simd::SparseOps<std::uint32_t>::axpy(
                config_.impl, weights_.data(), gradient.value.data(),
                gradient.index.data(), gradient.nnz(), c,
                simd::sparse::IndexMode::kAbsolute);
        }
        applied_numbers = gradient.nnz();
        metrics_.sparse_nnz += gradient.nnz();
        metrics_.sparse_bytes += push.gradient.wire_bytes();
        BUCKWILD_OBS_COUNT("ps.sparse_nnz", gradient.nnz());
        BUCKWILD_OBS_COUNT("ps.sparse_bytes", push.gradient.wire_bytes());
    } else {
        const std::vector<float> gradient = decode_gradient(push.gradient);
        obs::TracedSpan apply_span("ps", "shard.apply",
                                   handler_span.ctx());
        BUCKWILD_OBS_SPAN("ps", "shard.apply");
        simd::DenseOps<float, float>::axpy(config_.impl, weights_.data(),
                                           gradient.data(), size(), c, 1.0f,
                                           1.0f, simd::biased_unit());
    }
    metrics_.apply_seconds += apply.seconds();
    hop_apply_.record(apply.seconds());
    BUCKWILD_OBS_COUNT("ps.shard.pushes_applied", 1);
    BUCKWILD_OBS_COUNT("ps.shard.push_bytes", push.gradient.wire_bytes());

    clocks_[push.worker] = push.clock;
    ++metrics_.pushes;
    metrics_.push_bytes += push.gradient.wire_bytes();
    metrics_.numbers += static_cast<double>(applied_numbers);
    if (metrics_.staleness_counts.size() <= lead)
        metrics_.staleness_counts.resize(lead + 1, 0);
    ++metrics_.staleness_counts[lead];
    // The measured-staleness exposition: the exact per-(worker, lead)
    // counter and a summary histogram, live on /metrics while the run
    // is still going — PsMetrics::staleness_counts only surfaces after
    // the final stats RPC.
    staleness_counter(push.worker, lead).add(1);
    staleness_histo_.record(static_cast<double>(lead));
    update_bounce_rate();
    const std::uint64_t version =
        version_.fetch_add(1, std::memory_order_acq_rel) + 1;

    ack.accepted = true;
    ack.version = version;
    // The worker's next round computes on this slice: it rides the ack
    // instead of a separate pull (duplicates and nacks carry none).
    ack.weights = weights_;
    metrics_.pull_bytes += ack.wire_bytes();
    transport_.send(push.sender, std::move(ack));
}

void
ServerShard::stamp_reply_trace(const Message& request, Message& reply) const
{
    if (!request.trace.ctx.valid()) return;
    reply.trace.ctx = obs::child_of(request.trace.ctx);
    reply.trace.echo_send_ts_ns = request.trace.send_ts_ns;
    reply.trace.echo_recv_ts_ns = request.recv_ts_ns;
    reply.trace.send_ts_ns = obs::trace_now_ns();
}

void
ServerShard::update_bounce_rate()
{
    const double bounced = static_cast<double>(metrics_.gated);
    const double applied = static_cast<double>(metrics_.pushes);
    if (bounced + applied > 0.0)
        ssp_bounce_rate_.set(bounced / (bounced + applied));
}

obs::Counter&
ServerShard::staleness_counter(std::uint32_t worker,
                               std::uint64_t staleness)
{
    const auto key = std::make_pair(worker, staleness);
    const auto it = staleness_counters_.find(key);
    if (it != staleness_counters_.end()) return *it->second;
    obs::Counter& counter = obs::MetricsRegistry::global().counter(
        obs::labeled("ps.staleness",
                     {{"staleness", std::to_string(staleness)},
                      {"worker", std::to_string(worker)}}));
    staleness_counters_.emplace(key, &counter);
    return counter;
}

void
ServerShard::handle_pull(Message&& pull)
{
    obs::TracedSpan handler_span("ps", "shard.pull", pull.trace.ctx);
    Message reply;
    reply.kind = Message::Kind::kModel;
    reply.token = pull.token;
    reply.worker = pull.worker;
    reply.version = version_.load(std::memory_order_relaxed);
    reply.weights = weights_;
    ++metrics_.pulls;
    metrics_.pull_bytes += reply.wire_bytes();
    stamp_reply_trace(pull, reply);
    transport_.send(pull.sender, std::move(reply));
}

void
ServerShard::handle_stats(Message&& request)
{
    Message reply;
    reply.kind = Message::Kind::kStats;
    // The reply shares its request's kind, so stamp the true sender:
    // a default 0 would read as "reply to shard 0" anywhere it leaks.
    reply.sender = static_cast<std::uint32_t>(index_);
    reply.token = request.token;
    reply.worker = request.worker;
    reply.version = version_.load(std::memory_order_relaxed);
    reply.stats = shard_metrics_to_stats(metrics_);
    stamp_reply_trace(request, reply);
    transport_.send(request.sender, std::move(reply));
}

void
ServerShard::handle_retire(Message&& retire)
{
    if (retire.worker >= retired_.size()) fatal("retire of unknown worker");
    retired_[retire.worker] = true;
    Message ack;
    ack.kind = Message::Kind::kAck;
    ack.token = retire.token;
    ack.worker = retire.worker;
    ack.accepted = true;
    ack.version = version_.load(std::memory_order_relaxed);
    stamp_reply_trace(retire, ack);
    transport_.send(retire.sender, std::move(ack));
}

} // namespace buckwild::ps
