#include "ps/server.h"

#include <algorithm>

#include "util/logging.h"

namespace buckwild::ps {

void
validate_ps_config(std::size_t dim, const PsConfig& config)
{
    if (dim == 0) fatal("model dimension must be >= 1");
    if (config.workers == 0) fatal("workers must be >= 1");
    if (config.shards == 0) fatal("shards must be >= 1");
    if (config.shards > dim)
        fatal("cannot partition " + std::to_string(dim) +
              " coordinates across " + std::to_string(config.shards) +
              " shards");
    validate_codec(config.codec);
    if (!(config.step_size > 0.0f)) fatal("step_size must be positive");
    if (config.batch == 0) fatal("batch must be >= 1");
    validate_faults(config.faults);
}

void
adopt_slice(const Message& reply, Message::Kind kind, std::size_t shards,
            std::size_t s, std::vector<float>& model)
{
    const std::size_t begin = slice_begin(model.size(), shards, s);
    const std::size_t width = slice_end(model.size(), shards, s) - begin;
    if (reply.kind != kind || reply.weights.size() != width)
        fatal(std::string(kind == Message::Kind::kModel ? "pull reply"
                                                        : "push ack") +
              " from shard " + std::to_string(s) +
              " does not match its slice (" +
              std::to_string(reply.weights.size()) + " weights, " +
              std::to_string(width) +
              " expected): do the shards and this node train the same "
              "problem?");
    std::copy(reply.weights.begin(), reply.weights.end(),
              model.begin() + static_cast<std::ptrdiff_t>(begin));
}

void
pull_slice(RpcClient& rpc, std::size_t shards, std::size_t s,
           std::size_t worker, std::vector<float>& model)
{
    Message pull;
    pull.kind = Message::Kind::kPull;
    pull.worker = static_cast<std::uint32_t>(worker);
    adopt_slice(rpc.call(s, std::move(pull)), Message::Kind::kModel, shards,
                s, model);
}

void
pull_slices(RpcClient& rpc, std::size_t shards, std::size_t worker,
            std::vector<float>& model)
{
    for (std::size_t s = 0; s < shards; ++s)
        pull_slice(rpc, shards, s, worker, model);
}

namespace {

PsConfig
validated(std::size_t dim, const PsConfig& config)
{
    validate_ps_config(dim, config);
    return config;
}

} // namespace

ParameterServer::ParameterServer(std::size_t dim, const PsConfig& config)
    : dim_(dim), config_(validated(dim, config)),
      transport_(config_.shards + config_.workers + 1, config_.faults)
{
    ShardConfig shard_cfg;
    shard_cfg.workers = config_.workers;
    shard_cfg.tau = config_.tau;
    shard_cfg.step_size = config_.step_size;
    shard_cfg.batch = config_.batch;
    shard_cfg.impl = config_.impl;
    for (std::size_t s = 0; s < config_.shards; ++s)
        shards_.push_back(std::make_unique<ServerShard>(
            s, slice_begin(dim_, config_.shards, s),
            slice_end(dim_, config_.shards, s), shard_cfg, transport_));
}

ParameterServer::~ParameterServer() { stop(); }

std::size_t
ParameterServer::worker_endpoint(std::size_t w) const
{
    if (w >= config_.workers) panic("worker endpoint out of range");
    return config_.shards + w;
}

void
ParameterServer::start()
{
    if (running_) panic("parameter server already started");
    if (stopped_) panic("parameter server cannot restart after stop");
    running_ = true;
    threads_.start(shards_.size(),
                   [this](std::size_t s) { shards_[s]->run(); });
}

void
ParameterServer::stop()
{
    if (!running_ || stopped_) return;
    stopped_ = true;
    transport_.close();
    threads_.join();
}

std::uint64_t
ParameterServer::version() const
{
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->version();
    return total;
}

std::vector<float>
ParameterServer::snapshot()
{
    std::lock_guard<std::mutex> lock(control_mutex_);
    if (!running_ || stopped_)
        panic("snapshot needs a running parameter server");
    RpcClient rpc(transport_, config_.shards + config_.workers);
    std::vector<float> model(dim_);
    pull_slices(rpc, shards_.size(), 0, model);
    control_retries_ += rpc.retries();
    return model;
}

PsMetrics
ParameterServer::metrics() const
{
    PsMetrics metrics;
    if (stopped_)
        for (const auto& shard : shards_)
            metrics.shards.push_back(shard->metrics());
    metrics.messages_sent = transport_.sent();
    metrics.messages_dropped = transport_.dropped();
    metrics.wire_bytes_sent = transport_.sent_bytes();
    {
        std::lock_guard<std::mutex> lock(control_mutex_);
        metrics.rpc_retries = control_retries_;
    }
    return metrics;
}

} // namespace buckwild::ps
