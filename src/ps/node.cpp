#include "ps/node.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <memory>
#include <thread>

#include "obs/export.h"
#include "obs/fleet.h"
#include "obs/http_exporter.h"
#include "obs/obs.h"
#include "obs/prom.h"
#include "ps/shard.h"
#include "ps/wire.h"
#include "ps/workload.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace buckwild::ps {

// ------------------------------------------------------ worker rounds

namespace {

/// Pushes one wire gradient to shard `s`, backing off and retrying while
/// the SSP gate nacks it, and returns the accepted ack. Time spent
/// bounced lands in the ssp_wait hop histogram.
Message
push_with_backoff(RpcClient& rpc, std::size_t s, std::size_t worker,
                  std::uint64_t round, const WireGradient& wire,
                  obs::Histo& hop_ssp_wait)
{
    Stopwatch gate_clock;
    bool gated = false;
    for (;;) {
        Message push;
        push.kind = Message::Kind::kPush;
        push.worker = static_cast<std::uint32_t>(worker);
        push.clock = round;
        push.gradient = wire;
        Message ack = rpc.call(s, std::move(push));
        if (ack.accepted) {
            if (gated) hop_ssp_wait.record(gate_clock.seconds());
            return ack;
        }
        if (!gated) {
            gated = true;
            gate_clock = Stopwatch();
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

/// Leaves the SSP gate so the remaining workers are not held to this
/// worker's final clock.
void
retire_worker(RpcClient& rpc, const ClusterConfig& config,
              std::size_t worker)
{
    for (std::size_t s = 0; s < config.shards; ++s) {
        Message retire;
        retire.kind = Message::Kind::kRetire;
        retire.worker = static_cast<std::uint32_t>(worker);
        rpc.call(s, std::move(retire));
    }
}

obs::Histo&
ssp_wait_histogram()
{
    static obs::Histo& histo = obs::MetricsRegistry::global().histogram(
        obs::labeled("ps.hop_seconds", {{"hop", "ssp_wait"}}));
    return histo;
}

} // namespace

template <typename Problem>
WorkerStats
run_worker_rounds(const ClusterConfig& config, const Problem& problem,
                  std::size_t worker, Transport& transport,
                  std::atomic<std::uint64_t>* rounds_done)
{
    Stopwatch clock;
    WorkerStats stats;
    const std::size_t dim = problem.dim;
    const std::size_t shards = config.shards;
    RpcClient rpc(transport, worker_endpoint_of(config, worker));

    // Worker w trains on its own contiguous slice of the examples —
    // the data-parallel D partition — cycling through it in
    // mini-batches of config.batch.
    const std::size_t examples = detail::example_count(problem);
    const std::size_t ex_begin = worker * examples / config.workers;
    const std::size_t ex_count =
        (worker + 1) * examples / config.workers - ex_begin;

    std::vector<float> model(dim, 0.0f);
    // held[s]: shard s's slice in `model` came with the ack of this
    // worker's last push, taken after it was applied. A shard not held —
    // round one, or an ack without a slice (the duplicate ack of a
    // retransmitted push, or a shard that does not ship slices) — is
    // pulled when the round starts.
    std::vector<bool> held(shards, false);
    auto gradient = detail::accumulator_for(
        problem,
        config.error_feedback && config.codec.kind != CodecKind::kDense,
        config.impl);

    // Per-worker stochastic-rounding stream for the CsQ tiers; seeded
    // from the worker id so runs are reproducible and workers
    // independent.
    std::uint64_t seed_state =
        0xC5C0DEull + static_cast<std::uint64_t>(worker);
    rng::Xorshift128Plus codec_rng(rng::splitmix64(seed_state));

    for (std::uint64_t round = 1; round <= config.rounds; ++round) {
        BUCKWILD_OBS_SPAN("ps", "worker.round");
        Stopwatch round_clock;
        for (std::size_t s = 0; s < shards; ++s)
            if (!held[s]) pull_slice(rpc, shards, s, worker, model);

        {
            // Mini-batch gradient on this worker's data slice.
            BUCKWILD_OBS_SPAN("ps", "worker.minibatch");
            Stopwatch minibatch_clock;
            gradient.begin_minibatch();
            std::size_t numbers = 0;
            for (std::size_t b = 0; b < config.batch; ++b) {
                const std::size_t i =
                    ex_begin + ((round - 1) * config.batch + b) % ex_count;
                const auto& x = detail::row(problem, i);
                numbers += detail::row_numbers(x);
                const float g = core::loss_gradient_coefficient(
                    config.loss, detail::row_dot(config.impl, x, model.data()),
                    problem.y[i]);
                if (g == 0.0f) continue;
                gradient.add(g, x);
            }
            gradient.add_residual();
            // Cumulative GNPS inputs for the live conformance
            // watchdog: numbers touched / seconds busy in compute.
            BUCKWILD_OBS_GAUGE_ADD("ps.worker.numbers",
                                   static_cast<double>(numbers));
            BUCKWILD_OBS_GAUGE_ADD("ps.worker.seconds",
                                   minibatch_clock.seconds());
        }
        gradient.begin_pushes();

        // Quantize and push each shard's slice; a staleness-gated
        // nack means this worker ran too far ahead — back off and
        // retry (the shard's gate opens as the slow workers apply).
        for (std::size_t s = 0; s < shards; ++s) {
            const WireGradient wire = gradient.encode(
                slice_begin(dim, shards, s), slice_end(dim, shards, s),
                config.codec, &codec_rng);
            stats.encoded_bytes += wire.wire_bytes();
            BUCKWILD_OBS_COUNT("ps.worker.encoded_bytes",
                               wire.wire_bytes());
            const Message ack = push_with_backoff(rpc, s, worker, round,
                                                  wire, ssp_wait_histogram());
            held[s] = !ack.weights.empty();
            if (held[s])
                adopt_slice(ack, Message::Kind::kAck, shards, s, model);
        }
        gradient.end_round();
        ++stats.rounds;
        if (rounds_done != nullptr)
            rounds_done->fetch_add(1, std::memory_order_acq_rel);
        BUCKWILD_OBS_HISTO("ps.worker.round_seconds",
                           round_clock.seconds());
    }

    retire_worker(rpc, config, worker);

    stats.seconds = clock.seconds();
    stats.retries = rpc.retries();
    return stats;
}

// ------------------------------------------------------- node roles

ShardMetrics
run_shard_node(const ClusterConfig& config, std::size_t dim,
               const ShardNodeOptions& options)
{
    if (options.index >= config.shards) fatal("shard index out of range");
    SocketTransportConfig tc;
    tc.endpoints = cluster_endpoints(config);
    tc.local = options.index;
    tc.listen = true;
    tc.bind_address = options.bind_address;
    tc.listen_port = options.port;
    tc.adopt_listen_fd = options.adopt_listen_fd;
    // Sender-side fault injection (see node.h): the shard's own sends
    // are reliable so teardown acks always make it out; the reorder
    // window still shuffles its inbound mailbox.
    tc.faults = config.faults;
    tc.faults.drop_prob = 0.0;
    tc.faults.jitter_us = 0;
    SocketTransport transport(tc);
    if (options.bound_port != nullptr) *options.bound_port = transport.port();

    ShardConfig shard_cfg;
    shard_cfg.workers = config.workers;
    shard_cfg.tau = config.tau;
    shard_cfg.step_size = config.step_size;
    shard_cfg.batch = config.batch;
    shard_cfg.impl = config.impl;
    ServerShard shard(options.index,
                      slice_begin(dim, config.shards, options.index),
                      slice_end(dim, config.shards, options.index),
                      shard_cfg, transport);
    shard.run(); // until kShutdown (or transport close)
    transport.close();
    return shard.metrics();
}

template <typename Problem>
WorkerStats
run_worker_node(const ClusterConfig& config, const Problem& problem,
                std::size_t worker,
                const std::vector<net::Address>& shard_addresses)
{
    if (worker >= config.workers) fatal("worker index out of range");
    if (shard_addresses.size() != config.shards)
        fatal("need one shard address per shard");
    SocketTransportConfig tc;
    tc.endpoints = cluster_endpoints(config);
    tc.local = worker_endpoint_of(config, worker);
    for (std::size_t s = 0; s < config.shards; ++s)
        tc.peers[s] = shard_addresses[s];
    tc.faults = config.faults;
    SocketTransport transport(tc);
    const WorkerStats stats =
        run_worker_rounds(config, problem, worker, transport, nullptr);
    transport.close();
    return stats;
}

namespace {

SocketTransportConfig
control_transport_config(const ClusterConfig& config,
                         const std::vector<net::Address>& shard_addresses)
{
    if (shard_addresses.size() != config.shards)
        fatal("need one shard address per shard");
    SocketTransportConfig tc;
    tc.endpoints = cluster_endpoints(config);
    tc.local = control_endpoint_of(config);
    for (std::size_t s = 0; s < config.shards; ++s)
        tc.peers[s] = shard_addresses[s];
    tc.faults = config.faults;
    return tc;
}

} // namespace

ControlClient::ControlClient(const ClusterConfig& config,
                             const std::vector<net::Address>& shard_addresses)
    : config_(config),
      transport_(control_transport_config(config, shard_addresses)),
      rpc_(transport_, control_endpoint_of(config))
{}

std::vector<float>
ControlClient::snapshot(std::size_t dim)
{
    std::vector<float> model(dim);
    pull_slices(rpc_, config_.shards, 0, model);
    return model;
}

std::vector<ShardMetrics>
ControlClient::stats()
{
    std::vector<ShardMetrics> all;
    for (std::size_t s = 0; s < config_.shards; ++s) {
        Message request;
        request.kind = Message::Kind::kStats;
        const Message reply = rpc_.call(s, std::move(request));
        all.push_back(shard_metrics_from_stats(reply.stats));
    }
    return all;
}

void
ControlClient::shutdown()
{
    for (std::size_t s = 0; s < config_.shards; ++s) {
        Message request;
        request.kind = Message::Kind::kShutdown;
        rpc_.call(s, std::move(request));
    }
}

// --------------------------------------------------------- assembly

template <typename Problem>
void
evaluate_model(const Problem& problem, core::Loss loss,
               const std::vector<float>& model, double* out_loss,
               double* out_accuracy, simd::Impl impl)
{
    const core::Evaluation e =
        core::evaluate(loss, problem.y, [&](std::size_t i) {
            return detail::row_dot(impl, detail::row(problem, i),
                                   model.data());
        });
    *out_loss = e.loss;
    *out_accuracy = e.accuracy;
}

core::SavedModel
make_cluster_checkpoint(const ClusterConfig& config,
                        std::vector<float> weights, bool sparse)
{
    core::SavedModel model;
    model.signature = sparse ? dmgc::Signature::sparse_hogwild()
                             : dmgc::Signature::dense_hogwild();
    model.signature.communication = dmgc::Communication::kAsynchronous;
    model.signature.comm_precision = config.codec.kind == CodecKind::kDense
        ? dmgc::Precision::full()
        : dmgc::Precision::fixed(config.codec.bits);
    model.loss = config.loss;
    model.weights = std::move(weights);
    return model;
}

double
fixed_bytes_per_round(const ClusterConfig& config, std::size_t dim)
{
    if (config.codec.kind == CodecKind::kQsgd) return 0.0;
    double total = 0.0;
    for (std::size_t s = 0; s < config.shards; ++s)
        total += static_cast<double>(
            kWireHeaderBytes +
            payload_bytes(slice_end(dim, config.shards, s) -
                              slice_begin(dim, config.shards, s),
                          config.codec.bits));
    return total;
}

template <typename Problem>
void
detail::finish_cluster_result(const Problem& problem,
                              const ClusterConfig& config,
                              const std::vector<WorkerStats>& worker_stats,
                              ClusterResult& result)
{
    evaluate_model(problem, config.loss, result.checkpoint.weights,
                   &result.final_loss, &result.accuracy, config.impl);
    std::uint64_t encoded_total = 0;
    for (const WorkerStats& stats : worker_stats) {
        result.rounds += stats.rounds;
        result.metrics.worker_seconds += stats.seconds;
        result.metrics.rpc_retries += stats.retries;
        encoded_total += stats.encoded_bytes;
    }
    result.metrics.numbers = static_cast<double>(result.rounds) *
                             static_cast<double>(config.batch) *
                             numbers_per_example(problem);
    // Sparse pushes are nnz-dependent at every tier, so their traffic is
    // always measured; dense fixed-size codecs stay statically computed.
    const bool measured = config.codec.kind == CodecKind::kQsgd ||
                          is_sparse_workload(problem);
    result.bytes_per_round =
        measured ? (result.rounds > 0
                        ? static_cast<double>(encoded_total) /
                              static_cast<double>(result.rounds)
                        : 0.0)
                 : fixed_bytes_per_round(config, problem.dim);
}

namespace {

/// Child-side observability bring-up for a spawned node: tags the
/// tracer with the child's role and, when the fleet view is on, serves
/// this process's registry on an ephemeral /metrics port — reported to
/// the parent through `port_fd` before any training traffic, so the
/// parent can assemble its target list without racing the run. (Every
/// spawn pipe goes through net's exact-count pair with ::write/::read,
/// since send/recv refuse a pipe.)
std::unique_ptr<obs::HttpExporter>
start_child_obs(const ClusterConfig& config, const std::string& role,
                int port_fd)
{
    if (!config.trace_dir.empty()) {
        obs::Tracer::global().set_enabled(true);
        obs::Tracer::global().set_process(role);
    }
    std::unique_ptr<obs::HttpExporter> exporter;
    if (config.fleet_port >= 0) {
        obs::HttpExporterConfig hc;
        hc.port = 0;
        hc.bind_address = "127.0.0.1";
        exporter = std::make_unique<obs::HttpExporter>(hc);
        // Port 0 means "could not bind" to the parent, which then just
        // leaves this node out of the fleet view.
        const std::uint32_t port =
            exporter->start() ? exporter->port() : 0;
        if (!net::write_full(port_fd, &port, sizeof port, ::write))
            warn("cluster: child could not report its /metrics port");
    }
    return exporter;
}

/// Child-side observability teardown: stop the scrape endpoint and
/// flush this process's trace where buckwild_tracemerge expects it.
void
finish_child_obs(const ClusterConfig& config, const std::string& role,
                 std::unique_ptr<obs::HttpExporter> exporter)
{
    if (exporter != nullptr) exporter->stop();
    if (!config.trace_dir.empty())
        obs::export_trace_file(config.trace_dir + "/" + role +
                               ".trace.json");
}

void
reap_children(const std::vector<pid_t>& pids, const char* role)
{
    for (const pid_t pid : pids) {
        int status = 0;
        pid_t reaped;
        do {
            reaped = ::waitpid(pid, &status, 0);
        } while (reaped < 0 && errno == EINTR);
        if (reaped != pid || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0)
            fatal(std::string(role) + " process did not exit cleanly");
    }
}

} // namespace

template <typename Problem>
ClusterResult
train_cluster_multiprocess(const Problem& problem,
                           const ClusterConfig& config)
{
    validate_cluster_config(problem, config);

    const std::size_t shards = config.shards;
    const std::size_t workers = config.workers;

    // Bind every shard's listener in the parent, before forking: the
    // children inherit already-bound sockets, so the advertised ports
    // can never race the shard startup.
    std::vector<net::Fd> listeners;
    std::vector<net::Address> addresses;
    for (std::size_t s = 0; s < shards; ++s) {
        std::uint16_t port = 0;
        std::string error;
        net::Fd fd = net::listen_tcp("127.0.0.1", 0, 64, &port, &error);
        if (!fd.valid()) fatal(error);
        listeners.push_back(std::move(fd));
        addresses.push_back({"127.0.0.1", port});
    }

    Stopwatch wall;

    std::vector<pid_t> shard_pids;
    std::vector<int> shard_port_pipes;
    for (std::size_t s = 0; s < shards; ++s) {
        int port_fds[2] = {-1, -1};
        if (config.fleet_port >= 0 && ::pipe(port_fds) != 0)
            fatal("pipe failed for shard metrics port");
        const pid_t pid = ::fork();
        if (pid < 0) fatal("fork failed for shard process");
        if (pid == 0) {
            if (port_fds[0] >= 0) ::close(port_fds[0]);
            for (std::size_t t = 0; t < shards; ++t)
                if (t != s) listeners[t].reset();
            int code = 0;
            try {
                const std::string role = "shard" + std::to_string(s);
                std::unique_ptr<obs::HttpExporter> exporter =
                    start_child_obs(config, role, port_fds[1]);
                if (port_fds[1] >= 0) ::close(port_fds[1]);
                ShardNodeOptions options;
                options.index = s;
                options.adopt_listen_fd = listeners[s].release();
                run_shard_node(config, problem.dim, options);
                finish_child_obs(config, role, std::move(exporter));
            } catch (...) {
                code = 1;
            }
            ::_exit(code);
        }
        if (port_fds[1] >= 0) ::close(port_fds[1]);
        if (port_fds[0] >= 0) shard_port_pipes.push_back(port_fds[0]);
        shard_pids.push_back(pid);
    }
    // The children own the listeners now.
    for (auto& listener : listeners) listener.reset();

    // Each shard reports its ephemeral /metrics port as its first act;
    // a port of 0 (bind failure, dead child) drops it from the fleet.
    std::vector<std::uint32_t> shard_ports(shards, 0);
    for (std::size_t s = 0; s < shard_port_pipes.size(); ++s) {
        if (!net::read_full(shard_port_pipes[s], &shard_ports[s],
                            sizeof(shard_ports[s]), ::read))
            shard_ports[s] = 0;
        ::close(shard_port_pipes[s]);
    }

    std::vector<pid_t> worker_pids;
    std::vector<int> stat_pipes;
    std::vector<int> ack_pipes;
    for (std::size_t w = 0; w < workers; ++w) {
        int fds[2];
        if (::pipe(fds) != 0) fatal("pipe failed for worker stats");
        // When the fleet view is on, a reverse (parent -> worker) ack
        // pipe holds the worker's /metrics endpoint open until the
        // parent has taken its final scrape — otherwise the worker
        // would exit (and its exporter with it) the instant its stats
        // land, and the merged view would race the teardown.
        int ack_fds[2] = {-1, -1};
        if (config.fleet_port >= 0 && ::pipe(ack_fds) != 0)
            fatal("pipe failed for worker scrape ack");
        const pid_t pid = ::fork();
        if (pid < 0) fatal("fork failed for worker process");
        if (pid == 0) {
            ::close(fds[0]);
            if (ack_fds[1] >= 0) ::close(ack_fds[1]);
            int code = 0;
            try {
                // The stats pipe doubles as the port pipe: the
                // /metrics port goes down it first, the stats struct
                // follows as the worker's last act.
                const std::string role = "worker" + std::to_string(w);
                std::unique_ptr<obs::HttpExporter> exporter =
                    start_child_obs(config, role, fds[1]);
                const WorkerStats stats =
                    run_worker_node(config, problem, w, addresses);
                if (!net::write_full(fds[1], &stats, sizeof(stats), ::write))
                    code = 1;
                if (ack_fds[0] >= 0) {
                    char ack = 0;
                    // Returns once the parent has scraped.
                    net::read_full(ack_fds[0], &ack, 1, ::read);
                }
                finish_child_obs(config, role, std::move(exporter));
            } catch (...) {
                code = 1;
            }
            ::close(fds[1]);
            if (ack_fds[0] >= 0) ::close(ack_fds[0]);
            ::_exit(code);
        }
        ::close(fds[1]);
        if (ack_fds[0] >= 0) ::close(ack_fds[0]);
        worker_pids.push_back(pid);
        stat_pipes.push_back(fds[0]);
        ack_pipes.push_back(ack_fds[1]);
    }

    // Collect the workers' /metrics ports (written before round one).
    std::vector<std::uint32_t> worker_ports(workers, 0);
    if (config.fleet_port >= 0)
        for (std::size_t w = 0; w < workers; ++w)
            if (!net::read_full(stat_pipes[w], &worker_ports[w],
                                sizeof(worker_ports[w]), ::read))
                worker_ports[w] = 0;

    // All forks are done — threads are safe again. The parent becomes
    // the control node proper: it tags its own trace, and when the
    // fleet view is on it re-exposes the merged, node-labeled scrape
    // of every child plus its own registry.
    if (!config.trace_dir.empty()) {
        obs::Tracer::global().set_enabled(true);
        obs::Tracer::global().set_process("control");
    }
    std::unique_ptr<obs::FleetAggregator> fleet;
    std::unique_ptr<obs::HttpExporter> fleet_exporter;
    int fleet_port_bound = -1;
    if (config.fleet_port >= 0) {
        obs::FleetConfig fc;
        fc.local_node = "control";
        for (std::size_t s = 0; s < shards; ++s)
            if (shard_ports[s] != 0)
                fc.targets.push_back(
                    {"shard" + std::to_string(s),
                     {"127.0.0.1",
                      static_cast<std::uint16_t>(shard_ports[s])}});
        for (std::size_t w = 0; w < workers; ++w)
            if (worker_ports[w] != 0)
                fc.targets.push_back(
                    {"worker" + std::to_string(w),
                     {"127.0.0.1",
                      static_cast<std::uint16_t>(worker_ports[w])}});
        fleet = std::make_unique<obs::FleetAggregator>(std::move(fc));
        obs::HttpExporterConfig hc;
        hc.port = static_cast<std::uint16_t>(config.fleet_port);
        hc.bind_address = "127.0.0.1";
        hc.metrics_body = [aggregator = fleet.get()] {
            return aggregator->merged_body();
        };
        fleet_exporter = std::make_unique<obs::HttpExporter>(hc);
        if (fleet_exporter->start())
            fleet_port_bound = fleet_exporter->port();
    }

    // Workers report their stats through the pipe as their last act; a
    // short read means the worker died mid-run.
    std::vector<WorkerStats> worker_stats(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        const bool reported = net::read_full(
            stat_pipes[w], &worker_stats[w], sizeof(WorkerStats), ::read);
        ::close(stat_pipes[w]);
        if (!reported) {
            if (ack_pipes[w] >= 0) ::close(ack_pipes[w]);
            fatal("worker process " + std::to_string(w) +
                  " died before reporting stats");
        }
        if (ack_pipes[w] >= 0) {
            // The worker is done but parked on the ack pipe: scrape its
            // final numbers into the last-good cache, then release it.
            if (fleet != nullptr) fleet->merged_body();
            const char ack = 1;
            net::write_full(ack_pipes[w], &ack, 1, ::write);
            ::close(ack_pipes[w]);
        }
    }
    reap_children(worker_pids, "worker");

    // The parent is the control endpoint: final snapshot, shard
    // counters, then shutdown — and only then are the shards reaped.
    ClusterResult result;
    result.comm = config.codec.name();
    ControlClient control(config, addresses);
    std::vector<float> model = control.snapshot(problem.dim);
    result.metrics.shards = control.stats();
    // Final fleet snapshot while the shards still answer; the workers
    // (already gone) are served from their last-good scrapes.
    if (fleet != nullptr) result.fleet_metrics = fleet->merged_body();
    control.shutdown();
    reap_children(shard_pids, "shard");
    result.wall_seconds = wall.seconds();
    result.fleet_port = fleet_port_bound;
    if (fleet_exporter != nullptr) fleet_exporter->stop();
    if (!config.trace_dir.empty()) {
        obs::export_trace_file(config.trace_dir + "/control.trace.json");
        if (!result.fleet_metrics.empty()) {
            std::ofstream out(config.trace_dir + "/fleet.prom");
            out << result.fleet_metrics;
        }
    }

    result.checkpoint = make_cluster_checkpoint(
        config, std::move(model), detail::is_sparse_workload(problem));
    result.metrics.rpc_retries += control.retries();
    detail::finish_cluster_result(problem, config, worker_stats, result);
    return result;
}

#define BUCKWILD_PS_NODE_INSTANTIATE(Problem)                              \
    template WorkerStats run_worker_rounds(                                \
        const ClusterConfig&, const Problem&, std::size_t, Transport&,     \
        std::atomic<std::uint64_t>*);                                      \
    template WorkerStats run_worker_node(                                  \
        const ClusterConfig&, const Problem&, std::size_t,                 \
        const std::vector<net::Address>&);                                 \
    template void evaluate_model(const Problem&, core::Loss,               \
                                 const std::vector<float>&, double*,       \
                                 double*, simd::Impl);                     \
    template void detail::finish_cluster_result(                           \
        const Problem&, const ClusterConfig&,                              \
        const std::vector<WorkerStats>&, ClusterResult&);                  \
    template ClusterResult train_cluster_multiprocess(const Problem&,      \
                                                      const ClusterConfig&);

BUCKWILD_PS_NODE_INSTANTIATE(dataset::DenseProblem)
BUCKWILD_PS_NODE_INSTANTIATE(dataset::SparseProblem)

#undef BUCKWILD_PS_NODE_INSTANTIATE

} // namespace buckwild::ps
