#include "ps/cluster.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "ps/node.h"
#include "ps/workload.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace buckwild::ps {

namespace {

/// The parameter-server part of a cluster configuration.
PsConfig
ps_config_of(const ClusterConfig& config)
{
    PsConfig ps_cfg;
    ps_cfg.shards = config.shards;
    ps_cfg.workers = config.workers;
    ps_cfg.tau = config.tau;
    ps_cfg.step_size = config.step_size;
    ps_cfg.batch = config.batch;
    ps_cfg.codec = config.codec;
    ps_cfg.loss = config.loss;
    ps_cfg.impl = config.impl;
    ps_cfg.faults = config.faults;
    return ps_cfg;
}

} // namespace

template <typename Problem>
void
validate_cluster_config(const Problem& problem, const ClusterConfig& config)
{
    if (config.rounds == 0) fatal("rounds must be >= 1");
    if (detail::example_count(problem) < config.workers)
        fatal("need at least one example per worker");
    validate_ps_config(problem.dim, ps_config_of(config));
}

template <typename Problem>
ClusterResult
train_cluster(const Problem& problem, const ClusterConfig& config,
              serve::ModelRegistry* registry)
{
    validate_cluster_config(problem, config);
    ParameterServer server(problem.dim, ps_config_of(config));

    const std::size_t workers = config.workers;

    ClusterResult result;
    result.comm = config.codec.name();

    std::atomic<std::uint64_t> rounds_done{0};
    std::vector<WorkerStats> worker_stats(workers);
    const auto checkpoint = [&] {
        return make_cluster_checkpoint(config, server.snapshot(),
                                       detail::is_sparse_workload(problem));
    };

    Stopwatch wall;
    server.start();

    // The worker round loop itself lives in ps/node.cpp — shared
    // verbatim with the multi-process socket workers, so both execution
    // modes train identically and differ only in the fabric.
    WorkerGroup group;
    group.start(workers, [&](std::size_t w) {
        worker_stats[w] = run_worker_rounds(config, problem, w,
                                            server.transport(),
                                            &rounds_done);
    });

    // The caller's thread doubles as the publisher: every publish_every
    // applied worker rounds, checkpoint the shards into the registry —
    // serving hot-swaps onto training progress mid-run.
    const std::uint64_t total_rounds =
        static_cast<std::uint64_t>(workers) * config.rounds;
    std::uint64_t next_publish =
        registry != nullptr && config.publish_every > 0
            ? config.publish_every
            : total_rounds + 1;
    while (rounds_done.load(std::memory_order_acquire) < total_rounds) {
        if (rounds_done.load(std::memory_order_acquire) >= next_publish) {
            result.published_versions.push_back(
                registry->publish(checkpoint(), config.publish_precision));
            while (next_publish <=
                   rounds_done.load(std::memory_order_acquire))
                next_publish += config.publish_every;
        } else {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }
    group.join();

    // Final state: snapshot it once, publish that exact version (the one
    // a serving cluster ends on), evaluate it, then stop the shards.
    result.checkpoint = checkpoint();
    if (registry != nullptr)
        result.published_versions.push_back(
            registry->publish(result.checkpoint, config.publish_precision));
    result.wall_seconds = wall.seconds();
    server.stop();

    result.metrics = server.metrics();
    detail::finish_cluster_result(problem, config, worker_stats, result);
    return result;
}

template void validate_cluster_config(const dataset::DenseProblem&,
                                      const ClusterConfig&);
template void validate_cluster_config(const dataset::SparseProblem&,
                                      const ClusterConfig&);
template ClusterResult train_cluster(const dataset::DenseProblem&,
                                     const ClusterConfig&,
                                     serve::ModelRegistry*);
template ClusterResult train_cluster(const dataset::SparseProblem&,
                                     const ClusterConfig&,
                                     serve::ModelRegistry*);

} // namespace buckwild::ps
