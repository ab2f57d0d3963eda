/**
 * @file
 * ParameterServer — S range-partitioned shards behind one Transport.
 *
 * Endpoint layout: shards own endpoints [0, S), workers reply-receive at
 * [S, S+W), and one control endpoint S+W serves the snapshot/publish
 * path. start() launches one thread per shard (util::WorkerGroup);
 * stop() closes the transport, which drains and joins them.
 *
 * snapshot() assembles the full model by pulling every shard over the
 * same message path a worker's first round uses (pull_slices()) — so a
 * checkpoint
 * taken mid-training observes each shard atomically (a shard answers a
 * pull between pushes, never inside one) though shards may sit at
 * different versions, exactly like any other asynchronous reader.
 * train_cluster() wraps each snapshot in its DMGC provenance and
 * publishes it into a serve::ModelRegistry (ps/cluster.h).
 */
#ifndef BUCKWILD_PS_SERVER_H
#define BUCKWILD_PS_SERVER_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/loss.h"
#include "ps/metrics.h"
#include "ps/shard.h"
#include "ps/transport.h"
#include "util/thread_pool.h"

namespace buckwild::ps {

/// Cluster-wide parameter-server knobs.
struct PsConfig
{
    std::size_t shards = 2;
    std::size_t workers = 1; ///< worker endpoints / clock-table size
    std::size_t tau = 16;    ///< staleness bound (rounds)
    float step_size = 0.25f;
    std::size_t batch = 16; ///< examples per pushed gradient
    Codec codec;            ///< Cs32 / Cs8 / Cs1 / CsQ<b> wire codec
    core::Loss loss = core::Loss::kLogistic;
    simd::Impl impl = simd::best_impl();
    FaultModel faults;
};

/// Throws std::runtime_error unless `config` can serve a dim-coordinate
/// model (what the ParameterServer constructor checks).
void validate_ps_config(std::size_t dim, const PsConfig& config);

/// First coordinate of shard s's slice of a dim-coordinate model.
inline std::size_t
slice_begin(std::size_t dim, std::size_t shards, std::size_t s)
{
    return s * dim / shards;
}

/// One past the last coordinate of shard s's slice.
inline std::size_t
slice_end(std::size_t dim, std::size_t shards, std::size_t s)
{
    return (s + 1) * dim / shards;
}

/**
 * Copies shard s's slice, carried by `reply`, into its place in `model`
 * (model.size() coordinates over `shards` shards). Both carriers of a
 * slice go through here: a pull's kModel reply, and the kAck of an
 * applied push.
 *
 * @throws std::runtime_error, naming the shard, when `reply` is not a
 * `kind` message of exactly the slice's width (a shard started on
 * another problem would otherwise be copied past the end of `model`).
 */
void adopt_slice(const Message& reply, Message::Kind kind,
                 std::size_t shards, std::size_t s,
                 std::vector<float>& model);

/// Pulls shard s's slice of `model` through `rpc`, as worker `worker`.
/// @throws std::runtime_error as adopt_slice() does.
void pull_slice(RpcClient& rpc, std::size_t shards, std::size_t s,
                std::size_t worker, std::vector<float>& model);

/// Pulls every shard's slice of `model`. Slices may sit at different
/// versions: that inconsistency is the asynchrony the C-term error
/// feedback has to absorb.
void pull_slices(RpcClient& rpc, std::size_t shards, std::size_t worker,
                 std::vector<float>& model);

class ParameterServer
{
  public:
    /// Partitions a dim-coordinate model across config.shards shards.
    /// @throws std::runtime_error on an invalid configuration.
    ParameterServer(std::size_t dim, const PsConfig& config);
    ~ParameterServer();

    ParameterServer(const ParameterServer&) = delete;
    ParameterServer& operator=(const ParameterServer&) = delete;

    void start();
    /// Closes the transport and joins the shard threads. Idempotent.
    void stop();

    std::size_t dim() const { return dim_; }
    std::size_t shards() const { return shards_.size(); }
    const PsConfig& config() const { return config_; }
    Transport& transport() { return transport_; }

    /// Endpoint of worker w's reply mailbox.
    std::size_t worker_endpoint(std::size_t w) const;

    /// Total applied pushes across shards (any thread, any time).
    std::uint64_t version() const;

    /// Assembles the full model by pulling every shard; safe while
    /// training is running (serialized on the control endpoint).
    std::vector<float> snapshot();

    /// Shard + fabric counters. Shard entries are only filled in once
    /// stop() has run (they are owned by the shard threads until then).
    PsMetrics metrics() const;

  private:
    const std::size_t dim_;
    const PsConfig config_;
    InProcTransport transport_;
    std::vector<std::unique_ptr<ServerShard>> shards_;
    WorkerGroup threads_;
    mutable std::mutex control_mutex_; ///< serializes snapshot()
    std::uint64_t control_retries_ = 0; ///< guarded by control_mutex_
    bool running_ = false;
    bool stopped_ = false;
};

} // namespace buckwild::ps

#endif // BUCKWILD_PS_SERVER_H
