/**
 * @file
 * Cluster node roles — the pieces a multi-process parameter-server
 * deployment is assembled from, and the fork-based assembler itself.
 *
 * The endpoint layout is the ParameterServer's, shared cluster-wide:
 * shards at [0, S), workers at [S, S+W), control at S+W. In-process,
 * ParameterServer hosts everything behind one InProcTransport; across
 * processes, each role hosts its own endpoint(s) behind a
 * SocketTransport:
 *
 *  - run_shard_node(): a listening shard process — serves its slice
 *    until a kShutdown arrives, then returns its metrics;
 *  - run_worker_node(): a worker process — dials the shard addresses,
 *    runs its training rounds, returns its WorkerStats;
 *  - ControlClient: snapshot / stats / shutdown against remote shards
 *    from the control endpoint (what `buckwild_cluster --control` and
 *    the --spawn parent use);
 *  - train_cluster_multiprocess(): the --spawn convenience — binds every
 *    shard listener up front (race-free port assignment), forks S shard
 *    and W worker processes, collects worker stats over pipes, then
 *    snapshots, gathers shard metrics, and shuts the shards down as the
 *    control client. Call it before spawning any threads in the parent
 *    (fork() and threads do not mix).
 *
 * run_worker_rounds() is the one worker training loop, for dense and
 * sparse rows alike, shared verbatim by the in-process trainer
 * (ps/cluster.cpp) and the socket worker — so the two execution modes
 * differ only in the fabric underneath.
 *
 * The functions templated on `Problem` are defined for
 * dataset::DenseProblem and dataset::SparseProblem.
 *
 * Fault injection in multi-process mode is sender-side at the clients:
 * worker and control processes apply the configured FaultModel to their
 * sends, shard processes drop/delay nothing (their reorder window still
 * applies). This keeps teardown deliverable — a shard that drops its own
 * kShutdown ack would exit while the controller retransmits into a dead
 * connection forever.
 */
#ifndef BUCKWILD_PS_NODE_H
#define BUCKWILD_PS_NODE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/socket.h"
#include "ps/cluster.h"
#include "ps/socket_transport.h"

namespace buckwild::ps {

// ------------------------------------------------- endpoint geometry
//
// Shard slices are slice_begin() / slice_end() (ps/server.h).

/// Total transport endpoints of a cluster: S shards + W workers + 1
/// control.
inline std::size_t
cluster_endpoints(const ClusterConfig& config)
{
    return config.shards + config.workers + 1;
}

/// Endpoint of worker w's reply mailbox.
inline std::size_t
worker_endpoint_of(const ClusterConfig& config, std::size_t w)
{
    return config.shards + w;
}

/// The control endpoint (snapshot / stats / shutdown traffic).
inline std::size_t
control_endpoint_of(const ClusterConfig& config)
{
    return config.shards + config.workers;
}

// ------------------------------------------------------ worker rounds

/// What one worker reports when its rounds are done — plain values so a
/// forked worker process can ship them to the parent through a pipe.
struct WorkerStats
{
    double seconds = 0.0;          ///< wall time inside the round loop
    std::uint64_t retries = 0;     ///< RPC retransmissions
    std::uint64_t rounds = 0;      ///< rounds completed
    std::uint64_t encoded_bytes = 0; ///< wire bytes of pushed gradients
};

/**
 * Runs worker `worker`'s full training loop (mini-batch gradient, error
 * feedback, encode per shard slice, push with SSP-nack backoff, retire)
 * over `transport` — any fabric. Round one pulls every shard's slice;
 * after that a round computes on the slices the previous round's push
 * acks carried, and pulls only a shard whose accepted ack came back
 * without one. Increments `*rounds_done` (when non-null) after each
 * round, for an external publisher loop.
 *
 * Over dense rows each margin and each gradient add run the registered
 * dense dot and AXPY of `config.impl` (simd::DenseOps<float, float>).
 * Over sparse rows the gradient is accumulated over only the touched
 * coordinates (the registered sparse dot kernels of `config.impl`),
 * error feedback is a sparse residual, and each shard is pushed the
 * nnz run inside its slice as a sparse gradient — an empty one when no
 * coordinate landed there, so the SSP clocks advance uniformly.
 */
template <typename Problem>
WorkerStats run_worker_rounds(const ClusterConfig& config,
                              const Problem& problem, std::size_t worker,
                              Transport& transport,
                              std::atomic<std::uint64_t>* rounds_done);

// ------------------------------------------------------- node roles

/// How a shard process binds its endpoint.
struct ShardNodeOptions
{
    std::size_t index = 0; ///< shard index == transport endpoint
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral
    /// Pre-bound listener inherited from the --spawn parent (takes
    /// ownership; overrides bind_address/port).
    int adopt_listen_fd = -1;
    /// When non-null, receives the actually bound port before serving.
    std::uint16_t* bound_port = nullptr;
};

/// Serves shard `options.index` over TCP until a kShutdown arrives;
/// returns the shard's counters. Blocks the calling thread.
ShardMetrics run_shard_node(const ClusterConfig& config, std::size_t dim,
                            const ShardNodeOptions& options);

/// Runs worker `worker` against remote shards at `shard_addresses`
/// (index s = shard s). Blocks until the rounds are done.
template <typename Problem>
WorkerStats run_worker_node(const ClusterConfig& config,
                            const Problem& problem, std::size_t worker,
                            const std::vector<net::Address>& shard_addresses);

/// The control endpoint's view of a remote cluster.
class ControlClient
{
  public:
    ControlClient(const ClusterConfig& config,
                  const std::vector<net::Address>& shard_addresses);

    /// Assembles the full model by pulling every shard.
    std::vector<float> snapshot(std::size_t dim);

    /// Per-shard counters (kStats round-trip to every shard).
    std::vector<ShardMetrics> stats();

    /// Tells every shard to exit its message loop.
    void shutdown();

    std::uint64_t retries() const { return rpc_.retries(); }

  private:
    const ClusterConfig config_;
    SocketTransport transport_;
    RpcClient rpc_;
};

// --------------------------------------------------------- assembly

/// Average loss and accuracy of `model` over the whole problem, from
/// the margins the worker computes: the registered dense or sparse dot
/// of kernel tier `impl` (the cluster's `config.impl`; the ambient tier
/// when omitted).
template <typename Problem>
void evaluate_model(const Problem& problem, core::Loss loss,
                    const std::vector<float>& model, double* out_loss,
                    double* out_accuracy,
                    simd::Impl impl = simd::best_impl());

/// Wraps weights in the async-C DMGC provenance signature at the
/// configured wire codec — every checkpoint a cluster publishes or
/// saves. `sparse` selects the sparse signature row (D32f i32 M32f with
/// the async C term) for sparse-workload runs.
core::SavedModel make_cluster_checkpoint(const ClusterConfig& config,
                                         std::vector<float> weights,
                                         bool sparse = false);

/// Static per-round push bytes (header + payload per shard slice) for
/// the fixed-size codecs; 0 for the variable-bit CsQ tiers, whose
/// traffic is measured from WorkerStats::encoded_bytes instead.
double fixed_bytes_per_round(const ClusterConfig& config, std::size_t dim);

/**
 * train_cluster over real processes: forks config.shards shard processes
 * and config.workers worker processes on this machine, connected over
 * loopback TCP, and drives teardown as the control client. The returned
 * result mirrors train_cluster()'s, with two caveats: fabric counters
 * (messages_sent/dropped) are per-process and not aggregated, and
 * registry publishing is unavailable (no shared address space).
 *
 * Must be called while this process is single-threaded (it forks).
 * @throws std::runtime_error on an invalid config (before anything is
 * forked: validate_cluster_config()) or a failed child.
 */
template <typename Problem>
ClusterResult train_cluster_multiprocess(const Problem& problem,
                                         const ClusterConfig& config);

} // namespace buckwild::ps

#endif // BUCKWILD_PS_NODE_H
