/**
 * @file
 * ServerShard — one range-partitioned slice of the model, served by its
 * own thread.
 *
 * Shard s owns coordinates [begin, end) of the model. All mutation goes
 * through its message loop: workers kPush quantized gradient slices
 * (applied through the simd::ops float kernels — the same AXPY the
 * Hogwild! trainer uses), kPull a copy of the current slice, and kRetire
 * when done. The ack of an applied push carries the post-apply slice,
 * which the worker's next round computes on — so a worker pulls only in
 * its first round, or after an ack that came back without a slice.
 * Because exactly one thread touches the weights, the shard needs no
 * locks around them; concurrency lives entirely in the mailboxes.
 *
 * Bounded staleness (SSP): the shard tracks a per-worker clock (applied
 * pushes). A push that would put its worker more than `tau` rounds ahead
 * of the slowest live worker is bounced (kAck accepted=false) and the
 * worker backs off — the asynchronous C-term analog of the paper's §2.3
 * "allowing staleness ... up to some bound". Retired workers leave the
 * gate so finishing workers never wedge the rest.
 *
 * Retransmitted pushes (the transport may drop an ack) are deduplicated
 * by worker clock: a push with clock <= the worker's applied clock was
 * already applied and is re-acked without applying — push application is
 * exactly-once even over a lossy fabric.
 */
#ifndef BUCKWILD_PS_SHARD_H
#define BUCKWILD_PS_SHARD_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "obs/registry.h"
#include "ps/metrics.h"
#include "ps/transport.h"
#include "simd/ops.h"
#include "util/logging.h"

namespace buckwild::ps {

/// Server-side update knobs shared by every shard.
struct ShardConfig
{
    std::size_t workers = 1;  ///< clock-table size
    std::size_t tau = 16;     ///< max rounds ahead of the slowest worker
    float step_size = 0.25f;  ///< eta applied per push
    std::size_t batch = 16;   ///< gradient normalizer (examples per push)
    simd::Impl impl = simd::Impl::kReference; ///< update kernel
};

class ServerShard
{
  public:
    /// Serves coordinates [begin, end) at transport endpoint `index`.
    ServerShard(std::size_t index, std::size_t begin, std::size_t end,
                const ShardConfig& config, Transport& transport);

    /// The message loop; runs until the transport closes and the mailbox
    /// drains, or a kShutdown arrives (multi-process teardown). A request
    /// the shard cannot serve (unknown worker or reply endpoint, a
    /// gradient that is not its slice or does not decode, a reply kind)
    /// is dropped and counted in ps.shard.malformed; only the first few
    /// warn. Call on a dedicated thread.
    void run();

    std::size_t index() const { return index_; }
    std::size_t begin() const { return begin_; }
    std::size_t end() const { return end_; }
    std::size_t size() const { return end_ - begin_; }

    /// Applied pushes so far (readable from any thread).
    std::uint64_t
    version() const
    {
        return version_.load(std::memory_order_acquire);
    }

    /// The slice and its counters; only coherent once run() returned.
    const std::vector<float>& weights() const { return weights_; }
    const ShardMetrics& metrics() const { return metrics_; }

  private:
    /// Serves one request; false once it was a kShutdown.
    /// @throws std::runtime_error on a request this shard cannot serve.
    bool handle(Message&& message);
    void handle_push(Message&& push);
    void handle_pull(Message&& pull);
    void handle_stats(Message&& request);
    void handle_retire(Message&& retire);
    std::uint64_t min_live_clock() const;
    /// Echoes a request's trace identity and timestamps onto its reply
    /// so the requester gets a complete clock-offset sample.
    void stamp_reply_trace(const Message& request, Message& reply) const;
    /// Refreshes ps.ssp.bounce_rate = gated / (gated + applied).
    void update_bounce_rate();
    /// Live staleness exposition: the labeled per-(worker, staleness)
    /// counter, created on first use and cached (the shard is
    /// single-threaded, so a plain map suffices).
    obs::Counter& staleness_counter(std::uint32_t worker,
                                    std::uint64_t staleness);

    const std::size_t index_;
    const std::size_t begin_;
    const std::size_t end_;
    const ShardConfig config_;
    Transport& transport_;
    std::vector<float> weights_;
    std::vector<std::uint64_t> clocks_; ///< applied pushes per worker
    std::vector<bool> retired_;
    std::atomic<std::uint64_t> version_{0};
    ShardMetrics metrics_;
    // Cached registry handles for the per-push exposition (satellite of
    // the tracing tier: staleness and hop decomposition leave the
    // process via /metrics instead of dying in ShardMetrics).
    obs::Histo& staleness_histo_;
    obs::Histo& hop_push_wire_;
    obs::Histo& hop_apply_;
    obs::Gauge& ssp_bounce_rate_;
    std::map<std::pair<std::uint32_t, std::uint64_t>, obs::Counter*>
        staleness_counters_;
    BoundedWarn malformed_warnings_;
};

} // namespace buckwild::ps

#endif // BUCKWILD_PS_SHARD_H
