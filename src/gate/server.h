/**
 * @file
 * GateServer — the production front door of the serving tier.
 *
 *     TCP clients
 *        │  net:: frames carrying gate/wire.h messages
 *        ▼
 *     net::Reactor, polled by ONE I/O thread (listener + every
 *        │          connection, FrameSplitter and outbox per connection)
 *        │  parse -> route (ModelRouter) -> admit (AdmissionController)
 *        │  rejects answered inline: one small NACK frame, no queueing
 *        ▼
 *     LaneScheduler (interactive over batch, bounded per lane)
 *        │
 *        ▼
 *     scoring workers (InferenceEngine against the routed model
 *                      snapshot; each reply posted to its task's
 *                      connection)
 *
 * The division of labor is the point: the I/O thread does only cheap
 * work (framing, parsing, policy), so its capacity to *refuse* survives
 * any scoring overload — the property bench_gate_overload measures as
 * bounded admitted-p99 plus explicit shed past saturation. No thread
 * waits on a client: one that stops reading stalls only itself.
 *
 * Everything observable lands in one obs registry under `gate.*`:
 * admitted/shed/deadline-miss counters (shed broken out by reason,
 * admissions by tenant), per-lane queue depth gauges and end-to-end
 * latency histograms — scraped as proper Prometheus labels via the
 * labeled-name convention.
 */
#ifndef BUCKWILD_GATE_SERVER_H
#define BUCKWILD_GATE_SERVER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "dmgc/perf_model.h"
#include "gate/admission.h"
#include "gate/router.h"
#include "gate/scheduler.h"
#include "gate/wire.h"
#include "net/reactor.h"
#include "obs/registry.h"
#include "serve/engine.h"
#include "simd/ops.h"
#include "util/thread_pool.h"

namespace buckwild::gate {

/// Front-door knobs.
struct GateConfig
{
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral (report via port())
    std::size_t workers = 2; ///< scoring threads
    std::size_t interactive_capacity = 256; ///< interactive lane bound
    std::size_t batch_capacity = 1024;      ///< batch lane bound
    /// Ingress frame cap; also bounds a connection's unsent replies.
    std::size_t max_frame_bytes = 1u << 20;
    std::size_t max_connections = 1024;
    AdmissionConfig admission; ///< per-tenant rate limits
    /// Roofline fallback when the serving signature has no calibration
    /// row (see CostModel::seed_seconds_per_number).
    double fallback_gnps = 1.0;
    simd::Impl impl = simd::best_impl();
    /// Registry for the gate.* instruments; nullptr = process-global
    /// (what the HTTP exporter scrapes).
    obs::MetricsRegistry* metrics_registry = nullptr;
};

/// Point-in-time totals, for tests and the load drivers.
struct GateStats
{
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0; ///< all reasons, including unknown model
    std::uint64_t deadline_missed = 0; ///< expired while queued
    std::uint64_t malformed = 0; ///< frames/payloads that dropped a conn
    std::uint64_t completed = 0; ///< responses with status kOk
};

/**
 * A running front door over a ModelRouter. The router and the perf
 * model are borrowed and must outlive the server; models published into
 * the router while the server runs become visible to the next request.
 */
class GateServer
{
  public:
    /// Binds and starts the I/O thread + workers.
    /// @throws std::runtime_error when the listener cannot bind.
    GateServer(ModelRouter& router, const dmgc::PerfModel& perf,
               GateConfig config);
    ~GateServer();

    GateServer(const GateServer&) = delete;
    GateServer& operator=(const GateServer&) = delete;

    /// The bound TCP port (resolves an ephemeral request).
    std::uint16_t port() const { return reactor_.port(); }

    GateStats stats() const;

    /// Online service-time estimate, exposed for the load drivers.
    double seconds_per_number() const
    {
        return cost_.seconds_per_number();
    }

    /// Stops accepting, drains the lanes, joins all threads. Idempotent.
    void stop();

  private:
    using ConnectionPtr = net::Reactor::ConnectionPtr;

    void worker_loop();
    void handle_payload(const ConnectionPtr& connection,
                        const std::vector<std::uint8_t>& payload);
    void score_task(GateTask& task);
    /// Frames `response` and posts it to the connection; never blocks.
    void reply(const ConnectionPtr& connection,
               const ScoreResponse& response);
    obs::Counter& shed_counter(const char* reason);
    obs::Counter& tenant_counter(const std::string& tenant);

    ModelRouter& router_;
    GateConfig config_;
    obs::MetricsRegistry& metrics_;
    serve::InferenceEngine engine_;
    AdmissionController admission_;
    CostModel cost_;
    LaneScheduler scheduler_;

    // gate.* instruments (direct handles: always live, even OBS=OFF).
    obs::Counter& admitted_;
    obs::Counter& deadline_missed_;
    obs::Counter& malformed_;
    obs::Counter& completed_;
    obs::Gauge& connections_;
    obs::Histo* latency_[kLanes]; ///< gate.latency_seconds{lane=...}
    // Per-hop latency decomposition: gate.hop_seconds{hop=...}.
    obs::Histo* hop_wire_in_;   ///< client send -> ingress arrival
    obs::Histo* hop_admission_; ///< route + cost + admission decision
    obs::Histo* hop_queue_;     ///< lane wait, admission to dequeue
    obs::Histo* hop_score_;     ///< engine compute on the worker
    std::map<std::string, obs::Counter*> shed_by_reason_;
    std::mutex shed_mutex_;
    std::map<std::string, obs::Counter*> by_tenant_; ///< I/O thread only
    std::atomic<std::uint64_t> shed_total_{0};

    net::Reactor reactor_;
    WorkerGroup io_thread_;
    WorkerGroup workers_;
    bool stopped_ = false;
};

} // namespace buckwild::gate

#endif // BUCKWILD_GATE_SERVER_H
