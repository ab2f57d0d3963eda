/**
 * @file
 * LaneScheduler — two-lane strict-priority dispatch between the ingress
 * thread and the scoring workers.
 *
 * The serving tier's RequestQueue is single-class: every request waits
 * in one FIFO, so one tenant's batch backfill adds its full queueing
 * delay to everyone's interactive traffic. The gate splits admission
 * into two bounded lanes:
 *
 *     ingress ──try_push(lane)──▶ [interactive] ──┐
 *               (reject when       [batch]      ──┴─pop()──▶ workers
 *                that lane full)                    strict priority
 *
 * pop() always drains interactive first; batch runs only when the
 * interactive lane is empty. Capacities are per-lane, so batch overload
 * rejects batch pushes while the interactive lane still admits — the
 * isolation property test_gate.cpp pins.
 *
 * The scheduler also keeps an atomic count of queued dataset numbers.
 * backlog_numbers() x CostModel::seconds_per_number() is the admission
 * controller's queue-wait estimate — read lock-free on the ingress
 * thread, maintained exactly at push/pop.
 */
#ifndef BUCKWILD_GATE_SCHEDULER_H
#define BUCKWILD_GATE_SCHEDULER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "gate/wire.h"
#include "net/reactor.h"
#include "obs/registry.h"

namespace buckwild::gate {

/// One admitted request waiting for a scoring worker.
struct GateTask
{
    ScoreRequest request;
    /// Where the response goes. A connection that closes while the task
    /// waits makes the late reply a no-op.
    net::Reactor::ConnectionPtr connection;
    /// Trace identity carried from the request's wire block (invalid
    /// when the client was not tracing) — the worker's score span and
    /// the response echo both derive from it.
    obs::TraceContext ctx;
    /// Ingress arrival on this process's trace clock (wire_in hop and
    /// the response's recv echo).
    std::int64_t recv_ns = 0;
    std::chrono::steady_clock::time_point enqueued{};
    /// Absolute completion deadline (enqueued + deadline_us); max() when
    /// the request carries none. Checked again at dequeue: a task whose
    /// deadline passed while it queued is failed without scoring.
    std::chrono::steady_clock::time_point deadline{
        std::chrono::steady_clock::time_point::max()};
};

/// Bounded two-lane MPMC queue with strict interactive-over-batch pop.
class LaneScheduler
{
  public:
    /**
     * @param interactive_capacity  admission bound of Lane::kInteractive
     * @param batch_capacity        admission bound of Lane::kBatch
     * @param registry              where the per-lane depth gauges land
     *                              (`gate.queue_depth{lane="..."}`);
     *                              nullptr = the process-global registry.
     */
    LaneScheduler(std::size_t interactive_capacity,
                  std::size_t batch_capacity,
                  obs::MetricsRegistry* registry = nullptr);

    /// Enqueues onto the task's lane without blocking; false when that
    /// lane is full or the scheduler is closed (task untouched).
    bool try_push(GateTask&& task);

    /// Blocks for the next task, interactive lane first. False when
    /// closed and fully drained — the worker should exit.
    bool pop(GateTask& out);

    /// Closes both lanes: pushes are rejected, workers drain then exit.
    void close();

    std::size_t depth(Lane lane) const;

    /// Dataset numbers currently queued across both lanes (lock-free
    /// read — the admission backlog estimate).
    std::uint64_t backlog_numbers() const
    {
        return backlog_numbers_.load(std::memory_order_relaxed);
    }

  private:
    const std::size_t capacity_[kLanes];
    obs::Gauge* depth_gauge_[kLanes];
    mutable std::mutex mutex_;
    std::condition_variable not_empty_;
    std::deque<GateTask> lanes_[kLanes];
    std::atomic<std::uint64_t> backlog_numbers_{0};
    bool closed_ = false;
};

} // namespace buckwild::gate

#endif // BUCKWILD_GATE_SCHEDULER_H
