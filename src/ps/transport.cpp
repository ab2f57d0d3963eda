#include "ps/transport.h"

#include <thread>

#include "obs/obs.h"
#include "util/logging.h"

namespace buckwild::ps {

// --------------------------------------------------------------- Mailbox

void
Mailbox::push(Message&& message)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (closed_) return; // late delivery after shutdown: drop
        items_.push_back(std::move(message));
    }
    not_empty_.notify_one();
}

bool
Mailbox::pop(Message& out, std::chrono::microseconds timeout)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto ready = [&] { return !items_.empty() || closed_; };
    // A zero timeout is a poll: no timed wait (and no futex call).
    if (!ready() && (timeout.count() <= 0 ||
                     !not_empty_.wait_for(lock, timeout, ready)))
        return false;
    if (items_.empty()) return false; // closed and drained
    std::size_t pick = 0;
    if (reorder_window_ > 1 && items_.size() > 1) {
        const std::size_t window =
            std::min(reorder_window_, items_.size());
        pick = static_cast<std::size_t>(rng_() % window);
    }
    out = std::move(items_[pick]);
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(pick));
    return true;
}

void
Mailbox::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    not_empty_.notify_all();
}

std::size_t
Mailbox::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
}

// ---------------------------------------------------- FaultInjector

void
validate_faults(const FaultModel& faults)
{
    if (!(faults.drop_prob >= 0.0 && faults.drop_prob < 1.0))
        fatal("drop_prob must be in [0, 1)");
    if (faults.jitter_us > FaultModel::kMaxJitterUs)
        fatal("jitter_us must be at most " +
              std::to_string(FaultModel::kMaxJitterUs));
}

FaultInjector::FaultInjector(const FaultModel& faults)
    : faults_(faults), rng_(faults.seed)
{
    validate_faults(faults_);
}

bool
FaultInjector::admit(const Message& message)
{
    const std::size_t bytes = message.wire_bytes();
    sent_.fetch_add(1, std::memory_order_relaxed);
    sent_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    BUCKWILD_OBS_COUNT("ps.transport.sent", 1);
    BUCKWILD_OBS_COUNT("ps.transport.sent_bytes", bytes);
    if (!faults_.any()) return true;
    bool drop = false;
    std::size_t delay_us = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (faults_.drop_prob > 0.0)
            drop = static_cast<double>(rng_() >> 11) * 0x1.0p-53 <
                   faults_.drop_prob;
        if (!drop && faults_.jitter_us > 0)
            delay_us =
                static_cast<std::size_t>(rng_() % (faults_.jitter_us + 1));
    }
    if (drop) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        BUCKWILD_OBS_COUNT("ps.transport.dropped", 1);
        BUCKWILD_OBS_INSTANT("ps", "transport.drop");
        return false;
    }
    if (delay_us > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    return true;
}

// ------------------------------------------------- InProcTransport

InProcTransport::InProcTransport(std::size_t endpoints, FaultModel faults)
    : Transport(faults)
{
    if (endpoints == 0) fatal("transport needs at least one endpoint");
    mailboxes_.reserve(endpoints);
    std::uint64_t seed = faults.seed;
    for (std::size_t e = 0; e < endpoints; ++e)
        mailboxes_.push_back(std::make_unique<Mailbox>(
            faults.reorder_window, rng::splitmix64(seed)));
}

void
InProcTransport::send(std::size_t to, Message&& message)
{
    if (to >= mailboxes_.size()) panic("send to unknown endpoint");
    if (!injector_.admit(message)) return;
    // Delivery timestamp for hop decomposition and clock-offset echoes.
    // In-proc "delivery" is this push; the socket fabric stamps in its
    // reader loop instead.
    message.recv_ts_ns = obs::trace_now_ns();
    mailboxes_[to]->push(std::move(message));
}

bool
InProcTransport::recv(std::size_t at, Message& out,
                      std::chrono::microseconds timeout)
{
    if (at >= mailboxes_.size()) panic("recv at unknown endpoint");
    if (!mailboxes_[at]->pop(out, timeout)) return false;
    injector_.received(out);
    return true;
}

void
InProcTransport::close()
{
    closed_.store(true, std::memory_order_release);
    for (auto& mailbox : mailboxes_) mailbox->close();
}

// ------------------------------------------------------------- RpcClient

Message
RpcClient::call(std::size_t to, Message request)
{
    request.sender = static_cast<std::uint32_t>(self_);
    request.token = next_token_++;

    // Mint the distributed-trace identity at the RPC origin. The root
    // context (or one the caller pre-attached) rides the wire with each
    // attempt; the responder's spans and the clock-offset sample from
    // its reply all carry the same trace id.
    if (obs::Tracer::global().enabled() && !request.trace.ctx.valid())
        request.trace.ctx = obs::make_root_context();
    const std::int64_t call_start_ns =
        request.trace.ctx.valid() ? obs::trace_now_ns() : 0;

    // The per-attempt reply timeout must comfortably exceed both the
    // fabric's latency floor and the injected jitter (both directions),
    // or healthy-but-slow messages would be retransmitted forever.
    const auto base = std::max(
        transport_.rpc_base_timeout(),
        std::chrono::microseconds(8 * transport_.faults().jitter_us));
    constexpr int kMaxAttempts = 400;

    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
        if (attempt > 0) {
            ++retries_;
            BUCKWILD_OBS_COUNT("ps.rpc.retransmits", 1);
            BUCKWILD_OBS_INSTANT("ps", "rpc.retransmit");
        }
        Message copy = request;
        // Stamp per attempt: the responder echoes the send_ts of the
        // transmission it actually answered, keeping the NTP sample
        // honest across retransmits.
        if (copy.trace.ctx.valid())
            copy.trace.send_ts_ns = obs::trace_now_ns();
        transport_.send(to, std::move(copy));

        const auto deadline = std::chrono::steady_clock::now() +
            base * (attempt < 8 ? (1 << attempt) : 256);
        for (;;) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= deadline) break; // retransmit
            Message reply;
            if (!transport_.recv(
                    self_, reply,
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        deadline - now))) {
                if (transport_.closed())
                    fatal("rpc: transport closed mid-call");
                break; // timeout: retransmit
            }
            if (reply.token == request.token) {
                if (reply.trace.ctx.valid()) {
                    const std::int64_t recv_ns = reply.recv_ts_ns != 0
                                                     ? reply.recv_ts_ns
                                                     : obs::trace_now_ns();
                    const obs::ClockSample sample =
                        obs::clock_sample_from_reply(reply.trace, recv_ns);
                    if (sample.valid)
                        obs::Tracer::global().clocksync(
                            "ps", reply.trace.ctx, sample.offset_ns,
                            sample.rtt_ns);
                    obs::Tracer::global().complete(
                        "ps", "rpc.call", call_start_ns,
                        obs::trace_now_ns() - call_start_ns,
                        request.trace.ctx);
                }
                return reply;
            }
            // Stale duplicate from an earlier retransmission: discard.
        }
    }
    fatal("rpc: no reply after " + std::to_string(kMaxAttempts) +
          " attempts (drop_prob too high or peer gone)");
}

} // namespace buckwild::ps
