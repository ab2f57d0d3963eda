#include "ps/socket_transport.h"

#include "net/bytes.h"
#include "obs/obs.h"
#include "ps/wire.h"

namespace buckwild::ps {

namespace {

/// A frame's payload is the destination endpoint then the message.
constexpr std::size_t kDestBytes = 4;

} // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : Transport(config.faults), config_(std::move(config)),
      mailbox_(config_.faults.reorder_window,
               [seed = std::uint64_t{config_.faults.seed ^ 0x50C7u}]() mutable {
                   return rng::splitmix64(seed);
               }()),
      reactor_({.max_payload_bytes = config_.max_frame_bytes + kDestBytes,
                .listen = config_.listen,
                .bind_address = config_.bind_address,
                .port = config_.listen_port,
                .adopt_listen_fd = config_.adopt_listen_fd},
               [this](const auto& c, const auto& frame) { deliver(c, frame); },
               [this](const auto&) {
                   reject("dropping desynchronized peer connection");
               })
{
    if (config_.endpoints == 0)
        fatal("socket transport needs at least one endpoint");
    if (config_.local >= config_.endpoints)
        fatal("local endpoint out of range");
    for (const auto& [endpoint, address] : config_.peers)
        if (endpoint >= config_.endpoints)
            fatal("peer endpoint " + std::to_string(endpoint) +
                  " out of range");
}

SocketTransport::~SocketTransport() { close(); }

void
SocketTransport::reject(const std::string& why)
{
    BUCKWILD_OBS_COUNT("net.malformed", 1);
    malformed_warnings_.warn("net: " + why);
}

void
SocketTransport::deliver(const ConnectionPtr& connection,
                         const std::vector<std::uint8_t>& payload)
{
    BUCKWILD_OBS_COUNT("net.frames_recv", 1);
    BUCKWILD_OBS_COUNT("net.recv_bytes",
                       net::kFrameHeaderBytes + payload.size());
    net::ByteReader reader(payload.data(), payload.size());
    std::uint32_t dest = 0;
    if (!reader.u32(&dest)) {
        reject("runt frame, dropping connection");
        reactor_.drop(connection);
        return;
    }
    Message message;
    if (!deserialize_message(reader.cursor(), reader.remaining(), message)) {
        // A malformed message is indistinguishable from a lost one: drop
        // it and let the sender's retransmit recover.
        reject("malformed message frame discarded");
        return;
    }
    // Arrival timestamp on the receiver's steady clock: the `b1` of the
    // NTP clock-offset pair and the far edge of the wire hop.
    message.recv_ts_ns = obs::trace_now_ns();
    if (dest != config_.local) {
        reject("frame for endpoint " + std::to_string(dest) +
               " which is not hosted here (local=" +
               std::to_string(config_.local) +
               " kind=" + std::to_string(static_cast<int>(message.kind)) +
               " sender=" + std::to_string(message.sender) +
               " token=" + std::to_string(message.token) + ")");
        return;
    }
    // Reply routing: requests carry the endpoint to answer, and the
    // answer goes back over the connection the request came in on.
    // Dialed connections never teach routes — what comes back on them
    // is replies, and a kStats reply shares its request's kind.
    if (connection->accepted && message.is_request() &&
        message.sender < config_.endpoints)
        routes_[message.sender] = connection;
    mailbox_.push(std::move(message));
}

SocketTransport::ConnectionPtr
SocketTransport::route_for(std::size_t to)
{
    if (const auto it = routes_.find(to);
        it != routes_.end() && it->second->open())
        return it->second;
    const auto peer = config_.peers.find(to);
    if (peer == config_.peers.end()) return nullptr;
    std::string error;
    net::Fd fd =
        net::connect_tcp(peer->second, config_.connect_timeout, &error);
    if (!fd.valid()) {
        // A peer that answered before and now refuses for the whole
        // connect timeout is gone; retransmitting into it would only
        // redial it hundreds of times.
        if (reached_.count(to) != 0)
            fatal("net: lost peer " + peer->second.to_string() +
                  ", connected before: " + error);
        warn("net: " + error);
        return nullptr;
    }
    reached_.insert(to);
    return routes_[to] = reactor_.adopt(std::move(fd));
}

bool
SocketTransport::write_message(const ConnectionPtr& connection,
                               std::size_t to, const Message& message)
{
    // Header, destination and message in one buffer, for one write.
    const std::size_t payload = kDestBytes + serialized_bytes(message);
    frame_.clear();
    frame_.reserve(net::kFrameHeaderBytes + payload);
    net::append_frame_header(frame_, payload);
    net::ByteWriter(frame_).u32(static_cast<std::uint32_t>(to));
    append_message(message, frame_);
    if (!reactor_.send(connection, frame_.data(), frame_.size()))
        return false;
    BUCKWILD_OBS_COUNT("net.frames_sent", 1);
    BUCKWILD_OBS_COUNT("net.sent_bytes", frame_.size());
    return true;
}

void
SocketTransport::send(std::size_t to, Message&& message)
{
    if (to >= config_.endpoints) panic("send to unknown endpoint");
    // Injected faults apply identically over sockets: drops before the
    // syscall, jitter on the sender's clock.
    if (!injector_.admit(message)) return;

    if (to == config_.local) {
        message.recv_ts_ns = obs::trace_now_ns();
        mailbox_.push(std::move(message));
        return;
    }

    const ConnectionPtr connection = closed() ? nullptr : route_for(to);
    if (connection == nullptr || !write_message(connection, to, message)) {
        // Unreachable peer == lost message; the RPC layer retransmits
        // (and the retransmit re-dials through route_for).
        injector_.lost();
        BUCKWILD_OBS_COUNT("net.drops", 1);
    }
}

bool
SocketTransport::recv(std::size_t at, Message& out,
                      std::chrono::microseconds timeout)
{
    if (at != config_.local) panic("recv at endpoint not hosted here");
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    // The sockets are read at least once, even with no time left.
    for (bool polled = false;; polled = true) {
        if (mailbox_.pop(out, std::chrono::microseconds(0))) {
            injector_.received(out);
            return true;
        }
        const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline - std::chrono::steady_clock::now());
        if (closed() || (polled && left.count() <= 0)) return false;
        reactor_.poll(std::max(left, std::chrono::nanoseconds(0)));
    }
}

void
SocketTransport::close()
{
    reactor_.close();
    mailbox_.close();
}

} // namespace buckwild::ps
