#include "ps/socket_transport.h"

#include <algorithm>
#include <thread>

#include "net/bytes.h"
#include "obs/obs.h"
#include "ps/wire.h"
#include "util/logging.h"

namespace buckwild::ps {

namespace {

/// A frame's payload is the destination endpoint then the message.
constexpr std::size_t kDestBytes = 4;

} // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)), fault_rng_(config_.faults.seed)
{
    if (config_.endpoints == 0)
        fatal("socket transport needs at least one endpoint");
    if (config_.local.empty())
        fatal("socket transport hosts no local endpoint");
    if (config_.faults.drop_prob < 0.0 || config_.faults.drop_prob >= 1.0)
        fatal("drop_prob must be in [0, 1)");
    std::uint64_t seed = config_.faults.seed ^ 0x50C7ull;
    for (const std::size_t endpoint : config_.local) {
        if (endpoint >= config_.endpoints)
            fatal("local endpoint out of range");
        mailboxes_.emplace(endpoint,
                           std::make_unique<Mailbox>(
                               config_.faults.reorder_window,
                               rng::splitmix64(seed)));
    }
    for (const auto& [endpoint, address] : config_.peers)
        if (endpoint >= config_.endpoints)
            fatal("peer endpoint " + std::to_string(endpoint) +
                  " out of range");

    if (config_.adopt_listen_fd >= 0) {
        listen_fd_ = net::Fd(config_.adopt_listen_fd);
        port_ = net::local_port(listen_fd_.get());
        acceptor_ = std::thread([this] { accept_loop(); });
    } else if (config_.listen) {
        std::string error;
        listen_fd_ = net::listen_tcp(config_.bind_address,
                                     config_.listen_port, 64, &port_,
                                     &error);
        if (!listen_fd_.valid()) fatal(error);
        acceptor_ = std::thread([this] { accept_loop(); });
    }
}

SocketTransport::~SocketTransport() { close(); }

Mailbox*
SocketTransport::local_mailbox(std::size_t endpoint) const
{
    const auto it = mailboxes_.find(endpoint);
    return it == mailboxes_.end() ? nullptr : it->second.get();
}

void
SocketTransport::accept_loop()
{
    while (!closed_.load(std::memory_order_acquire)) {
        net::Fd client = net::accept_client(listen_fd_.get(), 100);
        if (!client.valid()) continue; // timeout: re-check the stop flag
        if (closed_.load(std::memory_order_acquire)) break;
        adopt_connection(std::move(client));
    }
}

std::shared_ptr<SocketTransport::Connection>
SocketTransport::adopt_connection(net::Fd fd)
{
    auto connection = std::make_shared<Connection>();
    connection->fd = std::move(fd);
    connection->accepted = true;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        connections_.push_back(connection);
    }
    connection->reader =
        std::thread([this, connection] { reader_loop(connection); });
    return connection;
}

void
SocketTransport::reader_loop(const std::shared_ptr<Connection>& connection)
{
    std::vector<std::uint8_t> payload;
    while (!closed_.load(std::memory_order_acquire)) {
        const net::FrameResult result =
            net::read_frame(connection->fd.get(), payload,
                            config_.max_frame_bytes + kDestBytes);
        if (result != net::FrameResult::kOk) {
            if (result == net::FrameResult::kBadMagic ||
                result == net::FrameResult::kTooLarge)
                warn("net: dropping desynchronized peer connection");
            break;
        }
        BUCKWILD_OBS_COUNT("net.frames_recv", 1);
        BUCKWILD_OBS_COUNT("net.recv_bytes",
                           net::kFrameHeaderBytes + payload.size());
        net::ByteReader reader(payload.data(), payload.size());
        std::uint32_t dest = 0;
        if (!reader.u32(&dest)) {
            warn("net: runt frame, dropping connection");
            break;
        }
        Message message;
        if (!deserialize_message(reader.cursor(), reader.remaining(),
                                 message)) {
            // A malformed message is indistinguishable from a lost one:
            // drop it and let the sender's retransmit recover.
            warn("net: malformed message frame discarded");
            continue;
        }
        // Arrival timestamp on the receiver's steady clock: the `b1` of
        // the NTP clock-offset pair and the far edge of the wire hop.
        message.recv_ts_ns = obs::trace_now_ns();
        Mailbox* mailbox = local_mailbox(dest);
        if (mailbox == nullptr) {
            std::string locals;
            for (const std::size_t e : config_.local)
                locals += (locals.empty() ? "" : ",") + std::to_string(e);
            warn("net: frame for endpoint " + std::to_string(dest) +
                 " which is not hosted here (local={" + locals +
                 "} kind=" + std::to_string(static_cast<int>(message.kind)) +
                 " sender=" + std::to_string(message.sender) +
                 " token=" + std::to_string(message.token) + ")");
            continue;
        }
        // Reply routing: requests carry the endpoint to answer, and the
        // answer goes back over the connection the request came in on.
        // Dialed connections never teach routes — what comes back on
        // them is replies, and a kStats reply shares its request's kind.
        if (connection->accepted && message.is_request() &&
            message.sender < config_.endpoints) {
            std::lock_guard<std::mutex> lock(conn_mutex_);
            routes_[message.sender] = connection;
        }
        mailbox->push(std::move(message));
    }
    connection->dead.store(true, std::memory_order_release);
    connection->fd.shutdown_rdwr();
}

std::shared_ptr<SocketTransport::Connection>
SocketTransport::route_for(std::size_t to)
{
    std::lock_guard<std::mutex> lock(conn_mutex_);
    {
        const auto it = routes_.find(to);
        if (it != routes_.end()) {
            if (!it->second->dead.load(std::memory_order_acquire))
                return it->second;
            routes_.erase(it);
        }
    }
    const auto peer = config_.peers.find(to);
    if (peer == config_.peers.end()) return nullptr;
    const std::string key = peer->second.to_string();
    {
        const auto it = dialed_.find(key);
        if (it != dialed_.end()) {
            if (!it->second->dead.load(std::memory_order_acquire)) {
                routes_[to] = it->second;
                return it->second;
            }
            dialed_.erase(it);
        }
    }
    std::string error;
    net::Fd fd =
        net::connect_tcp(peer->second, config_.connect_timeout, &error);
    if (!fd.valid()) {
        warn("net: " + error);
        return nullptr;
    }
    // adopt_connection locks conn_mutex_ itself; register the pieces it
    // does not know about (route + dial cache) inline instead.
    auto connection = std::make_shared<Connection>();
    connection->fd = std::move(fd);
    connections_.push_back(connection);
    connection->reader =
        std::thread([this, connection] { reader_loop(connection); });
    dialed_[key] = connection;
    routes_[to] = connection;
    return connection;
}

bool
SocketTransport::write_message(Connection& connection, std::size_t to,
                               const Message& message)
{
    std::vector<std::uint8_t> frame;
    frame.reserve(kDestBytes + serialized_bytes(message));
    net::ByteWriter writer(frame);
    writer.u32(static_cast<std::uint32_t>(to));
    writer.array(serialize_message(message));

    bool ok;
    {
        std::lock_guard<std::mutex> lock(connection.write_mutex);
        ok = net::write_frame(connection.fd.get(), frame.data(),
                              frame.size());
    }
    if (ok) {
        BUCKWILD_OBS_COUNT("net.frames_sent", 1);
        BUCKWILD_OBS_COUNT("net.sent_bytes",
                           net::kFrameHeaderBytes + frame.size());
    } else {
        connection.dead.store(true, std::memory_order_release);
        connection.fd.shutdown_rdwr();
    }
    return ok;
}

void
SocketTransport::send(std::size_t to, Message&& message)
{
    if (to >= config_.endpoints) panic("send to unknown endpoint");
    sent_.fetch_add(1, std::memory_order_relaxed);
    sent_bytes_.fetch_add(message.wire_bytes(), std::memory_order_relaxed);
    BUCKWILD_OBS_COUNT("ps.transport.sent", 1);
    BUCKWILD_OBS_COUNT("ps.transport.sent_bytes", message.wire_bytes());

    // Injected faults apply identically over sockets: drops before the
    // syscall, jitter on the sender's clock.
    if (config_.faults.any()) {
        std::size_t delay_us = 0;
        bool drop = false;
        {
            std::lock_guard<std::mutex> lock(fault_mutex_);
            if (config_.faults.drop_prob > 0.0) {
                const double u =
                    static_cast<double>(fault_rng_() >> 11) * 0x1.0p-53;
                drop = u < config_.faults.drop_prob;
            }
            if (!drop && config_.faults.jitter_us > 0)
                delay_us = static_cast<std::size_t>(
                    fault_rng_() % (config_.faults.jitter_us + 1));
        }
        if (drop) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            BUCKWILD_OBS_COUNT("ps.transport.dropped", 1);
            BUCKWILD_OBS_INSTANT("ps", "transport.drop");
            return;
        }
        if (delay_us > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }

    if (Mailbox* mailbox = local_mailbox(to)) {
        message.recv_ts_ns = obs::trace_now_ns();
        mailbox->push(std::move(message));
        return;
    }

    const std::shared_ptr<Connection> connection = route_for(to);
    if (connection == nullptr ||
        !write_message(*connection, to, message)) {
        // Unreachable peer == lost message; the RPC layer retransmits
        // (and the retransmit re-dials through route_for).
        dropped_.fetch_add(1, std::memory_order_relaxed);
        BUCKWILD_OBS_COUNT("net.drops", 1);
    }
}

bool
SocketTransport::recv(std::size_t at, Message& out,
                      std::chrono::microseconds timeout)
{
    Mailbox* mailbox = local_mailbox(at);
    if (mailbox == nullptr) panic("recv at endpoint not hosted here");
    if (!mailbox->pop(out, timeout)) return false;
    recv_bytes_.fetch_add(out.wire_bytes(), std::memory_order_relaxed);
    return true;
}

void
SocketTransport::close()
{
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
    listen_fd_.shutdown_rdwr();
    if (acceptor_.joinable()) acceptor_.join();

    std::vector<std::shared_ptr<Connection>> connections;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        connections = connections_;
        routes_.clear();
        dialed_.clear();
    }
    for (const auto& connection : connections) {
        connection->fd.shutdown_rdwr();
        if (connection->reader.joinable()) connection->reader.join();
    }
    for (auto& [endpoint, mailbox] : mailboxes_) mailbox->close();
}

} // namespace buckwild::ps
