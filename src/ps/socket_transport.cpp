#include "ps/socket_transport.h"

#include <fcntl.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "net/bytes.h"
#include "obs/obs.h"
#include "ps/wire.h"
#include "util/logging.h"

namespace buckwild::ps {

namespace {

/// A frame's payload is the destination endpoint then the message.
constexpr std::size_t kDestBytes = 4;

/// One recv() of up to this many bytes drains a typical burst of frames.
constexpr std::size_t kReadChunkBytes = 64 * 1024;

} // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : Transport(config.faults), config_(std::move(config)),
      mailbox_(config_.faults.reorder_window,
               [seed = std::uint64_t{config_.faults.seed ^ 0x50C7u}]() mutable {
                   return rng::splitmix64(seed);
               }())
{
    if (config_.endpoints == 0)
        fatal("socket transport needs at least one endpoint");
    if (config_.local >= config_.endpoints)
        fatal("local endpoint out of range");
    for (const auto& [endpoint, address] : config_.peers)
        if (endpoint >= config_.endpoints)
            fatal("peer endpoint " + std::to_string(endpoint) +
                  " out of range");

    wake_fd_ = net::Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (!wake_fd_.valid()) fatal("socket transport: eventfd failed");
    if (config_.adopt_listen_fd >= 0) {
        listen_fd_ = net::Fd(config_.adopt_listen_fd);
        port_ = net::local_port(listen_fd_.get());
    } else if (config_.listen) {
        std::string error;
        listen_fd_ = net::listen_tcp(config_.bind_address,
                                     config_.listen_port, 64, &port_,
                                     &error);
        if (!listen_fd_.valid()) fatal(error);
    }
    // Accepts run only after poll reports a pending client; a
    // non-blocking listener keeps a client that vanished in between from
    // blocking the serving thread.
    if (listen_fd_.valid())
        ::fcntl(listen_fd_.get(), F_SETFL,
                ::fcntl(listen_fd_.get(), F_GETFL, 0) | O_NONBLOCK);
    read_buffer_.resize(kReadChunkBytes);
}

SocketTransport::~SocketTransport() { close(); }

void
SocketTransport::add_connection(const ConnectionPtr& connection)
{
    std::lock_guard<std::mutex> lock(conn_mutex_);
    // close() on another thread has already shut every connection down;
    // one born after it must not outlive it.
    if (closed()) connection->fd.shutdown_rdwr();
    connections_.push_back(connection);
}

void
SocketTransport::reap()
{
    const auto dead = [](const ConnectionPtr& c) { return c->dead; };
    if (std::none_of(connections_.begin(), connections_.end(), dead)) return;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        std::erase_if(connections_, dead);
    }
    std::erase_if(routes_, [](const auto& r) { return r.second->dead; });
}

void
SocketTransport::pump(std::chrono::nanoseconds timeout,
                      const Connection* writer)
{
    poll_fds_.clear();
    poll_fds_.push_back({wake_fd_.get(), POLLIN, 0});
    poll_fds_.push_back({listen_fd_.get(), POLLIN, 0}); // -1: ignored
    constexpr std::size_t kFirst = 2;
    for (const ConnectionPtr& connection : connections_)
        poll_fds_.push_back(
            {connection->fd.get(),
             static_cast<short>(connection.get() == writer ? POLLIN | POLLOUT
                                                           : POLLIN),
             0});
    const auto seconds =
        std::chrono::duration_cast<std::chrono::seconds>(timeout);
    const timespec wait{static_cast<time_t>(seconds.count()),
                        static_cast<long>((timeout - seconds).count())};
    if (::ppoll(poll_fds_.data(), static_cast<nfds_t>(poll_fds_.size()),
                &wait, nullptr) <= 0)
        return; // timeout or a signal

    // Index i of connections_ is poll_fds_[kFirst + i]: nothing below
    // removes a connection before reap(), and accepts append after.
    const std::size_t polled = poll_fds_.size() - kFirst;
    for (std::size_t i = 0; i < polled; ++i)
        if ((poll_fds_[kFirst + i].revents & (POLLIN | POLLERR | POLLHUP)) !=
            0)
            read_connection(connections_[i]);
    if ((poll_fds_[1].revents & POLLIN) != 0) accept_pending();
    reap();
}

void
SocketTransport::accept_pending()
{
    for (;;) {
        net::Fd client = net::accept_client(listen_fd_.get(), 0);
        if (!client.valid()) return;
        add_connection(std::make_shared<Connection>(
            std::move(client), config_.max_frame_bytes + kDestBytes, true));
    }
}

void
SocketTransport::read_connection(const ConnectionPtr& connection)
{
    while (!connection->dead) {
        const long got = ::recv(connection->fd.get(), read_buffer_.data(),
                                read_buffer_.size(), MSG_DONTWAIT);
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got <= 0) { // the peer finished, or the connection failed
            connection->dead = true;
            break;
        }
        connection->splitter.push(read_buffer_.data(),
                                  static_cast<std::size_t>(got));
        net::SplitResult result = net::SplitResult::kNeedMore;
        while (!connection->dead &&
               (result = connection->splitter.next(payload_)) ==
                   net::SplitResult::kFrame)
            deliver(connection, payload_);
        if (result == net::SplitResult::kBadMagic ||
            result == net::SplitResult::kTooLarge) {
            warn("net: dropping desynchronized peer connection");
            connection->dead = true;
        }
        // A short read emptied the socket; a full one may have left more.
        if (static_cast<std::size_t>(got) < read_buffer_.size()) break;
    }
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
        warn("net: runt frame, dropping connection");
        connection->dead = true;
        return;
    }
    Message message;
    if (!deserialize_message(reader.cursor(), reader.remaining(), message)) {
        // A malformed message is indistinguishable from a lost one: drop
        // it and let the sender's retransmit recover.
        warn("net: malformed message frame discarded");
        return;
    }
    // Arrival timestamp on the receiver's steady clock: the `b1` of the
    // NTP clock-offset pair and the far edge of the wire hop.
    message.recv_ts_ns = obs::trace_now_ns();
    if (dest != config_.local) {
        warn("net: frame for endpoint " + std::to_string(dest) +
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
        it != routes_.end() && !it->second->dead)
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
    auto connection = std::make_shared<Connection>(
        std::move(fd), config_.max_frame_bytes + kDestBytes, false);
    add_connection(connection);
    routes_[to] = connection;
    return connection;
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

    std::size_t sent = 0;
    while (sent < frame_.size() && !connection->dead) {
        const long w =
            ::send(connection->fd.get(), frame_.data() + sent,
                   frame_.size() - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w > 0) {
            sent += static_cast<std::size_t>(w);
        } else if (w < 0 && errno == EINTR) {
            continue;
        } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
                   !closed()) {
            // The socket is full: the peer may itself be blocked writing
            // a large frame to us. Keep reading inbound frames while
            // waiting, or neither side would ever drain the other.
            pump(std::chrono::milliseconds(100), connection.get());
        } else {
            connection->dead = true;
        }
    }
    if (connection->dead) return false;
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
        pump(std::max(left, std::chrono::nanoseconds(0)));
    }
}

void
SocketTransport::close()
{
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        listen_fd_.shutdown_rdwr();
        for (const ConnectionPtr& connection : connections_)
            connection->fd.shutdown_rdwr();
    }
    // Wake a recv() blocked in poll on the serving thread.
    const std::uint64_t one = 1;
    if (::write(wake_fd_.get(), &one, sizeof(one)) < 0)
        warn("net: could not wake the serving thread");
    mailbox_.close();
}

} // namespace buckwild::ps
