#include "net/reactor.h"

#include <fcntl.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "util/logging.h"

namespace buckwild::net {

namespace {

/// Marks `c` dead and shuts it down; the polling thread closes the
/// descriptor and frees the outbox later. Caller holds c.mutex.
void
shut(Reactor::Connection& c)
{
    c.dead.store(true, std::memory_order_release);
    c.fd.shutdown_rdwr();
}

/// Writes what the socket takes now; shuts `c` on an error. Caller
/// holds c.mutex.
std::size_t
write_some(Reactor::Connection& c, const std::uint8_t* data, std::size_t n)
{
    std::size_t sent = 0;
    while (sent < n) {
        const long w = ::send(c.fd.get(), data + sent, n - sent,
                              MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w < 0 && errno == EINTR) continue;
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (w <= 0) {
            shut(c);
            break;
        }
        sent += static_cast<std::size_t>(w);
    }
    return sent;
}

} // namespace

Reactor::Reactor(ReactorConfig config, FrameFn on_frame, DesyncFn on_desync)
    : config_(std::move(config)), on_frame_(std::move(on_frame)),
      on_desync_(std::move(on_desync)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      read_buffer_(64 * 1024)
{
    if (!wake_fd_.valid()) fatal("net: eventfd failed");
    std::string error;
    if (config_.adopt_listen_fd >= 0)
        listener_ = Fd(config_.adopt_listen_fd);
    else if (config_.listen)
        listener_ = listen_tcp(config_.bind_address, config_.port, 128,
                               nullptr, &error);
    if (config_.listen && !listener_.valid()) fatal(error);
    if (!listener_.valid()) return;
    port_ = local_port(listener_.get());
    // A client that vanished between poll and accept must not block.
    ::fcntl(listener_.get(), F_SETFL,
            ::fcntl(listener_.get(), F_GETFL, 0) | O_NONBLOCK);
}

Reactor::ConnectionPtr
Reactor::add(Fd fd, bool accepted)
{
    auto connection = std::make_shared<Connection>(
        std::move(fd), FrameSplitter(config_.max_payload_bytes), accepted);
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed()) drop(connection); // must not outlive close()
    connections_.push_back(connection);
    return connection;
}

void
Reactor::poll(std::chrono::nanoseconds timeout)
{
    poll_fds_.assign({{wake_fd_.get(), POLLIN, 0},
                      {listener_.get(), POLLIN, 0}}); // -1: ignored
    for (const ConnectionPtr& c : connections_) {
        std::lock_guard<std::mutex> lock(c->mutex);
        poll_fds_.push_back({c->fd.get(),
                             static_cast<short>(c->outbox.empty()
                                                    ? POLLIN
                                                    : POLLIN | POLLOUT),
                             0});
    }
    const timespec wait{static_cast<time_t>(timeout.count() / 1000000000),
                        static_cast<long>(timeout.count() % 1000000000)};
    if (::ppoll(poll_fds_.data(), poll_fds_.size(), &wait, nullptr) > 0) {
        std::uint64_t wakes = 0;
        if ((poll_fds_[0].revents & POLLIN) != 0 &&
            ::read(wake_fd_.get(), &wakes, sizeof(wakes)) < 0) {}
        // connections_[i] is poll_fds_[2 + i]: nothing removes one before
        // the reap below, and accepts append after.
        for (std::size_t i = 0; i + 2 < poll_fds_.size(); ++i) {
            Connection& c = *connections_[i];
            const short revents = poll_fds_[2 + i].revents;
            if ((revents & POLLOUT) != 0) enqueue(c, nullptr, 0);
            if ((revents & (POLLIN | POLLERR | POLLHUP)) != 0)
                read(connections_[i]);
        }
        while ((poll_fds_[1].revents & POLLIN) != 0) {
            Fd client = accept_client(listener_.get(), 0);
            if (!client.valid()) break;
            // Past the cap the cheapest refusal is to keep no state.
            if (connections_.size() < config_.max_connections)
                add(std::move(client), true);
        }
    }
    // Forget the dead. A descriptor closes under its connection's lock,
    // after which a late post() finds it dead and does nothing.
    if (std::all_of(connections_.begin(), connections_.end(),
                    [](const ConnectionPtr& c) { return c->open(); }))
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase_if(connections_, [](const ConnectionPtr& c) {
        std::lock_guard<std::mutex> closing(c->mutex);
        if (c->open()) return false;
        c->fd.reset();
        c->outbox = {};
        return true;
    });
}

void
Reactor::read(const ConnectionPtr& connection)
{
    // One chunk per connection per pass: a peer that writes faster than
    // its frames are handled cannot starve the others, and what it left
    // makes the next ppoll return at once.
    long got;
    while ((got = ::recv(connection->fd.get(), read_buffer_.data(),
                         read_buffer_.size(), MSG_DONTWAIT)) < 0 &&
           errno == EINTR) {}
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (got > 0) {
        connection->splitter.push(read_buffer_.data(),
                                  static_cast<std::size_t>(got));
        SplitResult result = SplitResult::kNeedMore;
        while (connection->open() &&
               (result = connection->splitter.next(payload_)) ==
                   SplitResult::kFrame)
            on_frame_(connection, payload_);
        if (result != SplitResult::kBadMagic &&
            result != SplitResult::kTooLarge)
            return;
        on_desync_(connection); // no next frame boundary to find
    }
    drop(connection); // desynchronized, finished by the peer, or failed
}

long
Reactor::enqueue(Connection& c, const std::uint8_t* frame, std::size_t n)
{
    std::lock_guard<std::mutex> lock(c.mutex);
    if (!c.open()) return -1;
    // What waits goes first; a frame behind nothing goes out at once.
    const std::size_t flushed =
        write_some(c, c.outbox.data(), c.outbox.size());
    c.outbox.erase(c.outbox.begin(),
                   c.outbox.begin() + static_cast<long>(flushed));
    const std::size_t sent = c.outbox.empty() ? write_some(c, frame, n) : 0;
    if (!c.open() || c.outbox.size() + (n - sent) >
                         kFrameHeaderBytes + config_.max_payload_bytes) {
        shut(c); // failed, or a peer that stopped reading
        return -1;
    }
    c.outbox.insert(c.outbox.end(), frame + sent, frame + n);
    return static_cast<long>(c.outbox.size());
}

bool
Reactor::post(const ConnectionPtr& connection, const std::uint8_t* frame,
              std::size_t n)
{
    const long waiting = enqueue(*connection, frame, n);
    const std::uint64_t wake = 1; // so the poller adds POLLOUT
    if (waiting > 0 && ::write(wake_fd_.get(), &wake, sizeof(wake)) < 0) {}
    return waiting >= 0;
}

bool
Reactor::send(const ConnectionPtr& connection, const std::uint8_t* frame,
              std::size_t n)
{
    if (enqueue(*connection, frame, n) < 0) return false;
    // While the socket is full, keep reading: the peer may itself be
    // blocked writing a large frame to us, and neither side would ever
    // drain the other. (The lock is released before each poll.)
    for (;; poll(std::chrono::milliseconds(100))) {
        std::lock_guard<std::mutex> lock(connection->mutex);
        if (connection->outbox.empty()) return connection->open();
    }
}

void
Reactor::drop(const ConnectionPtr& connection)
{
    std::lock_guard<std::mutex> lock(connection->mutex);
    shut(*connection);
}

void
Reactor::close()
{
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        listener_.shutdown_rdwr();
        for (const ConnectionPtr& connection : connections_)
            drop(connection);
    }
    const std::uint64_t wake = 1;
    if (::write(wake_fd_.get(), &wake, sizeof(wake)) < 0) {}
}

} // namespace buckwild::net
