/**
 * @file
 * Reactor — the one event loop under every framed TCP endpoint: the
 * parameter-server socket fabric and the gate's ingress (DESIGN.md §11).
 *
 * It owns an optional listener (accept_client(), so TCP_NODELAY, capped
 * at max_connections), each connection's descriptor, FrameSplitter and
 * outbox of bytes the socket refused, a wake eventfd, and one ppoll over
 * them all. Whole frames and desynchronized streams (then dropped) go to
 * the owner's two callbacks; the owner keeps only the policy.
 *
 * post() never blocks: a frame with nothing queued ahead goes out in one
 * non-blocking send; only refused bytes wait for POLLOUT, and only then
 * is the wake fd written. Unsent bytes past one maximum frame close the
 * connection, so a peer that stops reading stalls only itself. send() is
 * post() for the polling thread: it returns once the frame is on the
 * wire, reading every connection meanwhile.
 *
 * Threading: poll(), send(), adopt() and connections() belong to the
 * polling thread, and the callbacks, which poll() runs, must call none of
 * them; post(), drop() and close() may come from any thread. A descriptor
 * closes only under its connection's lock after the connection is marked
 * dead, so a late post() can never reach a recycled descriptor.
 */
#ifndef BUCKWILD_NET_REACTOR_H
#define BUCKWILD_NET_REACTOR_H

#include <poll.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"

namespace buckwild::net {

struct ReactorConfig
{
    /// Inbound payload cap; unsent bytes past one such frame close a
    /// connection.
    std::size_t max_payload_bytes = kDefaultMaxFrameBytes;
    bool listen = false;
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;   ///< 0 = ephemeral; see port()
    int adopt_listen_fd = -1; ///< a bound listener to own instead
    std::size_t max_connections = std::numeric_limits<std::size_t>::max();
};

class Reactor
{
  public:
    struct Connection;
    using ConnectionPtr = std::shared_ptr<Connection>;
    using FrameFn = std::function<void(const ConnectionPtr&,
                                       const std::vector<std::uint8_t>&)>;
    using DesyncFn = std::function<void(const ConnectionPtr&)>;

    /// @throws std::runtime_error when the listener cannot bind.
    Reactor(ReactorConfig config, FrameFn on_frame, DesyncFn on_desync);
    ~Reactor() { close(); }
    Reactor(const Reactor&) = delete;
    Reactor& operator=(const Reactor&) = delete;

    std::uint16_t port() const { return port_; } ///< 0 when not listening
    /// Takes over a dialed socket.
    ConnectionPtr adopt(Fd fd) { return add(std::move(fd), false); }

    /// Waits up to `timeout`, then flushes writable outboxes, reads what
    /// arrived (running the callbacks), accepts, and forgets the dead.
    void poll(std::chrono::nanoseconds timeout);
    /// Queues one whole frame without blocking. False when the
    /// connection is gone, or was just closed for passing its bound.
    bool post(const ConnectionPtr& connection, const std::uint8_t* frame,
              std::size_t n);
    /// post(), then poll until the frame is on the wire. False when the
    /// connection died first.
    bool send(const ConnectionPtr& connection, const std::uint8_t* frame,
              std::size_t n);
    void drop(const ConnectionPtr& connection);
    /// Live connections as of the last poll().
    std::size_t connections() const { return connections_.size(); }

    /// Shuts the listener and every connection down and wakes poll().
    void close();
    bool closed() const { return closed_.load(std::memory_order_acquire); }

  private:
    ConnectionPtr add(Fd fd, bool accepted);
    /// Flushes what waits, then writes or queues `frame`. Returns the
    /// bytes left waiting, or -1 when the connection died.
    long enqueue(Connection& connection, const std::uint8_t* frame,
                 std::size_t n);
    void read(const ConnectionPtr& connection);

    const ReactorConfig config_;
    const FrameFn on_frame_;
    const DesyncFn on_desync_;
    Fd listener_;
    Fd wake_fd_;
    std::uint16_t port_ = 0;
    std::mutex mutex_; ///< connections_ vs close(); the poller edits it
    std::vector<ConnectionPtr> connections_;
    std::vector<pollfd> poll_fds_; // scratch of the polling thread
    std::vector<std::uint8_t> read_buffer_;
    std::vector<std::uint8_t> payload_;
    std::atomic<bool> closed_{false};
};

/// One framed connection. Owners read `accepted` and open(); the rest
/// belongs to the Reactor.
struct Reactor::Connection
{
    bool open() const { return !dead.load(std::memory_order_acquire); }

    Fd fd;
    FrameSplitter splitter; ///< polling thread only
    bool accepted = false;  ///< the listener produced it (a peer dialed)
    std::mutex mutex;       ///< guards outbox and the closing of fd
    std::vector<std::uint8_t> outbox;
    std::atomic<bool> dead{false};
};

} // namespace buckwild::net

#endif // BUCKWILD_NET_REACTOR_H
