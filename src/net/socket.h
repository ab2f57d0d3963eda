/**
 * @file
 * Zero-dependency POSIX TCP primitives — the one socket layer in the
 * tree.
 *
 * Everything that talks TCP goes through these helpers: the obs
 * Prometheus exporter (accept loop + bounded request reads), the gate
 * client, and net::Reactor (net/reactor.h), the event loop under the
 * parameter-server socket fabric and the gate's ingress. The surface is
 * deliberately small and blocking-with-timeouts:
 *
 *  - Fd: move-only RAII file descriptor;
 *  - listen_tcp(): SO_REUSEADDR bind + listen, port 0 = ephemeral (the
 *    bound port is reported back, which is how tests avoid fixed-port
 *    collisions);
 *  - accept_client(): poll-with-timeout accept so accept loops can
 *    re-check a stop flag without signals or self-pipes; it sets
 *    TCP_NODELAY, and it is the Reactor's accept path too;
 *  - connect_tcp(): connect with bounded retry + exponential backoff —
 *    cluster processes come up in any order, so a worker dialing a
 *    shard that has not bound yet must spin politely instead of dying;
 *  - write_full()/read_full(): the blocking exact-count I/O pair of a
 *    thread that owns its descriptor (the HTTP exporter, the gate
 *    client's write_frame()/read_frame()); the Reactor never blocks on
 *    a peer and does its own I/O. Short writes, partial reads, and
 *    EINTR are absorbed here; write_full uses MSG_NOSIGNAL so a peer
 *    that hangs up mid-write can never SIGPIPE the process;
 *    read_full_or_eof() tells a clean EOF on the first byte ("peer
 *    finished") from a mid-read truncation ("peer died"). Both take an
 *    injectable raw-syscall hook so tests can force 1-byte writes and
 *    spurious EINTRs through the exact production loops.
 *
 * No protocol lives here — framing is net/frame.h, message semantics
 * are the callers'.
 */
#ifndef BUCKWILD_NET_SOCKET_H
#define BUCKWILD_NET_SOCKET_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace buckwild::net {

/// Move-only RAII owner of a POSIX file descriptor.
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { reset(); }

    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;

    Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

    Fd&
    operator=(Fd&& other) noexcept
    {
        if (this != &other) {
            reset();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /// Gives up ownership without closing.
    int
    release()
    {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }

    /// Closes now (idempotent).
    void reset();

    /// Half-closes both directions so blocked readers/writers wake with
    /// EOF without racing the close of the descriptor itself.
    void shutdown_rdwr();

  private:
    int fd_ = -1;
};

/// A dialable TCP endpoint.
struct Address
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    std::string
    to_string() const
    {
        return host + ":" + std::to_string(port);
    }

    bool operator==(const Address&) const = default;
};

/// Parses "host:port" (host may be empty = 127.0.0.1).
/// @throws std::runtime_error on a malformed or out-of-range port.
Address parse_address(const std::string& text);

/**
 * Creates a TCP listener: socket + SO_REUSEADDR + bind + listen.
 * `port` 0 binds an ephemeral port; the actually bound port is written
 * to `*bound_port` when non-null. On failure returns an invalid Fd and
 * fills `*error` (when non-null) — callers decide whether that is fatal
 * (cluster transport) or a warning (metrics exporter).
 */
Fd listen_tcp(const std::string& bind_address, std::uint16_t port,
              int backlog, std::uint16_t* bound_port, std::string* error);

/// The port a bound socket actually listens on (resolves port 0).
std::uint16_t local_port(int fd);

/**
 * Accepts one client, waiting up to `timeout_ms` (poll + accept).
 * Returns an invalid Fd on timeout or error — accept loops treat both
 * as "re-check the stop flag and poll again".
 */
Fd accept_client(int listen_fd, int timeout_ms);

/**
 * Connects to `address`, retrying with exponential backoff (10ms
 * doubling to 500ms) until `deadline_ms` has elapsed — peers of a
 * multi-process cluster start in arbitrary order. Returns an invalid Fd
 * and fills `*error` (when non-null) once the deadline passes.
 */
Fd connect_tcp(const Address& address, std::chrono::milliseconds deadline,
               std::string* error);

/// Raw one-shot write in send(2) shape — injectable so tests can force
/// short writes and EINTR through the production write_full loop.
using RawWriteFn = long (*)(int fd, const void* data, std::size_t n);

/// Raw one-shot read in recv(2) shape, injectable likewise.
using RawReadFn = long (*)(int fd, void* data, std::size_t n);

/// Outcome of read_full_or_eof().
enum class ReadResult {
    kOk,     ///< all `n` bytes arrived
    kClosed, ///< clean EOF before the first byte (peer finished)
    kError,  ///< read error, or EOF after at least one byte (truncation)
};

/**
 * Writes exactly `n` bytes, absorbing short writes and EINTR. False on
 * error or peer close. The default raw writer is send(2) with
 * MSG_NOSIGNAL; pass `raw` to substitute a fault-injecting writer in
 * tests.
 */
bool write_full(int fd, const void* data, std::size_t n,
                RawWriteFn raw = nullptr);

/// write_full over a string (HTTP responses and other text protocols).
bool write_full(int fd, const std::string& bytes);

/// Reads exactly `n` bytes, absorbing partial reads and EINTR. False on
/// EOF before `n` bytes, or on error.
bool read_full(int fd, void* data, std::size_t n, RawReadFn raw = nullptr);

/// read_full distinguishing the clean-EOF-on-first-byte case — what
/// framing needs to tell a finished peer from a truncated stream.
ReadResult read_full_or_eof(int fd, void* data, std::size_t n,
                            RawReadFn raw = nullptr);

/// Sets SO_RCVTIMEO so a stalled peer cannot wedge a blocking read.
void set_recv_timeout(int fd, std::chrono::milliseconds timeout);

} // namespace buckwild::net

#endif // BUCKWILD_NET_SOCKET_H
