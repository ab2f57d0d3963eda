/**
 * @file
 * SocketTransport — the Transport interface over real TCP.
 *
 * One process hosts one endpoint of the cluster (its `local` index);
 * every other endpoint is remote, reached either by dialing a configured
 * peer address or by replying over the connection a request arrived on.
 * The wire unit is a net/frame.h frame whose payload is a 4-byte
 * destination endpoint followed by a ps/wire.h serialized Message.
 *
 * Topology conventions (matching the ParameterServer endpoint layout —
 * shards [0, S), workers [S, S+W), control S+W):
 *
 *  - a *shard* process listens and hosts its shard endpoint; it dials
 *    nobody. Reply routes to workers are *learned*: when a request kind
 *    (kPush/kPull/kRetire/kStats/kShutdown) arrives on a connection, its
 *    `sender` endpoint is bound to that connection, so the shard's acks
 *    and models flow back over the TCP connection the worker opened —
 *    workers need no listening port of their own.
 *  - a *worker* or *control* process hosts its own endpoint, does not
 *    listen, and dials the shard addresses it was configured with
 *    (lazily, with connect-retry — processes start in any order).
 *
 * No thread lives inside the transport: it runs on a net::Reactor,
 * which owns the listener, the connections and how bytes move. recv()
 * polls the reactor on the consuming thread and parses each frame into
 * the endpoint's mailbox (which applies the FaultModel reorder window),
 * so an RPC wakes only the two threads that act on it. send() builds
 * header, destination and message in one buffer, which
 * net::Reactor::send puts on the wire with one write before it returns.
 *
 * Threading: send() and recv() run on the one thread that serves the
 * endpoint (a shard loop, a worker, a control client); close() may be
 * called from any thread and wakes a blocked recv().
 *
 * Reliability stays the protocol's job: a send onto a dead or
 * unreachable connection is counted in dropped() and otherwise silent —
 * exactly like a FaultModel drop — and RpcClient's timeout-retransmit
 * recovers (the retransmit re-dials). One failure is not retried: a
 * redial that fails for the whole connect_timeout, to a peer this
 * transport had connected to before, throws, naming the peer's
 * host:port — that peer is gone, and retransmitting into it would stall
 * the caller for hundreds of attempts. A first dial keeps retrying, so
 * nodes still start in any order. The FaultModel also still applies
 * (drop/jitter on send, bounded reorder in the mailbox), so the
 * fault-injection convergence tests run unchanged over real sockets.
 *
 * Byte accounting: sent_bytes()/recv_bytes() use the same idealized
 * Message::wire_bytes() the in-process fabric counts, so Cs-tier
 * traffic comparisons hold across fabrics; the *actual* framed TCP
 * bytes are exported to the obs registry as net.sent_bytes /
 * net.recv_bytes (with net.frames_sent / net.frames_recv / net.drops).
 * Inbound frames dropped as runt, unparseable, misaddressed or
 * desynchronized are counted in net.malformed; only the first few warn.
 */
#ifndef BUCKWILD_PS_SOCKET_TRANSPORT_H
#define BUCKWILD_PS_SOCKET_TRANSPORT_H

#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/reactor.h"
#include "ps/transport.h"
#include "util/logging.h"

namespace buckwild::ps {

/// Where this process sits in the cluster and how to reach the rest.
struct SocketTransportConfig
{
    /// Total endpoints in the cluster (the shared index space).
    std::size_t endpoints = 0;
    /// The endpoint this process hosts (it owns the mailbox).
    std::size_t local = 0;
    /// Remote endpoint -> address to dial (shards, from a worker's view).
    std::map<std::size_t, net::Address> peers;
    /// Listen for inbound connections (shard processes).
    bool listen = false;
    std::string bind_address = "127.0.0.1";
    /// 0 = ephemeral; the bound port is readable via port().
    std::uint16_t listen_port = 0;
    /// A pre-bound listening socket inherited from a parent process
    /// (fork-based --spawn: the parent binds every shard's listener
    /// before forking, so advertised ports are race-free). Takes
    /// ownership; overrides bind_address/listen_port.
    int adopt_listen_fd = -1;
    /// How long a dial retries. A first dial that runs out counts the
    /// send as dropped; a redial of a peer connected before throws.
    std::chrono::milliseconds connect_timeout{5000};
    std::size_t max_frame_bytes = net::kDefaultMaxFrameBytes;
    FaultModel faults;
};

class SocketTransport final : public Transport
{
  public:
    /// @throws std::runtime_error on a bad config or un-bindable listener.
    explicit SocketTransport(SocketTransportConfig config);
    ~SocketTransport() override;

    SocketTransport(const SocketTransport&) = delete;
    SocketTransport& operator=(const SocketTransport&) = delete;

    std::size_t endpoints() const override { return config_.endpoints; }

    /// @throws std::runtime_error when a peer connected before cannot
    ///         be redialed within connect_timeout.
    void send(std::size_t to, Message&& message) override;
    bool recv(std::size_t at, Message& out,
              std::chrono::microseconds timeout) override;

    /// Shuts down the listener and every connection, wakes a blocked
    /// recv(), and closes the mailbox (receivers drain, then see
    /// closed). Callable from any thread.
    void close() override;
    bool closed() const override { return reactor_.closed(); }

    /// A loopback TCP round trip plus shard service time sits in the
    /// low milliseconds; retransmitting on the in-proc 200us clock
    /// would duplicate nearly every healthy call.
    std::chrono::microseconds rpc_base_timeout() const override
    {
        return std::chrono::milliseconds(2);
    }

    /// The port this transport listens on (0 when not listening).
    std::uint16_t port() const { return reactor_.port(); }

  private:
    using ConnectionPtr = net::Reactor::ConnectionPtr;

    void deliver(const ConnectionPtr& connection,
                 const std::vector<std::uint8_t>& payload);
    /// Counts a dropped inbound frame in net.malformed; warns for the
    /// first few only.
    void reject(const std::string& why);
    ConnectionPtr route_for(std::size_t to);
    bool write_message(const ConnectionPtr& connection, std::size_t to,
                       const Message& message);

    const SocketTransportConfig config_;
    Mailbox mailbox_;
    net::Reactor reactor_;
    /// endpoint -> connection, learned from inbound requests or dialing.
    std::map<std::size_t, ConnectionPtr> routes_;
    /// Every peer endpoint a dial has reached: losing one is fatal.
    std::set<std::size_t> reached_;
    std::vector<std::uint8_t> frame_; ///< send scratch, reused
    BoundedWarn malformed_warnings_;
};

} // namespace buckwild::ps

#endif // BUCKWILD_PS_SOCKET_TRANSPORT_H
