/**
 * @file
 * Length-prefixed message framing over a byte stream.
 *
 * TCP delivers a byte stream; the cluster exchanges discrete messages.
 * Every frame is an 8-byte header — a magic word (cheap protection
 * against a stray HTTP client or a desynchronized peer) plus the
 * payload length — followed by the payload:
 *
 *     offset  size  field
 *     0       4     magic 0x42574650 ("BWFP"), little-endian
 *     4       4     payload length in bytes, little-endian
 *     8       len   payload
 *
 * Two writers and two readers share this one layout:
 *
 *  - write_frame() sends the header, then the payload, in two sends
 *    (the gate client's path); append_frame_header() lets a writer
 *    build header and payload in one buffer, which net::Reactor then
 *    puts on the wire with one send (the gate's replies through
 *    make_frame(), and the parameter-server socket fabric, which
 *    serializes its message straight after the header);
 *  - read_frame() blocks on one descriptor until a whole frame arrived
 *    (the gate client); FrameSplitter is the incremental decoder for
 *    non-blocking reads, fed whatever bytes a recv() returned
 *    (net::Reactor, one per connection, under both the gate's ingress
 *    and the socket fabric).
 *
 * Both readers enforce a maximum payload size *before* allocating, so
 * a corrupt or hostile length prefix cannot balloon memory; a bad magic
 * or oversized length poisons the connection (the caller must drop it —
 * after a desync there is no way to find the next frame boundary).
 * Partial reads and short writes are absorbed by the socket.h I/O
 * loops underneath read_frame() and write_frame(), and by the Reactor's
 * splitters and outboxes.
 */
#ifndef BUCKWILD_NET_FRAME_H
#define BUCKWILD_NET_FRAME_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace buckwild::net {

/// First word of every frame ("BWFP" little-endian).
inline constexpr std::uint32_t kFrameMagic = 0x42574650u;

/// Bytes on the wire before the payload.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Default cap on one frame's payload. Generous for gradient slices
/// (a dim-1M float slice is 4MB) while bounding a corrupt length.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64u << 20;

/// Outcome of read_frame().
enum class FrameResult {
    kOk,       ///< a whole frame was read into `payload`
    kClosed,   ///< clean EOF before any header byte
    kTooLarge, ///< length prefix exceeds the cap — drop the connection
    kBadMagic, ///< stream desync or foreign client — drop the connection
    kError,    ///< read error / EOF mid-frame
};

/// Writes one frame (header + payload). False on error or peer close.
bool write_frame(int fd, const std::uint8_t* payload, std::size_t n);

/// Header + payload as one buffer, for writers that must put a whole
/// frame on the wire in a single write (the gate's replies).
std::vector<std::uint8_t> make_frame(const std::vector<std::uint8_t>& payload);

/// Appends the header of a frame whose payload is `payload_bytes` long;
/// the caller appends exactly that many payload bytes after it.
void append_frame_header(std::vector<std::uint8_t>& out,
                         std::size_t payload_bytes);

/**
 * Reads one frame into `payload` (resized to the exact length).
 * Validates the magic and the length cap before allocating.
 */
FrameResult read_frame(int fd, std::vector<std::uint8_t>& payload,
                       std::size_t max_payload_bytes);

/// Outcome of one FrameSplitter::next() extraction attempt.
enum class SplitResult {
    kFrame,    ///< a whole frame was extracted into `payload`
    kNeedMore, ///< the buffered bytes end mid-frame — feed more
    kBadMagic, ///< stream desync — the connection is poisoned, drop it
    kTooLarge, ///< hostile/corrupt length prefix — drop the connection
};

/**
 * Incremental frame extraction over a non-blocking stream.
 *
 * read_frame() blocks until a whole frame arrives, which is right for
 * a client reading its one connection but wrong for a thread
 * multiplexing many connections (net::Reactor, under the gate ingress
 * and the socket fabric). A FrameSplitter is the buffered alternative: push() whatever bytes
 * recv() returned, then drain complete frames with next(). Validation
 * matches read_frame exactly — bad magic or an oversized length poisons
 * the splitter (after a desync there is no next frame boundary), and
 * the caller must drop the connection.
 */
class FrameSplitter
{
  public:
    explicit FrameSplitter(std::size_t max_payload_bytes)
        : max_payload_bytes_(max_payload_bytes)
    {}

    /// Appends received bytes. Returns kBadMagic if already poisoned,
    /// else kNeedMore (call next() to drain).
    SplitResult push(const std::uint8_t* data, std::size_t n);

    /// Extracts the next complete frame into `payload`, if buffered.
    SplitResult next(std::vector<std::uint8_t>& payload);

    /// Bytes buffered but not yet consumed by next().
    std::size_t buffered() const;

    bool poisoned() const { return poisoned_; }

  private:
    std::size_t max_payload_bytes_;
    std::vector<std::uint8_t> buffer_;
    std::size_t consumed_ = 0;
    bool poisoned_ = false;
};

} // namespace buckwild::net

#endif // BUCKWILD_NET_FRAME_H
