#include "net/frame.h"

#include "net/bytes.h"
#include "net/socket.h"

namespace buckwild::net {

bool
write_frame(int fd, const std::uint8_t* payload, std::size_t n)
{
    // One send for the header keeps the write count low; the payload
    // follows in its own send (no copy of a potentially large body).
    std::uint8_t header[kFrameHeaderBytes];
    store_le(header, kFrameMagic);
    store_le(header + 4, static_cast<std::uint32_t>(n));
    if (!write_full(fd, header, sizeof(header))) return false;
    return n == 0 || write_full(fd, payload, n);
}

std::vector<std::uint8_t>
make_frame(const std::vector<std::uint8_t>& payload)
{
    std::vector<std::uint8_t> frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    append_frame_header(frame, payload.size());
    ByteWriter(frame).array(payload);
    return frame;
}

void
append_frame_header(std::vector<std::uint8_t>& out,
                    std::size_t payload_bytes)
{
    ByteWriter writer(out);
    writer.u32(kFrameMagic);
    writer.u32(static_cast<std::uint32_t>(payload_bytes));
}

FrameResult
read_frame(int fd, std::vector<std::uint8_t>& payload,
           std::size_t max_payload_bytes)
{
    std::uint8_t header[kFrameHeaderBytes];
    // A clean EOF before any header byte means the peer closed between
    // frames; EOF mid-header is a truncated stream.
    switch (read_full_or_eof(fd, header, sizeof(header))) {
    case ReadResult::kClosed: return FrameResult::kClosed;
    case ReadResult::kError: return FrameResult::kError;
    case ReadResult::kOk: break;
    }
    if (load_le<std::uint32_t>(header) != kFrameMagic)
        return FrameResult::kBadMagic;
    const auto length = load_le<std::uint32_t>(header + 4);
    if (length > max_payload_bytes) return FrameResult::kTooLarge;
    payload.resize(length);
    if (length > 0 && !read_full(fd, payload.data(), length))
        return FrameResult::kError;
    return FrameResult::kOk;
}

SplitResult
FrameSplitter::push(const std::uint8_t* data, std::size_t n)
{
    if (poisoned_) return SplitResult::kBadMagic;
    buffer_.insert(buffer_.end(), data, data + n);
    return SplitResult::kNeedMore;
}

SplitResult
FrameSplitter::next(std::vector<std::uint8_t>& payload)
{
    if (poisoned_) return SplitResult::kBadMagic;
    // Reclaim consumed prefix once it dominates the buffer, so a
    // long-lived connection does not creep and extraction stays O(n).
    if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(consumed_));
        consumed_ = 0;
    }
    const std::size_t avail = buffer_.size() - consumed_;
    if (avail < kFrameHeaderBytes) return SplitResult::kNeedMore;
    const std::uint8_t* head = buffer_.data() + consumed_;
    if (load_le<std::uint32_t>(head) != kFrameMagic) {
        poisoned_ = true;
        return SplitResult::kBadMagic;
    }
    const auto length = load_le<std::uint32_t>(head + 4);
    if (length > max_payload_bytes_) {
        poisoned_ = true;
        return SplitResult::kTooLarge;
    }
    if (avail < kFrameHeaderBytes + length) return SplitResult::kNeedMore;
    payload.assign(head + kFrameHeaderBytes,
                   head + kFrameHeaderBytes + length);
    consumed_ += kFrameHeaderBytes + length;
    return SplitResult::kFrame;
}

std::size_t
FrameSplitter::buffered() const
{
    return buffer_.size() - consumed_;
}

} // namespace buckwild::net
