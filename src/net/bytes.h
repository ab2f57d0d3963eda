/**
 * @file
 * The little-endian byte codec behind every wire format: net/frame
 * headers, ps/wire messages and the socket transport's destination
 * prefix, gate/wire requests and responses, and the obs/tracectx trace
 * block.
 *
 * ByteWriter appends scalars and whole arrays to a byte vector.
 * ByteReader is a cursor over a received buffer whose every read is
 * bounds-checked: a read that does not fit returns false and leaves the
 * cursor where it was. ByteReader::array() compares a declared element
 * count with remaining() / sizeof(T) *before* allocating, so a corrupt
 * or hostile count can never size an allocation larger than the bytes
 * that actually arrived.
 *
 * On a little-endian host an arithmetic value's bytes in memory are its
 * wire bytes, so every scalar and every array moves with one memcpy —
 * a 1024-feature request costs what copying 4 KiB costs, not 4096
 * single-byte appends. The static_assert below records that assumption;
 * no supported target is big-endian.
 */
#ifndef BUCKWILD_NET_BYTES_H
#define BUCKWILD_NET_BYTES_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace buckwild::net {

static_assert(std::endian::native == std::endian::little,
              "net/bytes.h copies host scalars verbatim as little-endian "
              "wire bytes; big-endian hosts are not supported");

/// Reads the little-endian T at `in`; the caller guarantees sizeof(T)
/// readable bytes (fixed-size headers). Use ByteReader otherwise.
template <typename T>
T
load_le(const std::uint8_t* in)
{
    static_assert(std::is_arithmetic_v<T>);
    T value;
    std::memcpy(&value, in, sizeof(T));
    return value;
}

/// Writes `value` little-endian at `out` (sizeof(T) writable bytes).
template <typename T>
void
store_le(std::uint8_t* out, T value)
{
    static_assert(std::is_arithmetic_v<T>);
    std::memcpy(out, &value, sizeof(T));
}

/// Appends little-endian scalars and arrays to a byte vector.
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

    void u8(std::uint8_t value) { out_.push_back(value); }
    void u16(std::uint16_t value) { scalar(value); }
    void u32(std::uint32_t value) { scalar(value); }
    void u64(std::uint64_t value) { scalar(value); }
    void f32(float value) { scalar(value); }

    /// Appends every element of a contiguous arithmetic container (a
    /// vector or a string) with one copy. No count is written: each
    /// format puts its counts where its layout says.
    template <typename Container>
    void
    array(const Container& values)
    {
        using T = typename Container::value_type;
        static_assert(std::is_arithmetic_v<T>);
        const auto* bytes =
            reinterpret_cast<const std::uint8_t*>(values.data());
        out_.insert(out_.end(), bytes, bytes + values.size() * sizeof(T));
    }

  private:
    template <typename T>
    void
    scalar(T value)
    {
        const std::size_t at = out_.size();
        out_.resize(at + sizeof(T));
        store_le(out_.data() + at, value);
    }

    std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian cursor over `data[0..n)`.
class ByteReader
{
  public:
    ByteReader(const std::uint8_t* data, std::size_t n) : data_(data), n_(n)
    {}

    bool u8(std::uint8_t* out) { return scalar(out); }
    bool u16(std::uint16_t* out) { return scalar(out); }
    bool u32(std::uint32_t* out) { return scalar(out); }
    bool u64(std::uint64_t* out) { return scalar(out); }
    bool f32(float* out) { return scalar(out); }

    /**
     * Reads `count` elements into `out` (a vector or a string, resized
     * to `count`) with one copy. False — before anything is allocated
     * or consumed — when the buffer holds fewer than `count` elements.
     */
    template <typename Container>
    bool
    array(Container* out, std::size_t count)
    {
        using T = typename Container::value_type;
        static_assert(std::is_arithmetic_v<T>);
        if (count > remaining() / sizeof(T)) return false;
        out->resize(count);
        // An empty vector's data() may be null, and memcpy from or to
        // null is undefined even for zero bytes.
        if (count != 0) std::memcpy(out->data(), cursor(), count * sizeof(T));
        pos_ += count * sizeof(T);
        return true;
    }

    /// Unread bytes.
    std::size_t remaining() const { return n_ - pos_; }

    /// The first unread byte.
    const std::uint8_t* cursor() const { return data_ + pos_; }

    /// True once every byte has been read.
    bool done() const { return pos_ == n_; }

  private:
    template <typename T>
    bool
    scalar(T* out)
    {
        if (remaining() < sizeof(T)) return false;
        std::memcpy(out, cursor(), sizeof(T));
        pos_ += sizeof(T);
        return true;
    }

    const std::uint8_t* data_;
    std::size_t n_;
    std::size_t pos_ = 0;
};

} // namespace buckwild::net

#endif // BUCKWILD_NET_BYTES_H
