/**
 * @file
 * Minimal binary (de)serialization primitives for the artifact store:
 * a byte-appending writer, a bounds-checked reader, and the FNV-1a
 * hash used for payload integrity and store file names. Everything is
 * explicit little-endian byte-at-a-time, so artifacts are portable
 * across hosts regardless of native endianness or struct layout.
 *
 * The reader throws TruncatedData on any out-of-bounds read, so a
 * short or corrupted buffer can never produce a silently-wrong value;
 * the artifact store turns that throw into a cache miss.
 */
#ifndef STOS_SUPPORT_BINIO_H
#define STOS_SUPPORT_BINIO_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "support/util.h"

namespace stos::support {

/** Thrown by BinReader when a read runs past the end of the buffer. */
struct TruncatedData : FatalError {
    using FatalError::FatalError;
};

/** 64-bit FNV-1a over arbitrary bytes (stable across platforms). */
inline uint64_t
fnv1a64(std::string_view data)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x00000100000001b3ull;
    }
    return h;
}

/** Append-only little-endian byte sink backed by a std::string. */
class BinWriter {
  public:
    void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u16(uint16_t v)
    {
        u8(static_cast<uint8_t>(v));
        u8(static_cast<uint8_t>(v >> 8));
    }
    void u32(uint32_t v)
    {
        u16(static_cast<uint16_t>(v));
        u16(static_cast<uint16_t>(v >> 16));
    }
    void u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void d(double v)
    {
        uint64_t bits;
        static_assert(sizeof bits == sizeof v);
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void str(std::string_view s)
    {
        u64(s.size());
        buf_.append(s.data(), s.size());
    }
    void bytes(const std::vector<uint8_t> &v)
    {
        u64(v.size());
        buf_.append(reinterpret_cast<const char *>(v.data()), v.size());
    }

    const std::string &data() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/** Bounds-checked little-endian reader over a borrowed buffer. */
class BinReader {
  public:
    explicit BinReader(std::string_view buf) : buf_(buf) {}

    uint8_t u8()
    {
        need(1);
        return static_cast<uint8_t>(buf_[pos_++]);
    }
    uint16_t u16()
    {
        uint16_t lo = u8();
        return static_cast<uint16_t>(lo | (u8() << 8));
    }
    uint32_t u32()
    {
        uint32_t lo = u16();
        return lo | (static_cast<uint32_t>(u16()) << 16);
    }
    uint64_t u64()
    {
        uint64_t lo = u32();
        return lo | (static_cast<uint64_t>(u32()) << 32);
    }
    int32_t i32() { return static_cast<int32_t>(u32()); }
    int64_t i64() { return static_cast<int64_t>(u64()); }
    bool b() { return u8() != 0; }
    double d()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }
    /**
     * A length or element-count prefix, validated against the
     * remaining bytes: every serialized element occupies at least one
     * byte, so a larger count is corrupt and throws TruncatedData
     * instead of driving a huge allocation.
     */
    size_t count()
    {
        uint64_t n = u64();
        need(n);
        return static_cast<size_t>(n);
    }
    std::string str()
    {
        size_t n = count();
        std::string s(buf_.substr(pos_, n));
        pos_ += n;
        return s;
    }
    std::vector<uint8_t> bytes()
    {
        size_t n = count();
        const auto *p =
            reinterpret_cast<const uint8_t *>(buf_.data() + pos_);
        pos_ += n;
        return std::vector<uint8_t>(p, p + n);
    }

    size_t remaining() const { return buf_.size() - pos_; }
    bool atEnd() const { return pos_ == buf_.size(); }

  private:
    void need(uint64_t n)
    {
        if (n > buf_.size() - pos_)
            throw TruncatedData(
                strfmt("truncated data: need %llu bytes at offset %zu "
                       "of %zu",
                       static_cast<unsigned long long>(n), pos_,
                       buf_.size()));
    }

    std::string_view buf_;
    size_t pos_ = 0;
};

} // namespace stos::support

#endif
