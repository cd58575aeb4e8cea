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
 *
 * A stored aggregate describes its layout once, as a function found
 * by argument-dependent lookup,
 *
 *   void transfer(auto &a, T &x) { a(x.f1, x.f2, ...); }
 *
 * which writes through a BinWriter and reads through a BinReader.
 * Each field's wire form follows from its C++ type: bool and 1-byte
 * integers or enums take 1 byte, 4- and 8-byte ones take 4 and 8
 * (other widths do not compile); std::string is str() and
 * std::vector<uint8_t> is bytes(); other vectors and maps are a u64
 * count, read back through count(), followed by their elements (a
 * map's as key, value); anything else goes through its own
 * transfer().
 */
#ifndef STOS_SUPPORT_BINIO_H
#define STOS_SUPPORT_BINIO_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
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

template <typename T> inline constexpr bool kIsVector = false;
template <typename E, typename A>
inline constexpr bool kIsVector<std::vector<E, A>> = true;
template <typename T> inline constexpr bool kIsMap = false;
template <typename K, typename V, typename C, typename A>
inline constexpr bool kIsMap<std::map<K, V, C, A>> = true;

/** Integers and enums: stored as 1, 4 or 8 little-endian bytes. */
template <typename T>
inline constexpr bool kIsScalar =
    std::is_integral_v<T> || std::is_enum_v<T>;

template <typename T>
constexpr void
checkScalarWidth()
{
    static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8,
                  "stored integers are 1, 4 or 8 bytes wide");
}

/** Append-only little-endian byte sink backed by a std::string. */
class BinWriter {
  public:
    void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u32(uint32_t v) { le(v); }
    void u64(uint64_t v) { le(v); }
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

    /** Append each value in the layout its type implies (file comment). */
    template <typename... Ts> void operator()(const Ts &...vs)
    {
        (put(vs), ...);
    }

    const std::string &data() const { return buf_; }

  private:
    /** `v`'s bytes, least significant first, appended in one call. */
    template <typename U> void le(U v)
    {
        char b[sizeof(U)];
        for (size_t i = 0; i < sizeof(U); ++i)
            b[i] = static_cast<char>(v >> (8 * i));
        buf_.append(b, sizeof b);
    }

    template <typename T> void put(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            u8(v ? 1 : 0);
        } else if constexpr (kIsScalar<T>) {
            checkScalarWidth<T>();
            if constexpr (sizeof(T) == 1)
                u8(static_cast<uint8_t>(v));
            else if constexpr (sizeof(T) == 4)
                u32(static_cast<uint32_t>(v));
            else
                u64(static_cast<uint64_t>(v));
        } else if constexpr (std::is_same_v<T, std::string>) {
            str(v);
        } else if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
            bytes(v);
        } else if constexpr (kIsVector<T>) {
            u64(v.size());
            for (const auto &e : v)
                put(e);
        } else if constexpr (kIsMap<T>) {
            u64(v.size());
            for (const auto &[k, e] : v) {
                put(k);
                put(e);
            }
        } else {
            // transfer() takes T& so that one function serves both
            // directions; a writer only ever reads through it.
            transfer(*this, const_cast<T &>(v));
        }
    }

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

    /** Read into each value, in the layout BinWriter wrote it. */
    template <typename... Ts> void operator()(Ts &...vs) { (get(vs), ...); }

    /** Read one value of type T. */
    template <typename T> T read()
    {
        T v{};
        get(v);
        return v;
    }

    size_t remaining() const { return buf_.size() - pos_; }
    bool atEnd() const { return pos_ == buf_.size(); }

  private:
    uint16_t u16()
    {
        uint16_t lo = u8();
        return static_cast<uint16_t>(lo | (u8() << 8));
    }

    template <typename T> void get(T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            v = u8() != 0;
        } else if constexpr (kIsScalar<T>) {
            checkScalarWidth<T>();
            if constexpr (sizeof(T) == 1)
                v = static_cast<T>(u8());
            else if constexpr (sizeof(T) == 4)
                v = static_cast<T>(u32());
            else
                v = static_cast<T>(u64());
        } else if constexpr (std::is_same_v<T, std::string>) {
            v = str();
        } else if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
            v = bytes();
        } else if constexpr (kIsVector<T>) {
            size_t n = count();
            v.clear();
            v.reserve(n);
            for (size_t i = 0; i < n; ++i)
                get(v.emplace_back());
        } else if constexpr (kIsMap<T>) {
            size_t n = count();
            v.clear();
            for (size_t i = 0; i < n; ++i) {
                auto k = read<typename T::key_type>();
                v.insert_or_assign(std::move(k),
                                   read<typename T::mapped_type>());
            }
        } else {
            transfer(*this, v);
        }
    }

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
