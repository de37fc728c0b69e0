#include "p4lru/common/hash.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <sstream>

// The folded CRC32 kernel is x86-64 only and compiled out entirely under
// -DP4LRU_FORCE_SCALAR, leaving slice-by-8 as the one kernel.
#if !defined(P4LRU_FORCE_SCALAR) && \
    (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define P4LRU_CRC_FOLD 1
#include <immintrin.h>
#endif

namespace p4lru::hash {
namespace {

/// Per-position tables for the reflected CRC32 (poly 0xEDB88320), built at
/// compile time.  Table 0 is the classic bytewise table; table k is a byte
/// followed by k zero bytes, so table k folds a byte that sits k positions
/// before the end of the message.  crc32() below uses tables 0..7 as the
/// slice-by-8 tables; FlowHasher (hash.hpp) uses all 16 for its fixed-length
/// keys.  Output is bit-identical to the bytewise algorithm for every input.
constexpr std::array<std::array<std::uint32_t, 256>, kCrcPosBytes>
make_crc_tables() {
    std::array<std::array<std::uint32_t, 256>, kCrcPosBytes> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        }
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < kCrcPosBytes; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
        }
    }
    return t;
}

constexpr std::uint64_t kXxPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kXxPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kXxPrime5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint64_t rotl64(std::uint64_t x, int r) noexcept {
    return (x << r) | (x >> (64 - r));
}

constexpr std::uint32_t rotl32(std::uint32_t x, int r) noexcept {
    return (x << r) | (x >> (32 - r));
}

std::uint64_t read_u64(const std::uint8_t* p) noexcept {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

std::uint32_t read_u32(const std::uint8_t* p) noexcept {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

std::uint64_t xx_round(std::uint64_t acc, std::uint64_t input) noexcept {
    acc += input * kXxPrime2;
    acc = rotl64(acc, 31);
    return acc * kXxPrime1;
}

std::uint64_t xx_merge(std::uint64_t acc, std::uint64_t val) noexcept {
    acc ^= xx_round(0, val);
    return acc * kXxPrime1 + kXxPrime4;
}

}  // namespace

constinit const std::array<std::array<std::uint32_t, 256>, kCrcPosBytes>
    kCrcPos = make_crc_tables();

namespace {

/// Slice-by-8 over the raw (un-inverted) CRC register: the portable and
/// short-input path, and the tail of the folded kernel.
std::uint32_t crc32_slice8_raw(const std::uint8_t* p, std::size_t n,
                               std::uint32_t crc) noexcept {
    if constexpr (std::endian::native == std::endian::little) {
        // Slice-by-8 main loop, then a slice-by-4 step: a 13-byte FlowKey
        // costs one 8-byte fold, one 4-byte fold and one tail byte instead
        // of 13 dependent table lookups.
        while (n >= 8) {
            const std::uint32_t lo = crc ^ read_u32(p);
            const std::uint32_t hi = read_u32(p + 4);
            crc = kCrcPos[7][lo & 0xFFu] ^
                  kCrcPos[6][(lo >> 8) & 0xFFu] ^
                  kCrcPos[5][(lo >> 16) & 0xFFu] ^
                  kCrcPos[4][lo >> 24] ^
                  kCrcPos[3][hi & 0xFFu] ^
                  kCrcPos[2][(hi >> 8) & 0xFFu] ^
                  kCrcPos[1][(hi >> 16) & 0xFFu] ^
                  kCrcPos[0][hi >> 24];
            p += 8;
            n -= 8;
        }
        if (n >= 4) {
            const std::uint32_t w = crc ^ read_u32(p);
            crc = kCrcPos[3][w & 0xFFu] ^
                  kCrcPos[2][(w >> 8) & 0xFFu] ^
                  kCrcPos[1][(w >> 16) & 0xFFu] ^
                  kCrcPos[0][w >> 24];
            p += 4;
            n -= 4;
        }
    }
    for (; n != 0; ++p, --n) {
        crc = kCrcPos[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    }
    return crc;
}

#ifdef P4LRU_CRC_FOLD
[[gnu::target("pclmul,sse4.1")]] inline __m128i load(const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Fold accumulator `x` forward by the distance `k` encodes onto `next`.
[[gnu::target("pclmul,sse4.1")]] inline __m128i fold(__m128i x, __m128i k,
                                                     __m128i next) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
}

/// Carry-less-multiply folding over the raw CRC register, for `n` >= 64 and
/// a multiple of 16 (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ", Intel 2009).  Four 128-bit accumulators
/// fold 64 bytes per step by x^512, then collapse into one by x^128, fold
/// the remaining 16-byte blocks, and reduce 128 -> 64 -> 32 bits, the last
/// step a Barrett reduction.  The constants are that paper's bit-reflected
/// fold constants for 0xEDB88320: k1/k2 fold by 512 bits, k3/k4 by 128,
/// k5 does the 64 -> 32 step, and `poly` holds the polynomial and its
/// Barrett quotient.
[[gnu::target("pclmul,sse4.1")]] std::uint32_t crc32_fold_raw(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) noexcept {
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 =
        _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = load(p + 16);
    __m128i x3 = load(p + 32);
    __m128i x4 = load(p + 48);
    p += 64;
    n -= 64;
    while (n >= 64) {
        x1 = fold(x1, k1k2, load(p));
        x2 = fold(x2, k1k2, load(p + 16));
        x3 = fold(x3, k1k2, load(p + 32));
        x4 = fold(x4, k1k2, load(p + 48));
        p += 64;
        n -= 64;
    }
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

    // 128 -> 64 bits, then 64 -> 32 via k5, then the Barrett reduction.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5,
                                            0x00));
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// Probed once: the folded kernel needs PCLMULQDQ (and SSE4.1's extract).
bool fold_supported() noexcept {
    static const bool ok = __builtin_cpu_supports("pclmul") != 0 &&
                           __builtin_cpu_supports("sse4.1") != 0;
    return ok;
}
#endif

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed) noexcept {
#ifdef P4LRU_CRC_FOLD
    if (data.size() >= kCrcFoldMinBytes && fold_supported()) {
        return detail::crc32_folded(data, seed);
    }
#endif
    return detail::crc32_slice8(data, seed);
}

namespace detail {

std::uint32_t crc32_slice8(std::span<const std::uint8_t> data,
                           std::uint32_t seed) noexcept {
    return ~crc32_slice8_raw(data.data(), data.size(), ~seed);
}

bool crc32_folded_available() noexcept {
#ifdef P4LRU_CRC_FOLD
    return fold_supported();
#else
    return false;
#endif
}

std::uint32_t crc32_folded(std::span<const std::uint8_t> data,
                           std::uint32_t seed) noexcept {
    std::uint32_t crc = ~seed;
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
#ifdef P4LRU_CRC_FOLD
    if (n >= 64 && fold_supported()) {
        const std::size_t body = n & ~std::size_t{15};
        crc = crc32_fold_raw(p, body, crc);
        p += body;
        n -= body;
    }
#endif
    return ~crc32_slice8_raw(p, n, crc);
}

}  // namespace detail

std::uint32_t murmur3_32(std::span<const std::uint8_t> data,
                         std::uint32_t seed) noexcept {
    const std::size_t n = data.size();
    const std::size_t nblocks = n / 4;
    std::uint32_t h = seed;
    constexpr std::uint32_t c1 = 0xcc9e2d51u;
    constexpr std::uint32_t c2 = 0x1b873593u;

    for (std::size_t i = 0; i < nblocks; ++i) {
        std::uint32_t k = read_u32(data.data() + i * 4);
        k *= c1;
        k = rotl32(k, 15);
        k *= c2;
        h ^= k;
        h = rotl32(h, 13);
        h = h * 5 + 0xe6546b64u;
    }

    std::uint32_t k = 0;
    const std::uint8_t* tail = data.data() + nblocks * 4;
    switch (n & 3u) {
        case 3: k ^= std::uint32_t{tail[2]} << 16; [[fallthrough]];
        case 2: k ^= std::uint32_t{tail[1]} << 8; [[fallthrough]];
        case 1:
            k ^= tail[0];
            k *= c1;
            k = rotl32(k, 15);
            k *= c2;
            h ^= k;
    }

    h ^= static_cast<std::uint32_t>(n);
    h ^= h >> 16;
    h *= 0x85ebca6bu;
    h ^= h >> 13;
    h *= 0xc2b2ae35u;
    h ^= h >> 16;
    return h;
}

std::uint64_t xxhash64(std::span<const std::uint8_t> data,
                       std::uint64_t seed) noexcept {
    const std::uint8_t* p = data.data();
    const std::uint8_t* const end = p + data.size();
    std::uint64_t h;

    if (data.size() >= 32) {
        std::uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
        std::uint64_t v2 = seed + kXxPrime2;
        std::uint64_t v3 = seed;
        std::uint64_t v4 = seed - kXxPrime1;
        do {
            v1 = xx_round(v1, read_u64(p));
            v2 = xx_round(v2, read_u64(p + 8));
            v3 = xx_round(v3, read_u64(p + 16));
            v4 = xx_round(v4, read_u64(p + 24));
            p += 32;
        } while (p + 32 <= end);
        h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) + rotl64(v4, 18);
        h = xx_merge(h, v1);
        h = xx_merge(h, v2);
        h = xx_merge(h, v3);
        h = xx_merge(h, v4);
    } else {
        h = seed + kXxPrime5;
    }

    h += data.size();

    while (p + 8 <= end) {
        h ^= xx_round(0, read_u64(p));
        h = rotl64(h, 27) * kXxPrime1 + kXxPrime4;
        p += 8;
    }
    if (p + 4 <= end) {
        h ^= std::uint64_t{read_u32(p)} * kXxPrime1;
        h = rotl64(h, 23) * kXxPrime2 + kXxPrime3;
        p += 4;
    }
    while (p < end) {
        h ^= std::uint64_t{*p} * kXxPrime5;
        h = rotl64(h, 11) * kXxPrime1;
        ++p;
    }

    h ^= h >> 33;
    h *= kXxPrime2;
    h ^= h >> 29;
    h *= kXxPrime3;
    h ^= h >> 32;
    return h;
}

std::uint32_t fingerprint32(const FlowKey& k) noexcept {
    const auto b = k.bytes();
    // Distinct seed from any bucket hash; Murmur3 for independence from CRC32.
    std::uint32_t fp =
        murmur3_32(std::span<const std::uint8_t>(b.data(), b.size()),
                   0xF1A9B375u);
    // Reserve 0 as the "empty slot" sentinel used by cache units.
    return fp == 0 ? 1u : fp;
}

}  // namespace p4lru::hash

namespace p4lru {

std::string FlowKey::to_string() const {
    const auto ip = [](std::uint32_t v) {
        std::ostringstream os;
        os << ((v >> 24) & 0xFF) << '.' << ((v >> 16) & 0xFF) << '.'
           << ((v >> 8) & 0xFF) << '.' << (v & 0xFF);
        return os.str();
    };
    std::ostringstream os;
    os << ip(src_ip) << ':' << src_port << " -> " << ip(dst_ip) << ':'
       << dst_port << " proto=" << int{proto};
    return os.str();
}

}  // namespace p4lru
