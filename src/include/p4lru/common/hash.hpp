// Hash functions implemented from scratch.
//
// The data-plane models use CRC32 (what Tofino's hash engines compute) seeded
// with per-array polynom-like salts; host-side structures use Murmur3/xxHash64
// finalizer-quality mixing. Nothing here depends on third-party code.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "p4lru/common/types.hpp"

namespace p4lru::hash {

/// CRC32 (reflected, polynomial 0xEDB88320), the classic Ethernet CRC that
/// Tofino hash engines expose. `seed` models per-table hash-salt configuration.
/// Chaining holds: crc32(b, crc32(a, s)) == crc32(a ++ b, s).  Inputs of at
/// least kCrcFoldMinBytes run the carry-less-multiply folded kernel when the
/// CPU has PCLMULQDQ (probed once per process; x86-64 builds without
/// P4LRU_FORCE_SCALAR only), everything else slice-by-8; both give the same
/// value for every input.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t seed = 0) noexcept;

/// Shortest input crc32() hands to the folded kernel: below it the fold's
/// fixed 128 -> 32-bit reduction costs more than the table lookups it saves.
inline constexpr std::size_t kCrcFoldMinBytes = 256;

namespace detail {

/// The slice-by-8 table kernel: crc32()'s short-input and portable path,
/// and the reference the folded kernel is tested against.
[[nodiscard]] std::uint32_t crc32_slice8(std::span<const std::uint8_t> data,
                                         std::uint32_t seed = 0) noexcept;

/// True when this build and CPU run the folded kernel.
[[nodiscard]] bool crc32_folded_available() noexcept;

/// The folded kernel over any length: 16-byte blocks are folded, a tail
/// under 16 bytes (or a whole input under 64) goes through slice-by-8.
/// Without the kernel this is crc32_slice8.
[[nodiscard]] std::uint32_t crc32_folded(std::span<const std::uint8_t> data,
                                         std::uint32_t seed = 0) noexcept;

}  // namespace detail

/// MurmurHash3 x86 32-bit finalization-complete implementation.
[[nodiscard]] std::uint32_t murmur3_32(std::span<const std::uint8_t> data,
                                       std::uint32_t seed) noexcept;

/// xxHash64 (from the published algorithm description), used for 64-bit
/// fingerprints and host-side indexing.
[[nodiscard]] std::uint64_t xxhash64(std::span<const std::uint8_t> data,
                                     std::uint64_t seed) noexcept;

/// Mix a 64-bit integer (SplitMix64 finalizer). Cheap avalanche for integers.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Longest message the per-position CRC32 tables cover.
inline constexpr std::size_t kCrcPosBytes = 16;

/// kCrcPos[k][b]: the CRC32 register contribution of byte b followed by k
/// more message bytes.  CRC32 is linear over GF(2), so the raw register of
/// an N-byte message (N <= kCrcPosBytes) with initial value c is the XOR of
/// kCrcPos[N-1-i][byte_i], where c is folded into the first four bytes.
/// Tables 0..7 double as crc32()'s slice-by-8 tables.
extern const std::array<std::array<std::uint32_t, 256>, kCrcPosBytes>
    kCrcPos;

/// crc32(bytes, seed) for a message whose length is fixed at compile time
/// (N >= 4): N independent table lookups instead of a dependent chain.
template <std::size_t N>
[[nodiscard]] inline std::uint32_t crc32_fixed(
    std::array<std::uint8_t, N> b, std::uint32_t seed) noexcept {
    static_assert(N >= 4 && N <= kCrcPosBytes);
    const std::uint32_t init = ~seed;
    for (std::size_t i = 0; i < 4; ++i) {
        b[i] ^= static_cast<std::uint8_t>(init >> (8 * i));
    }
    return [&b]<std::size_t... I>(std::index_sequence<I...>) {
        return ~(kCrcPos[N - 1 - I][b[I]] ^ ...);
    }(std::make_index_sequence<N>{});
}

/// A seeded hash function over FlowKeys producing a slot in [0, buckets).
/// Models one configured hash unit of the switch: same seed -> same function.
/// Every digest equals crc32() over the key's bytes (tested in
/// tests/common/hash_test.cpp), computed through crc32_fixed.
class FlowHasher {
  public:
    FlowHasher() = default;
    explicit FlowHasher(std::uint32_t seed, std::size_t buckets = 0) noexcept
        : seed_(seed), buckets_(buckets) {}

    /// Raw 32-bit digest of the flow key.
    [[nodiscard]] std::uint32_t digest(const FlowKey& k) const noexcept {
        return crc32_fixed(k.bytes(), seed_);
    }

    /// Slot index in [0, buckets). Requires buckets > 0.
    [[nodiscard]] std::size_t slot(const FlowKey& k) const noexcept {
        return scale(digest(k));
    }

    /// Slot index for a 32-bit key, CRC32 over its little-endian bytes —
    /// byte-identical to what the pipeline hash engine computes, so the
    /// behavioural arrays and the pipeline programs agree on buckets.
    [[nodiscard]] std::size_t slot_u32(std::uint32_t key) const noexcept {
        return scale(crc32_fixed(le_bytes(key), seed_));
    }

    /// Slot index for a 64-bit key (LruIndex DB keys), same CRC32 scheme.
    [[nodiscard]] std::size_t slot_u64(std::uint64_t key) const noexcept {
        return scale(crc32_fixed(le_bytes(key), seed_));
    }

    [[nodiscard]] std::uint32_t seed() const noexcept { return seed_; }
    [[nodiscard]] std::size_t buckets() const noexcept { return buckets_; }

  private:
    /// Little-endian bytes of an unsigned integer key.
    template <typename U>
    [[nodiscard]] static constexpr std::array<std::uint8_t, sizeof(U)>
    le_bytes(U v) noexcept {
        std::array<std::uint8_t, sizeof(U)> b{};
        for (std::size_t i = 0; i < sizeof(U); ++i) {
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
        return b;
    }

    [[nodiscard]] std::size_t scale(std::uint32_t h) const noexcept {
        return static_cast<std::size_t>((std::uint64_t{h} * buckets_) >> 32);
    }

    std::uint32_t seed_ = 0;
    std::size_t buckets_ = 0;
};

/// 32-bit flow fingerprint used by LruMon as the cache key. A distinct seed
/// keeps it independent from the bucket-choosing hash, as in the paper.
[[nodiscard]] std::uint32_t fingerprint32(const FlowKey& k) noexcept;

}  // namespace p4lru::hash
