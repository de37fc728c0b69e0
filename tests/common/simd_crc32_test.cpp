// The folded (PCLMULQDQ) CRC32 kernel against the slice-by-8 reference.
//
// crc32() hands inputs of at least kCrcFoldMinBytes to the folded kernel
// when the build and CPU have it; every output must equal slice-by-8's,
// bit for bit, for every length, start alignment and seed, and chaining
// crc32 over the pieces of a message must equal one crc32 over the whole
// of it (the checkpoint seal chains the state CRC over gathered parts).
// Under -DP4LRU_FORCE_SCALAR, or on a CPU without PCLMULQDQ, the folded
// kernel is absent and crc32 is slice-by-8 itself.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "p4lru/common/hash.hpp"

namespace p4lru::hash {
namespace {

using Bytes = std::span<const std::uint8_t>;

/// 1 MiB of seeded random bytes plus 64 bytes of alignment slack.
const std::vector<std::uint8_t>& buffer() {
    static const std::vector<std::uint8_t> buf = [] {
        std::vector<std::uint8_t> b((1u << 20) + 64);
        std::mt19937_64 rng(0xC3C32u);
        for (auto& x : b) x = static_cast<std::uint8_t>(rng());
        return b;
    }();
    return buf;
}

TEST(SimdCrc32, FoldedKernelAvailabilityFollowsTheBuild) {
#if defined(P4LRU_FORCE_SCALAR) || !defined(__x86_64__)
    EXPECT_FALSE(detail::crc32_folded_available());
#endif
    // Whatever the build, crc32 keeps the published check value.
    const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(crc32(Bytes(check)), 0xCBF43926u);
    EXPECT_EQ(detail::crc32_folded(Bytes(check)), 0xCBF43926u);
}

TEST(SimdCrc32, EveryLengthUpTo4096MatchesSliceBy8) {
    const auto& buf = buffer();
    for (std::size_t n = 0; n <= 4096; ++n) {
        const Bytes s(buf.data() + 3, n);
        const std::uint32_t seed = static_cast<std::uint32_t>(n * 0x9E3779B9u);
        const std::uint32_t want = detail::crc32_slice8(s, seed);
        ASSERT_EQ(detail::crc32_folded(s, seed), want) << "length " << n;
        ASSERT_EQ(crc32(s, seed), want) << "length " << n;
    }
}

TEST(SimdCrc32, RandomLengthsUpTo1MiBMatchSliceBy8) {
    const auto& buf = buffer();
    std::mt19937_64 rng(0x1E57u);
    for (int i = 0; i < 64; ++i) {
        const std::size_t n = rng() % ((1u << 20) + 1);
        const std::size_t off = rng() % 64;
        const auto seed = static_cast<std::uint32_t>(rng());
        const Bytes s(buf.data() + off, n);
        const std::uint32_t want = detail::crc32_slice8(s, seed);
        ASSERT_EQ(detail::crc32_folded(s, seed), want)
            << "length " << n << " offset " << off;
        ASSERT_EQ(crc32(s, seed), want) << "length " << n;
    }
}

TEST(SimdCrc32, All64StartAlignmentsMatchSliceBy8) {
    const auto& buf = buffer();
    for (std::size_t off = 0; off < 64; ++off) {
        for (const std::size_t n : {std::size_t{64}, std::size_t{255},
                                    std::size_t{256}, std::size_t{1000},
                                    std::size_t{4097}, std::size_t{65'551}}) {
            const Bytes s(buf.data() + off, n);
            ASSERT_EQ(detail::crc32_folded(s, 0xA5A5u),
                      detail::crc32_slice8(s, 0xA5A5u))
                << "offset " << off << " length " << n;
        }
    }
}

TEST(SimdCrc32, RandomSeedsMatchSliceBy8) {
    const auto& buf = buffer();
    std::mt19937_64 rng(0x5EEDu);
    for (int i = 0; i < 256; ++i) {
        const auto seed = static_cast<std::uint32_t>(rng());
        const Bytes s(buf.data() + i % 64, 512 + static_cast<std::size_t>(i));
        ASSERT_EQ(detail::crc32_folded(s, seed), detail::crc32_slice8(s, seed))
            << "seed " << seed;
    }
    // The all-ones seed makes the initial register zero.
    const Bytes s(buf.data(), 4096);
    EXPECT_EQ(detail::crc32_folded(s, ~0u), detail::crc32_slice8(s, ~0u));
}

TEST(SimdCrc32, ChainingAcrossTheFoldThresholdEqualsOnePass) {
    const auto& buf = buffer();
    const std::size_t t = kCrcFoldMinBytes;
    for (const std::size_t total :
         {t - 1, t, t + 1, 2 * t, 2 * t + 17, std::size_t{70'000}}) {
        const Bytes whole(buf.data() + 5, total);
        const std::uint32_t want = crc32(whole, 0x1234u);
        ASSERT_EQ(want, detail::crc32_slice8(whole, 0x1234u));
        for (const std::size_t cut :
             {std::size_t{0}, std::size_t{1}, std::size_t{63}, t - 1, t,
              t + 1, total / 2, total - t, total - 1, total}) {
            if (cut > total) continue;
            const std::uint32_t a = crc32(whole.first(cut), 0x1234u);
            ASSERT_EQ(crc32(whole.subspan(cut), a), want)
                << "total " << total << " cut " << cut;
        }
    }
}

}  // namespace
}  // namespace p4lru::hash
