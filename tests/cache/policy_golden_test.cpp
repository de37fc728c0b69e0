// Golden Access-stream digests for every replacement policy.
//
// Each policy replays one fixed Zipf stream at a small capacity (so buckets
// collide) with advancing timestamps (so Timeout's expiry fires), mixing the
// read path (access) and the write path (fill).  Every field of every Access
// and the final for_each enumeration fold into one 64-bit digest per
// (policy, Merge) pair.  The expected values were captured from separate
// per-policy classes; any refactor of the policy layer must land on the
// same bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/common/random.hpp"
#include "p4lru/common/zipf.hpp"

namespace p4lru::cache {
namespace {

using K = std::uint32_t;
using V = std::uint64_t;
using PolicyPtr = std::unique_ptr<ReplacementPolicy<K, V>>;

constexpr std::size_t kEntries = 240;  // divisible by 1, 2, 3 and 4
constexpr std::uint32_t kSeed = 0x601D;

struct StreamOp {
    K key;
    V value;
    TimeNs now;
    bool write;  // fill (true) or access (false)
};

/// 40k ops over 4000 Zipf-0.9 keys (ranks, so never the Key{} sentinel),
/// a 0-300 ns gap between packets (a bucket is revisited every ~36 us, so
/// a 20 us Timeout both retains and expires), one op in three on the read
/// path.
const std::vector<StreamOp>& stream() {
    static const std::vector<StreamOp> ops = [] {
        rng::Xoshiro256 rng(0x5EED60);
        const rng::ZipfSampler zipf(4000, 0.9);
        std::vector<StreamOp> out;
        out.reserve(40'000);
        TimeNs now = 0;
        for (std::size_t i = 0; i < 40'000; ++i) {
            const auto key = static_cast<K>(zipf.sample(rng));
            const V value = rng.between(1, 1000);
            now += rng.between(0, 300);
            out.push_back({key, value, now, !rng.chance(1.0 / 3.0)});
        }
        return out;
    }();
    return ops;
}

/// P4LRU4's policy is built through whichever constructor it has, so this
/// file also compiles where the policy still takes its name as an argument
/// (the tree the digests below were captured on).
template <typename P>
PolicyPtr make_p4lru4() {
    if constexpr (std::is_constructible_v<P, std::size_t, std::uint32_t>) {
        return std::make_unique<P>(kEntries, kSeed);
    } else {
        return std::make_unique<P>(kEntries, kSeed, "P4LRU4");
    }
}

template <typename Merge>
std::vector<PolicyPtr> all_policies() {
    std::vector<PolicyPtr> out;
    out.push_back(
        std::make_unique<P4lruArrayPolicy<K, V, 1, Merge>>(kEntries, kSeed));
    out.push_back(
        std::make_unique<P4lruArrayPolicy<K, V, 2, Merge>>(kEntries, kSeed));
    out.push_back(
        std::make_unique<P4lruArrayPolicy<K, V, 3, Merge>>(kEntries, kSeed));
    out.push_back(make_p4lru4<P4lru4ArrayPolicy<K, V, Merge>>());
    out.push_back(std::make_unique<TimeoutPolicy<K, V, Merge>>(
        kEntries, kSeed, TimeNs{20'000}));
    out.push_back(
        std::make_unique<ElasticPolicy<K, V, Merge>>(kEntries, kSeed));
    out.push_back(std::make_unique<CocoPolicy<K, V, Merge>>(kEntries, kSeed));
    out.push_back(std::make_unique<IdealLruPolicy<K, V, Merge>>(kEntries));
    out.push_back(std::make_unique<LfuPolicy<K, V, Merge>>(kEntries, kSeed));
    out.push_back(std::make_unique<ClockPolicy<K, V, Merge>>(kEntries));
    return out;
}

class Digest {
  public:
    void add(std::uint64_t x) {
        h_ ^= x;
        h_ *= 0x100000001B3ull;  // FNV-1a prime, fed whole words
        h_ ^= h_ >> 29;
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::uint64_t digest_of(ReplacementPolicy<K, V>& p) {
    Digest d;
    for (const StreamOp& op : stream()) {
        const auto a = op.write ? p.fill(op.key, op.value, op.now)
                                : p.access(op.key, op.value, op.now);
        d.add((a.hit ? 1u : 0u) | (a.inserted ? 2u : 0u) |
              (a.evicted ? 4u : 0u));
        d.add(a.evicted_key);
        d.add(a.evicted_value);
        d.add(a.value);
    }
    p.for_each([&](const K& k, const V& v) {
        d.add(k);
        d.add(v);
    });
    return d.value();
}

struct Golden {
    const char* name;
    std::uint64_t replace_merge;
    std::uint64_t add_merge;
};

// In all_policies() order.
constexpr Golden kGolden[] = {
    {"P4LRU1", 0xfb3ee0734f6d7e60ull, 0x4a1e09f0ce3f2e38ull},
    {"P4LRU2", 0xf612f0e007de7cc5ull, 0xa4ebde31d4a865f1ull},
    {"P4LRU3", 0xc1d1d4e4abe41508ull, 0xe1390f8597a6e64full},
    {"P4LRU4", 0xa9b88b65e78d3c7bull, 0x34fb9cdc5c19ad9dull},
    {"Timeout", 0xe5bc76ca24028fc6ull, 0x924ae367bbc4664aull},
    {"Elastic", 0x4a7e8e220c7b3b9aull, 0x48f1483e7d55e198ull},
    {"Coco", 0x87667db91739ef3eull, 0x428b34757b83850cull},
    {"LRU_IDEAL", 0xb40e940dfaf90f0full, 0xf5c64b995f32640bull},
    {"LFU", 0x1b9f04cb94732093ull, 0x496b68e71f846c72ull},
    {"CLOCK", 0x5768dfa0223559e5ull, 0xe5a1d5cb59272abcull},
};

template <typename Merge>
void check_digests(std::uint64_t Golden::*expected) {
    const auto policies = all_policies<Merge>();
    ASSERT_EQ(policies.size(), std::size(kGolden));
    for (std::size_t i = 0; i < policies.size(); ++i) {
        EXPECT_EQ(policies[i]->name(), kGolden[i].name);
        const std::uint64_t got = digest_of(*policies[i]);
        EXPECT_EQ(got, kGolden[i].*expected)
            << policies[i]->name() << " digest 0x" << std::hex << got;
    }
}

TEST(PolicyGolden, AccessStreamReplaceMerge) {
    check_digests<core::ReplaceMerge>(&Golden::replace_merge);
}

TEST(PolicyGolden, AccessStreamAddMerge) {
    check_digests<core::AddMerge>(&Golden::add_merge);
}

}  // namespace
}  // namespace p4lru::cache
