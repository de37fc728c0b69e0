#include "p4lru/core/parallel_array.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "../test_util.hpp"
#include "p4lru/core/p4lru_encoded.hpp"

namespace p4lru::core {
namespace {

using Unit3 = P4lru<std::uint32_t, std::uint32_t, 3>;

TEST(ParallelCache, RejectsZeroUnits) {
    using PC = ParallelCache<Unit3, std::uint32_t, std::uint32_t>;
    EXPECT_THROW(PC(0, 1), std::invalid_argument);
}

TEST(ParallelCache, CapacityIsUnitsTimesEntries) {
    ParallelCache<Unit3, std::uint32_t, std::uint32_t> pc(128, 1);
    EXPECT_EQ(pc.unit_count(), 128u);
    EXPECT_EQ(pc.capacity(), 384u);
}

TEST(ParallelCache, BucketAssignmentIsDeterministic) {
    ParallelCache<Unit3, std::uint32_t, std::uint32_t> pc(64, 7);
    for (std::uint32_t k = 1; k < 1000; ++k) {
        EXPECT_EQ(pc.bucket(k), pc.bucket(k));
        EXPECT_LT(pc.bucket(k), 64u);
    }
}

TEST(ParallelCache, DifferentSeedsGiveDifferentMappings) {
    ParallelCache<Unit3, std::uint32_t, std::uint32_t> a(1024, 1);
    ParallelCache<Unit3, std::uint32_t, std::uint32_t> b(1024, 2);
    std::size_t same = 0;
    for (std::uint32_t k = 1; k <= 1000; ++k) {
        same += a.bucket(k) == b.bucket(k) ? 1 : 0;
    }
    EXPECT_LT(same, 50u);  // ~1/1024 expected collisions
}

TEST(ParallelCache, UpdateAndFindRoundTrip) {
    ParallelCache<Unit3, std::uint32_t, std::uint32_t> pc(256, 3);
    for (std::uint32_t k = 1; k <= 500; ++k) {
        pc.update(k, k * 2);
    }
    // With 768 entries for 500 keys, most must still be present; every
    // present key maps to its own value.
    std::size_t present = 0;
    for (std::uint32_t k = 1; k <= 500; ++k) {
        if (const auto v = pc.find(k)) {
            EXPECT_EQ(*v, k * 2);
            ++present;
        }
    }
    EXPECT_GT(present, 350u);
    EXPECT_EQ(pc.size(), present);
}

TEST(ParallelCache, EvictionsStayWithinTheBucket) {
    ParallelCache<Unit3, std::uint32_t, std::uint32_t> pc(16, 5);
    std::unordered_map<std::uint32_t, std::size_t> bucket_of_key;
    for (std::uint32_t k = 1; k <= 2000; ++k) {
        bucket_of_key[k] = pc.bucket(k);
        const auto r = pc.update(k, k);
        if (r.evicted) {
            EXPECT_EQ(bucket_of_key.at(r.evicted_key), pc.bucket(k));
        }
    }
}

TEST(ParallelCache, FlowKeySupport) {
    ParallelCache<P4lru<FlowKey, std::uint32_t, 3>, FlowKey, std::uint32_t>
        pc(64, 9);
    const FlowKey f1 = testutil::make_flow(1);
    const FlowKey f2 = testutil::make_flow(2);
    pc.update(f1, 100);
    pc.update(f2, 200);
    EXPECT_EQ(pc.find(f1), std::optional<std::uint32_t>(100));
    EXPECT_EQ(pc.find(f2), std::optional<std::uint32_t>(200));
}

TEST(ParallelCache, WorksWithEncodedUnits) {
    ParallelCache<P4lru3Encoded<std::uint32_t, std::uint32_t>, std::uint32_t,
                  std::uint32_t>
        pc(32, 11);
    for (std::uint32_t k = 1; k <= 200; ++k) pc.update(k, k + 7);
    std::size_t present = 0;
    for (std::uint32_t k = 1; k <= 200; ++k) {
        if (const auto v = pc.find(k)) {
            EXPECT_EQ(*v, k + 7);
            ++present;
        }
    }
    EXPECT_GT(present, 70u);
}

// Layout selection: behavioural P4lru units default to the SoA slab; pinning
// AosStorage explicitly must keep every public operation working unchanged.
TEST(ParallelCache, ExplicitAosStorageRoundTrip) {
    static_assert(std::is_same_v<
                  ParallelCache<Unit3, std::uint32_t, std::uint32_t>::
                      storage_type,
                  SoaSlab<std::uint32_t, std::uint32_t, 3>>);
    AosParallelCache<Unit3, std::uint32_t, std::uint32_t> pc(64, 21);
    static_assert(std::is_same_v<decltype(pc)::storage_type,
                                 AosStorage<Unit3, std::uint32_t,
                                            std::uint32_t>>);
    for (std::uint32_t k = 1; k <= 150; ++k) pc.update(k, k + 1);
    std::size_t present = 0;
    for (std::uint32_t k = 1; k <= 150; ++k) {
        if (const auto v = pc.find(k)) {
            EXPECT_EQ(*v, k + 1);
            ++present;
        }
    }
    EXPECT_GT(present, 60u);
    EXPECT_EQ(pc.size(), present);
}

TEST(ParallelCache, UpdateAtMatchesUpdate) {
    ParallelCache<Unit3, std::uint32_t, std::uint32_t> a(32, 19);
    ParallelCache<Unit3, std::uint32_t, std::uint32_t> b(32, 19);
    for (std::uint32_t k = 1; k <= 400; ++k) {
        const auto ra = a.update(k % 90 + 1, k);
        const auto rb = b.update_at(b.bucket(k % 90 + 1), k % 90 + 1, k);
        EXPECT_EQ(ra.hit, rb.hit);
        EXPECT_EQ(ra.hit_pos, rb.hit_pos);
        EXPECT_EQ(ra.evicted, rb.evicted);
    }
    EXPECT_EQ(a.size(), b.size());
}

TEST(ParallelCache, TouchAndInsertLruDelegate) {
    ParallelCache<Unit3, std::uint32_t, std::uint32_t> pc(8, 13);
    pc.update(1, 10);
    EXPECT_TRUE(pc.touch(1, 10));
    EXPECT_FALSE(pc.touch(999, 0));
    EXPECT_FALSE(pc.insert_lru(2, 20).has_value());
    EXPECT_EQ(pc.find(2), std::optional<std::uint32_t>(20));
}

// More units at equal total entries -> fewer hash-collision conflicts than a
// single giant unit would suffer... but also shallower LRU depth. Sanity:
// hit rate on a skewed stream is far above zero and below one.
TEST(ParallelCache, SkewedStreamHitRateSanity) {
    ParallelCache<Unit3, std::uint32_t, std::uint32_t> pc(512, 17);
    const auto keys = testutil::random_keys(50'000, 4096, 99, 0.6);
    std::size_t hits = 0;
    for (const auto k : keys) hits += pc.update(k, k).hit ? 1 : 0;
    const double rate = static_cast<double>(hits) / keys.size();
    EXPECT_GT(rate, 0.55);  // the 0.6 repeat bias alone guarantees ~0.6
    EXPECT_LT(rate, 0.95);
}

}  // namespace
}  // namespace p4lru::core
