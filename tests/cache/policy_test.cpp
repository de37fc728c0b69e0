#include "p4lru/cache/policy.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "../test_util.hpp"

namespace p4lru::cache {
namespace {

using K = std::uint32_t;
using V = std::uint64_t;
using PolicyPtr = std::unique_ptr<ReplacementPolicy<K, V>>;

/// All policies at 64 entries for the shared behavioural checks.
std::vector<PolicyPtr> make_policies() {
    std::vector<PolicyPtr> out;
    out.push_back(std::make_unique<P4lruArrayPolicy<K, V, 1>>(64, 1));
    out.push_back(std::make_unique<P4lruArrayPolicy<K, V, 2>>(64, 1));
    out.push_back(std::make_unique<P4lruArrayPolicy<K, V, 3>>(64, 1));
    out.push_back(std::make_unique<P4lru4ArrayPolicy<K, V>>(64, 1));
    out.push_back(
        std::make_unique<TimeoutPolicy<K, V>>(64, 1, TimeNs{1000}));
    out.push_back(std::make_unique<ElasticPolicy<K, V>>(64, 1));
    out.push_back(std::make_unique<CocoPolicy<K, V>>(64, 1));
    out.push_back(std::make_unique<IdealLruPolicy<K, V>>(64));
    out.push_back(std::make_unique<LfuPolicy<K, V>>(64, 1));
    out.push_back(std::make_unique<ClockPolicy<K, V>>(64));
    return out;
}

TEST(Policies, FreshInsertThenPeek) {
    for (const auto& p : make_policies()) {
        const auto a = p->access(5, 55, 0);
        EXPECT_FALSE(a.hit) << p->name();
        EXPECT_TRUE(a.inserted) << p->name();
        EXPECT_EQ(p->peek(5), std::optional<V>(55)) << p->name();
    }
}

TEST(Policies, ReadPathHitKeepsStoredValue) {
    for (const auto& p : make_policies()) {
        p->access(5, 55, 0);
        const auto a = p->access(5, 999, 1);
        EXPECT_TRUE(a.hit) << p->name();
        EXPECT_EQ(a.value, 55u) << p->name();
        EXPECT_EQ(p->peek(5), std::optional<V>(55)) << p->name();
    }
}

TEST(Policies, WritePathHitReplacesByDefault) {
    for (const auto& p : make_policies()) {
        p->access(5, 55, 0);
        const auto a = p->fill(5, 999, 1);
        EXPECT_TRUE(a.hit) << p->name();
        EXPECT_EQ(p->peek(5), std::optional<V>(999)) << p->name();
    }
}

TEST(Policies, ForEachEnumeratesExactlyTheCachedEntries) {
    for (const auto& p : make_policies()) {
        for (K k = 1; k <= 10; ++k) p->access(k, k * 10, k);
        std::set<K> seen;
        p->for_each([&](const K& k, const V& v) {
            EXPECT_EQ(v, k * 10ull) << p->name();
            EXPECT_TRUE(seen.insert(k).second) << p->name();
        });
        for (const K k : seen) {
            EXPECT_TRUE(p->peek(k).has_value()) << p->name();
        }
        EXPECT_GE(seen.size(), 1u) << p->name();
    }
}

TEST(Policies, CapacityEntriesNormalization) {
    EXPECT_EQ((P4lruArrayPolicy<K, V, 3>(66, 1).capacity_entries()), 66u);
    EXPECT_EQ((P4lruArrayPolicy<K, V, 2>(64, 1).capacity_entries()), 64u);
    EXPECT_EQ((P4lruArrayPolicy<K, V, 1>(64, 1).capacity_entries()), 64u);
    EXPECT_EQ((TimeoutPolicy<K, V>(64, 1, 10).capacity_entries()), 64u);
    EXPECT_EQ((IdealLruPolicy<K, V>(64).capacity_entries()), 64u);
}

TEST(TimeoutPolicy, RetainsOccupantUntilExpiry) {
    // Two keys forced into the same bucket: a 1-entry table.
    TimeoutPolicy<K, V> p(1, 1, TimeNs{100});
    p.access(1, 10, 0);
    const auto blocked = p.access(2, 20, 50);  // not expired
    EXPECT_FALSE(blocked.hit);
    EXPECT_FALSE(blocked.inserted);
    EXPECT_EQ(p.peek(1), std::optional<V>(10));
    const auto replaced = p.access(2, 20, 200);  // expired
    EXPECT_TRUE(replaced.inserted);
    EXPECT_TRUE(replaced.evicted);
    EXPECT_EQ(replaced.evicted_key, 1u);
    EXPECT_FALSE(p.peek(1).has_value());
}

TEST(TimeoutPolicy, HitRefreshesTimestamp) {
    TimeoutPolicy<K, V> p(1, 1, TimeNs{100});
    p.access(1, 10, 0);
    p.access(1, 10, 90);                        // refresh at t=90
    const auto blocked = p.access(2, 20, 150);  // only 60 since refresh
    EXPECT_FALSE(blocked.inserted);
    EXPECT_TRUE(p.access(2, 20, 191).inserted);  // 101 since refresh
}

TEST(ElasticPolicy, EvictsAfterLambdaVotes) {
    ElasticPolicy<K, V> p(1, 1, /*lambda=*/4);
    p.access(1, 10, 0);      // resident, positive = 1
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(p.access(2, 20, 0).inserted);  // negative 1..3
    }
    EXPECT_TRUE(p.access(2, 20, 0).inserted);  // negative = 4 >= 4*1
    EXPECT_EQ(p.peek(2), std::optional<V>(20));
}

TEST(ElasticPolicy, FrequentResidentIsHardToOust) {
    ElasticPolicy<K, V> p(1, 1, 4);
    for (int i = 0; i < 10; ++i) p.access(1, 10, 0);  // positive = 10
    for (int i = 0; i < 39; ++i) {
        EXPECT_FALSE(p.access(2, 20, 0).inserted) << i;
    }
    EXPECT_TRUE(p.access(2, 20, 0).inserted);  // 40 >= 4*10
}

TEST(CocoPolicy, ReplacementProbabilityDecaysWithCount) {
    // Statistics over many independent buckets: after the resident has
    // count c, a challenger wins with probability ~1/(c+1).
    std::size_t wins = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        CocoPolicy<K, V> p(1, static_cast<std::uint32_t>(t));
        for (int i = 0; i < 9; ++i) p.access(1, 10, 0);  // count = 9
        if (p.access(2, 20, 0).inserted) ++wins;
    }
    const double rate = static_cast<double>(wins) / trials;
    EXPECT_NEAR(rate, 0.1, 0.03);  // 1/(9+1)
}

TEST(IdealLruPolicy, EvictsExactlyTheLeastRecent) {
    IdealLruPolicy<K, V> p(3);
    p.access(1, 1, 0);
    p.access(2, 2, 0);
    p.access(3, 3, 0);
    p.access(1, 1, 0);  // order: 1 3 2
    const auto a = p.access(4, 4, 0);
    EXPECT_TRUE(a.evicted);
    EXPECT_EQ(a.evicted_key, 2u);
}

TEST(LfuPolicy, FrequencyShieldsResident) {
    LfuPolicy<K, V> p(1, 1);
    for (int i = 0; i < 5; ++i) p.access(1, 10, 0);  // freq = 5
    for (int i = 0; i < 4; ++i) {
        EXPECT_FALSE(p.access(2, 20, 0).inserted);
    }
    EXPECT_TRUE(p.access(2, 20, 0).inserted);  // freq decayed to 0
}

TEST(ClockPolicy, SecondChanceProtectsReferencedEntries) {
    ClockPolicy<K, V> p(2);
    p.access(1, 10, 0);
    p.access(2, 20, 0);
    p.access(1, 10, 0);  // re-reference 1
    const auto a = p.access(3, 30, 0);
    EXPECT_TRUE(a.evicted);
    // Entry 1 was referenced, so the hand clears it and takes 2 instead.
    EXPECT_EQ(a.evicted_key, 2u);
    EXPECT_TRUE(p.peek(1).has_value());
}

TEST(Policies, P4lru3ArrayEvictsWithinBucketLru) {
    P4lruArrayPolicy<K, V, 3> p(3, 1);  // exactly 1 unit
    p.access(1, 1, 0);
    p.access(2, 2, 0);
    p.access(3, 3, 0);
    p.access(1, 1, 0);
    const auto a = p.fill(4, 4, 0);
    EXPECT_TRUE(a.evicted);
    EXPECT_EQ(a.evicted_key, 2u);
}

/// P4LRU_n's array policy, n = 1..4, at 240 entries.
PolicyPtr make_array_policy(std::size_t n) {
    switch (n) {
        case 1: return std::make_unique<P4lruArrayPolicy<K, V, 1>>(240, 5);
        case 2: return std::make_unique<P4lruArrayPolicy<K, V, 2>>(240, 5);
        case 3: return std::make_unique<P4lruArrayPolicy<K, V, 3>>(240, 5);
        default: return std::make_unique<P4lru4ArrayPolicy<K, V>>(240, 5);
    }
}

/// P4LRU1-4 snapshot their planes: a fresh policy restored from save_state
/// continues with the original's Access stream, and an image of the wrong
/// size is refused.
TEST(Policies, ArraySaveLoadRoundTrip) {
    const auto keys = testutil::random_keys(20'000, 3000, 11, 0.35);
    const auto image = [](const Access<K, V>& a) {
        return std::tuple(a.hit, a.inserted, a.evicted, a.evicted_key,
                          a.evicted_value, a.value);
    };
    for (std::size_t n = 1; n <= 4; ++n) {
        const auto original = make_array_policy(n);
        for (std::size_t i = 0; i < keys.size() / 2; ++i) {
            original->fill(keys[i], keys[i] * 7ull + i, 0);
        }
        std::vector<std::byte> state;
        ASSERT_TRUE(original->save_state(state)) << original->name();

        const auto restored = make_array_policy(n);
        ASSERT_TRUE(restored->load_state(state)) << original->name();
        for (std::size_t i = keys.size() / 2; i < keys.size(); ++i) {
            const V v = keys[i] * 7ull + i;
            if (i % 3 == 0) {
                ASSERT_EQ(image(restored->access(keys[i], v, 0)),
                          image(original->access(keys[i], v, 0)))
                    << original->name() << " op " << i;
            } else {
                ASSERT_EQ(image(restored->fill(keys[i], v, 0)),
                          image(original->fill(keys[i], v, 0)))
                    << original->name() << " op " << i;
            }
        }

        state.pop_back();
        EXPECT_FALSE(make_array_policy(n)->load_state(state))
            << original->name();
    }
}

TEST(Policies, OnlyArrayPoliciesSnapshot) {
    for (const auto& p : make_policies()) {
        const bool array = p->name().starts_with("P4LRU");
        std::vector<std::byte> state;
        EXPECT_EQ(p->save_state(state), array) << p->name();
        EXPECT_EQ(state.empty(), !array) << p->name();
    }
}

// Hit-rate ordering on a bursty skewed stream at equal memory: ideal LRU >=
// P4LRU3 >= P4LRU1. (P4LRU2/3 bucket locality always beats single-entry
// buckets; ideal is the upper bound.)
TEST(Policies, HitRateOrderingOnBurstyStream) {
    const auto keys = testutil::random_keys(60'000, 3000, 5, 0.35);
    const auto run = [&](ReplacementPolicy<K, V>& p) {
        std::size_t hits = 0;
        TimeNs now = 0;
        for (const auto k : keys) {
            hits += p.access(k, k, now).hit ? 1 : 0;
            now += 100;
        }
        return static_cast<double>(hits) / keys.size();
    };
    P4lruArrayPolicy<K, V, 1> p1(1024, 3);
    P4lruArrayPolicy<K, V, 3> p3(1024, 3);
    IdealLruPolicy<K, V> ideal(1024);
    const double h1 = run(p1);
    const double h3 = run(p3);
    const double hi = run(ideal);
    EXPECT_GT(h3, h1);
    EXPECT_GE(hi, h3 - 0.01);
}

}  // namespace
}  // namespace p4lru::cache
