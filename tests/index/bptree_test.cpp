// The library's read-only FlatBPlusTree and the insert-built oracle it is
// checked against (bptree_oracle.hpp). Cases that build from a sorted load
// run on both trees; cases that need inserts run on the oracle.
#include "p4lru/index/flat_bptree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "bptree_oracle.hpp"
#include "p4lru/common/random.hpp"

namespace p4lru::index {
namespace {

using oracle::BPlusTree;

/// Flat tree over keys 0..n-1 with value f(k).
template <std::size_t Fanout, typename Value, typename Fn>
FlatBPlusTree<std::uint64_t, Value, Fanout> flat_sequential(std::uint64_t n,
                                                            Fn f) {
    std::vector<std::uint64_t> keys(n);
    std::vector<Value> values(n);
    for (std::uint64_t k = 0; k < n; ++k) {
        keys[k] = k;
        values[k] = f(k);
    }
    return {std::move(keys), std::move(values)};
}

TEST(BPlusTree, EmptyTreeFindsNothing) {
    BPlusTree<std::uint64_t, int> t;
    EXPECT_FALSE(t.find(1).value.has_value());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.height(), 1u);
    EXPECT_TRUE(t.validate());

    const FlatBPlusTree<std::uint64_t, int> flat;
    EXPECT_FALSE(flat.find(1).value.has_value());
    EXPECT_EQ(flat.find(1).node_hops, 1u);
    EXPECT_EQ(flat.size(), 0u);
    EXPECT_EQ(flat.height(), 1u);
}

TEST(BPlusTree, InsertAndFindSequential) {
    BPlusTree<std::uint64_t, std::uint64_t, 8> t;
    for (std::uint64_t k = 0; k < 1000; ++k) t.insert(k, k * 7);
    EXPECT_EQ(t.size(), 1000u);
    EXPECT_TRUE(t.validate());
    const auto flat = flat_sequential<8, std::uint64_t>(
        1000, [](std::uint64_t k) { return k * 7; });
    EXPECT_EQ(flat.size(), 1000u);
    EXPECT_EQ(flat.height(), t.height());
    for (std::uint64_t k = 0; k < 1000; ++k) {
        ASSERT_EQ(t.find(k).value, std::optional<std::uint64_t>(k * 7)) << k;
        ASSERT_EQ(flat.find(k).value, std::optional<std::uint64_t>(k * 7))
            << k;
    }
    EXPECT_FALSE(t.find(1000).value.has_value());
    EXPECT_FALSE(flat.find(1000).value.has_value());
}

TEST(BPlusTree, InsertReverseOrder) {
    BPlusTree<std::uint64_t, int, 8> t;
    for (std::uint64_t k = 500; k > 0; --k) t.insert(k, static_cast<int>(k));
    EXPECT_TRUE(t.validate());
    for (std::uint64_t k = 1; k <= 500; ++k) {
        ASSERT_TRUE(t.find(k).value.has_value()) << k;
    }
}

TEST(BPlusTree, OverwriteKeepsSizeStable) {
    BPlusTree<std::uint64_t, int> t;
    t.insert(5, 1);
    t.insert(5, 2);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.find(5).value, std::optional<int>(2));
}

TEST(BPlusTree, RandomInsertsMatchStdMap) {
    BPlusTree<std::uint64_t, std::uint64_t, 16> t;
    std::map<std::uint64_t, std::uint64_t> ref;
    rng::Xoshiro256 rng(4);
    for (int i = 0; i < 20'000; ++i) {
        const std::uint64_t k = rng.between(0, 5000);
        const std::uint64_t v = rng.next();
        t.insert(k, v);
        ref[k] = v;
    }
    EXPECT_TRUE(t.validate());
    EXPECT_EQ(t.size(), ref.size());
    // The flat tree built from the map's sorted load finds the same values
    // for every present key and nothing for the gaps between them.
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> values;
    for (const auto& [k, v] : ref) {
        keys.push_back(k);
        values.push_back(v);
    }
    const FlatBPlusTree<std::uint64_t, std::uint64_t, 16> flat(
        std::move(keys), std::move(values));
    for (const auto& [k, v] : ref) {
        ASSERT_EQ(t.find(k).value, std::optional<std::uint64_t>(v)) << k;
        ASSERT_EQ(flat.find(k).value, std::optional<std::uint64_t>(v)) << k;
    }
    for (std::uint64_t k = 0; k <= 5001; ++k) {
        ASSERT_EQ(flat.find(k).value.has_value(), ref.contains(k)) << k;
    }
}

TEST(BPlusTree, HeightGrowsLogarithmically) {
    BPlusTree<std::uint64_t, int, 64> t;
    for (std::uint64_t k = 0; k < 100'000; ++k) t.insert(k, 0);
    // Fanout 64 and 1e5 keys: height must be small.
    EXPECT_LE(t.height(), 4u);
    EXPECT_GE(t.height(), 2u);
    const auto flat =
        flat_sequential<64, int>(100'000, [](std::uint64_t) { return 0; });
    EXPECT_EQ(flat.height(), t.height());
}

TEST(BPlusTree, NodeHopsEqualsHeight) {
    BPlusTree<std::uint64_t, int, 8> t;
    for (std::uint64_t k = 0; k < 5000; ++k) t.insert(k, 0);
    const auto fr = t.find(1234);
    EXPECT_EQ(fr.node_hops, t.height());
    const auto flat =
        flat_sequential<8, int>(5000, [](std::uint64_t) { return 0; });
    EXPECT_EQ(flat.find(1234).node_hops, flat.height());
    EXPECT_EQ(flat.find(99'999).node_hops, flat.height());
}

TEST(BPlusTree, ForEachVisitsKeysInOrder) {
    BPlusTree<std::uint64_t, std::uint64_t, 8> t;
    rng::Xoshiro256 rng(8);
    std::map<std::uint64_t, std::uint64_t> ref;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t k = rng.next() % 100'000;
        t.insert(k, k + 1);
        ref[k] = k + 1;
    }
    std::vector<std::uint64_t> visited;
    t.for_each([&](std::uint64_t k, std::uint64_t v) {
        EXPECT_EQ(v, k + 1);
        visited.push_back(k);
    });
    EXPECT_EQ(visited.size(), ref.size());
    EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
}

TEST(BPlusTree, SmallFanoutStressValidates) {
    BPlusTree<std::uint32_t, std::uint32_t, 4> t;  // minimum fanout
    rng::Xoshiro256 rng(5);
    for (int i = 0; i < 5000; ++i) {
        t.insert(static_cast<std::uint32_t>(rng.between(0, 2000)), 1);
        if (i % 500 == 0) ASSERT_TRUE(t.validate()) << "at " << i;
    }
    EXPECT_TRUE(t.validate());
}

TEST(BPlusTree, ContainsConvenience) {
    BPlusTree<std::uint64_t, int> t;
    t.insert(9, 1);
    EXPECT_TRUE(t.contains(9));
    EXPECT_FALSE(t.contains(10));
    const FlatBPlusTree<std::uint64_t, int> flat({9}, {1});
    EXPECT_TRUE(flat.find(9).value.has_value());
    EXPECT_FALSE(flat.find(10).value.has_value());
    EXPECT_FALSE(flat.find(8).value.has_value());
}

}  // namespace
}  // namespace p4lru::index
