// FlatBPlusTree against the insert-built oracle (bptree_oracle.hpp): for
// every item count swept, the flat tree built from the sorted load has the
// height that inserting the same keys in increasing order gives, and every
// lookup returns the same value after the same number of node hops. The
// height feeds the LruIndex server's service_time, so a shape that is off
// by one level at a single item count would move the paper figures.
#include "p4lru/index/flat_bptree.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "bptree_oracle.hpp"

namespace p4lru::index {
namespace {

using Key = std::uint64_t;

Key value_of(Key k) { return (k + 1) * 64; }

template <std::size_t Fanout>
FlatBPlusTree<Key, Key, Fanout> flat_of(Key n) {
    std::vector<Key> keys(n);
    std::vector<Key> values(n);
    for (Key k = 0; k < n; ++k) {
        keys[k] = k;
        values[k] = value_of(k);
    }
    return {std::move(keys), std::move(values)};
}

/// Compare the flat tree over keys 0..n-1 with `ref`, which holds the same
/// keys inserted in increasing order.
template <std::size_t Fanout>
void expect_matches(const oracle::BPlusTree<Key, Key, Fanout>& ref, Key n) {
    ASSERT_EQ(ref.size(), n);
    const auto flat = flat_of<Fanout>(n);
    ASSERT_EQ(flat.height(), ref.height()) << "n=" << n;
    for (Key k = 0; k < n; ++k) {
        const auto got = flat.find(k);
        const auto want = ref.find(k);
        ASSERT_EQ(got.value, want.value) << "n=" << n << " k=" << k;
        ASSERT_EQ(got.node_hops, want.node_hops) << "n=" << n << " k=" << k;
    }
    for (const Key k : {n, n + 1, std::numeric_limits<Key>::max()}) {
        const auto got = flat.find(k);
        ASSERT_FALSE(got.value.has_value()) << "n=" << n << " k=" << k;
        ASSERT_EQ(got.node_hops, ref.find(k).node_hops)
            << "n=" << n << " k=" << k;
    }
}

/// Every n in 1..max_n, growing one oracle by one insert per step.
template <std::size_t Fanout>
void sweep(Key max_n) {
    oracle::BPlusTree<Key, Key, Fanout> ref;
    for (Key n = 1; n <= max_n; ++n) {
        ref.insert(n - 1, value_of(n - 1));
        expect_matches(ref, n);
        if (::testing::Test::HasFatalFailure()) return;
    }
}

TEST(FlatBPlusTree, MatchesInsertBuiltOracleUpTo5000) { sweep<64>(5000); }

TEST(FlatBPlusTree, MatchesInsertBuiltOracleAtServerSizes) {
    // 1987 is the first count where a naive fill (31 keys per leaf, 32
    // children per inner node) comes out one level short.
    oracle::BPlusTree<Key, Key, 64> ref;
    Key inserted = 0;
    for (const Key n : {Key{1987}, Key{10'000}, Key{100'000}, Key{200'000},
                        Key{1'000'000}}) {
        for (; inserted < n; ++inserted) {
            ref.insert(inserted, value_of(inserted));
        }
        expect_matches(ref, n);
        if (HasFatalFailure()) return;
    }
}

TEST(FlatBPlusTree, MatchesInsertBuiltOracleAtSmallFanouts) {
    // Small fanouts reach deep trees at small n, exercising many levels
    // of the shape replay.
    sweep<4>(1500);
    if (HasFatalFailure()) return;
    sweep<5>(1500);
    if (HasFatalFailure()) return;
    sweep<8>(1500);
}

TEST(FlatBPlusTree, RejectsMalformedLoads) {
    using Tree = FlatBPlusTree<Key, Key>;
    EXPECT_THROW(Tree({1, 2}, {1}), std::invalid_argument);
    EXPECT_THROW(Tree({2, 1}, {1, 2}), std::invalid_argument);
    EXPECT_THROW(Tree({1, 1}, {1, 2}), std::invalid_argument);
}

}  // namespace
}  // namespace p4lru::index
