// Equivalence suite for the sharded replay engine: for any shard count and
// either execution mode, sharded replay must produce bit-identical aggregate
// statistics AND a bit-identical final cache state to sequential replay —
// the shard-by-bucket argument (disjoint unit ranges, per-unit arrival
// order preserved) made checkable.
#include "p4lru/replay/replay.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../checkpoint_util.hpp"
#include "../test_util.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/ycsb.hpp"

namespace p4lru::replay {
namespace {

using FlowCache =
    core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                        std::uint32_t>;
using KeyCache =
    core::ParallelCache<core::P4lru<std::uint64_t, std::uint64_t, 3>,
                        std::uint64_t, std::uint64_t>;
// The same caches pinned to the AoS reference layout (cross-layout
// equivalence: the slab and the unit array must agree bit for bit).
using AosFlowCache =
    core::AosParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                           std::uint32_t>;
using AosKeyCache =
    core::AosParallelCache<core::P4lru<std::uint64_t, std::uint64_t, 3>,
                           std::uint64_t, std::uint64_t>;

/// Compare two parallel arrays unit by unit: occupancy, key order (LRU
/// positions) and the value owned by each key.  The two caches may use
/// different storage layouts; only the unit inspection vocabulary is shared.
template <typename CacheA, typename CacheB>
void expect_same_contents(const CacheA& a, const CacheB& b) {
    ASSERT_EQ(a.unit_count(), b.unit_count());
    for (std::size_t u = 0; u < a.unit_count(); ++u) {
        const auto& ua = a.unit(u);
        const auto& ub = b.unit(u);
        ASSERT_EQ(ua.size(), ub.size()) << "unit " << u;
        for (std::size_t i = 1; i <= ua.size(); ++i) {
            EXPECT_EQ(ua.key_at(i), ub.key_at(i)) << "unit " << u;
            EXPECT_EQ(ua.value_at(i), ub.value_at(i)) << "unit " << u;
        }
    }
}

std::vector<ReplayOp<FlowKey, std::uint32_t>> zipf_ops() {
    trace::TraceConfig cfg;
    cfg.seed = 77;
    cfg.total_packets = 120'000;
    cfg.segments = 4;
    const auto trace = trace::generate_trace(cfg);
    return ops_from_packets(trace);
}

std::vector<ReplayOp<std::uint64_t, std::uint64_t>> ycsb_ops() {
    trace::YcsbConfig cfg;
    cfg.seed = 99;
    cfg.items = 200'000;
    cfg.zipf_alpha = 0.9;
    trace::YcsbWorkload wl(cfg);
    std::vector<ReplayOp<std::uint64_t, std::uint64_t>> ops;
    ops.reserve(80'000);
    for (const auto& op : wl.generate(80'000)) {
        ops.push_back({op.key, op.key * 2 + 1});
    }
    return ops;
}

using testutil::cache_sequential;
using testutil::cache_sharded;

class ReplayEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReplayEquivalence, ZipfTraceMatchesSequential) {
    const auto ops = zipf_ops();
    FlowCache seq_cache(4096, 0xE1);
    const auto seq = cache_sequential(seq_cache, ops);

    for (const Mode mode : {Mode::kInline, Mode::kThreaded}) {
        FlowCache cache(4096, 0xE1);
        ShardedConfig cfg;
        cfg.shards = GetParam();
        cfg.mode = mode;
        const auto rep = cache_sharded(cache, ops, cfg);
        EXPECT_EQ(rep.stats, seq);
        EXPECT_EQ(rep.shards, GetParam());
        EXPECT_EQ(cache.size(), seq_cache.size());
        expect_same_contents(seq_cache, cache);
    }
}

TEST_P(ReplayEquivalence, YcsbTraceMatchesSequential) {
    const auto ops = ycsb_ops();
    KeyCache seq_cache(2048, 0xF1);
    const auto seq = cache_sequential(seq_cache, ops);

    for (const Mode mode : {Mode::kInline, Mode::kThreaded}) {
        KeyCache cache(2048, 0xF1);
        ShardedConfig cfg;
        cfg.shards = GetParam();
        cfg.mode = mode;
        const auto rep = cache_sharded(cache, ops, cfg);
        EXPECT_EQ(rep.stats, seq);
        expect_same_contents(seq_cache, cache);
    }
}

TEST_P(ReplayEquivalence, DeterministicAcrossRuns) {
    const auto ops = zipf_ops();
    ShardedConfig cfg;
    cfg.shards = GetParam();
    cfg.mode = Mode::kThreaded;

    FlowCache a(1024, 0xAB);
    FlowCache b(1024, 0xAB);
    const auto ra = cache_sharded(a, ops, cfg);
    const auto rb = cache_sharded(b, ops, cfg);
    EXPECT_EQ(ra.stats, rb.stats);
    expect_same_contents(a, b);
}

INSTANTIATE_TEST_SUITE_P(Shards, ReplayEquivalence,
                         ::testing::Values(1, 2, 8));

/// Cross-layout: a slab cache replayed (sequentially or sharded) must match
/// an AoS reference cache replayed sequentially — same stats, same final
/// contents — on both trace families.
class CrossLayoutEquivalence : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(CrossLayoutEquivalence, ZipfSoaMatchesAosReference) {
    const auto ops = zipf_ops();
    AosFlowCache aos(4096, 0xE1);
    const auto ref = cache_sequential(aos, ops);

    FlowCache soa_seq(4096, 0xE1);
    EXPECT_EQ(cache_sequential(soa_seq, ops),
              ref);
    expect_same_contents(aos, soa_seq);

    for (const Mode mode : {Mode::kInline, Mode::kThreaded}) {
        FlowCache soa(4096, 0xE1);
        ShardedConfig cfg;
        cfg.shards = GetParam();
        cfg.mode = mode;
        const auto rep = cache_sharded(soa, ops, cfg);
        EXPECT_EQ(rep.stats, ref);
        expect_same_contents(aos, soa);
    }
}

TEST_P(CrossLayoutEquivalence, YcsbSoaMatchesAosReference) {
    const auto ops = ycsb_ops();
    AosKeyCache aos(2048, 0xF1);
    const auto ref = cache_sequential(aos, ops);

    for (const Mode mode : {Mode::kInline, Mode::kThreaded}) {
        KeyCache soa(2048, 0xF1);
        ShardedConfig cfg;
        cfg.shards = GetParam();
        cfg.mode = mode;
        const auto rep = cache_sharded(soa, ops, cfg);
        EXPECT_EQ(rep.stats, ref);
        expect_same_contents(aos, soa);
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, CrossLayoutEquivalence,
                         ::testing::Values(1, 2, 8));

TEST(Replay, StatsAreConsistent) {
    const auto ops = zipf_ops();
    FlowCache cache(4096, 0xE1);
    const auto s = cache_sequential(cache, ops);
    EXPECT_EQ(s.ops, ops.size());
    EXPECT_EQ(s.hits + s.misses, s.ops);
    EXPECT_LE(s.evictions, s.misses);
    // Everything still cached arrived via a miss that did not evict.
    EXPECT_EQ(cache.size(), s.misses - s.evictions);
    EXPECT_GT(s.hits, 0u);
    EXPECT_GT(s.evictions, 0u);
}

TEST(Replay, EmptyOpsYieldZeroStats) {
    FlowCache cache(64, 1);
    const std::vector<ReplayOp<FlowKey, std::uint32_t>> none;
    const auto seq = cache_sequential(cache, none);
    EXPECT_EQ(seq, ReplayStats{});
    const auto rep = cache_sharded(cache, none);
    EXPECT_EQ(rep.stats, ReplayStats{});
}

TEST(Replay, ShardCountClampsToUnits) {
    FlowCache cache(2, 5);
    const auto ops = zipf_ops();
    ShardedConfig cfg;
    cfg.shards = 16;  // only 2 units exist
    cfg.mode = Mode::kThreaded;
    const auto rep = cache_sharded(cache, ops, cfg);
    EXPECT_EQ(rep.shards, 2u);
    FlowCache seq_cache(2, 5);
    EXPECT_EQ(rep.stats,
              cache_sequential(seq_cache, ops));
}

/// Concurrency sanity: hammer the threaded engine with more workers than
/// cores and tiny batches (maximal queue churn). Under -fsanitize=thread
/// (P4LRU_SANITIZE=thread) this is the race detector's target.
TEST(ReplayConcurrency, ThreadedSmokeUnderChurn) {
    const auto ops = zipf_ops();
    ReplayStats first{};
    for (int round = 0; round < 3; ++round) {
        FlowCache cache(512, 0x5EED);
        ShardedConfig cfg;
        cfg.shards = 8;
        cfg.batch_ops = 16;     // many small batches
        cfg.queue_batches = 4;  // force producer backpressure
        cfg.mode = Mode::kThreaded;
        const auto rep = cache_sharded(cache, ops, cfg);
        if (round == 0) {
            first = rep.stats;
        } else {
            EXPECT_EQ(rep.stats, first);
        }
    }
}

}  // namespace
}  // namespace p4lru::replay
