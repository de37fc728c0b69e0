#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "p4lru/common/byte_io.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/driver.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"
#include "p4lru/systems/lruindex/lruindex_target.hpp"

#include "../checkpoint_util.hpp"

namespace p4lru::systems::lruindex {
namespace {

ServerCosts quick_costs() {
    ServerCosts c;
    return c;
}

TEST(DbServer, RejectsZeroItems) {
    EXPECT_THROW(DbServer(0, quick_costs()), std::invalid_argument);
}

TEST(DbServer, IndexLookupFindsEveryKey) {
    DbServer server(5'000, quick_costs());
    for (DbKey k = 0; k < 5'000; k += 97) {
        const auto r = server.serve(k, CacheHeader{});
        EXPECT_TRUE(r.valid) << k;
        EXPECT_TRUE(r.used_index) << k;
        EXPECT_EQ(r.addr, server.address_of(k)) << k;
    }
}

TEST(DbServer, MissingKeyIsInvalid) {
    DbServer server(100, quick_costs());
    const auto r = server.serve(100, CacheHeader{});
    EXPECT_FALSE(r.valid);
    EXPECT_EQ(r.record, nullptr);
}

TEST(DbServer, CachedHeaderBypassesIndex) {
    DbServer server(1'000, quick_costs());
    CacheHeader hdr;
    hdr.cached_flag = 1;
    hdr.cached_index = server.address_of(42);
    const auto r = server.serve(42, hdr);
    EXPECT_TRUE(r.valid);
    EXPECT_FALSE(r.used_index);
    EXPECT_EQ(r.lock_time, 0u);
    // Bypass is strictly cheaper than the index walk.
    const auto walk = server.serve(42, CacheHeader{});
    EXPECT_LT(r.service_time, walk.service_time + walk.lock_time);
}

TEST(DbServer, BypassReturnsTheSameRecord) {
    DbServer server(1'000, quick_costs());
    CacheHeader hdr;
    hdr.cached_flag = 2;
    hdr.cached_index = server.address_of(7);
    const auto direct = server.serve(7, hdr);
    const auto indexed = server.serve(7, CacheHeader{});
    ASSERT_NE(direct.record, nullptr);
    ASSERT_NE(indexed.record, nullptr);
    EXPECT_EQ(*direct.record, *indexed.record);
}

TEST(DbServer, AddressOfMatchesTheTreeWalk) {
    for (const std::uint64_t items : {1u, 63u, 1'987u, 20'000u}) {
        DbServer server(items, quick_costs());
        for (DbKey k = 0; k < items; ++k) {
            const auto walk = server.serve(k, CacheHeader{});
            ASSERT_TRUE(walk.used_index);
            ASSERT_TRUE(walk.valid) << items << " " << k;
            ASSERT_EQ(server.address_of(k), walk.addr) << items << " " << k;
        }
        for (const DbKey k : {DbKey{items}, DbKey{items + 1}}) {
            EXPECT_EQ(server.address_of(k), index::kNullRecord);
            EXPECT_FALSE(server.serve(k, CacheHeader{}).valid);
        }
    }
}

TEST(DbServer, IndexHeightGolden) {
    // Heights of the insert-built tree this server used to walk, at the
    // item counts the benches (at P4LRU_SCALE 1 and 0.05), the example, the
    // CLI and perfbench load. service_time charges per level.
    const std::pair<std::uint64_t, std::size_t> golden[] = {
        {2'500, 3},   {5'000, 3},   {10'000, 3},  {20'000, 3},
        {50'000, 3},  {100'000, 4}, {200'000, 4}, {400'000, 4},
        {1'000'000, 4},
    };
    for (const auto& [items, height] : golden) {
        EXPECT_EQ(DbServer(items, quick_costs()).index_height(), height)
            << items;
    }
}

TEST(DbServer, StaleCachedIndexFallsBackToIndex) {
    DbServer server(100, quick_costs());
    CacheHeader hdr;
    hdr.cached_flag = 1;
    hdr.cached_index = 0xDEAD00;  // not a valid record address
    const auto r = server.serve(5, hdr);
    EXPECT_TRUE(r.used_index);
    EXPECT_TRUE(r.valid);
}

/// The state image LruIndexTarget::save_state writes for one partition
/// holding `cache`.
std::vector<std::byte> one_partition_state(const SeriesIndexCache& cache) {
    std::vector<std::byte> out;
    io::ByteWriter w(out);
    w.u64(1);
    w.u64(cache.series().level_count());
    for (std::size_t i = 0; i < cache.series().level_count(); ++i) {
        const std::vector<std::byte> planes =
            testutil::plane_bytes(cache.series().level(i).storage());
        w.u64(planes.size());
        w.bytes(planes.data(), planes.size());
    }
    return out;
}

TEST(LruIndexTarget, CachedAddressOfAnotherRecordIsAWrongReply) {
    const DbServer server(1'000, quick_costs());
    LruIndexTarget::Config cfg;
    cfg.partitions = 1;
    cfg.levels = 2;
    cfg.units_per_level = 16;
    std::vector<LruIndexOp> ops;
    for (DbKey k = 0; k < 8; ++k) ops.push_back(LruIndexOp{k, k});

    const auto run = [&](LruIndexTarget& target) {
        replay::SpanOpSource<LruIndexOp> source(ops);
        return replay::replay_target_sequential_stream(target, source)
            .value();
    };

    // The partition's cache, built as the target builds partition 0, with
    // every key's slot pointing at the next key's record: a valid address
    // the server serves without a tree walk, but the wrong one.
    SeriesIndexCache poisoned(cfg.levels, cfg.units_per_level, cfg.seed);
    for (DbKey k = 0; k < 8; ++k) {
        poisoned.reply(k, server.address_of(k + 1), CacheHeader{}, 0);
    }
    LruIndexTarget target(server, cfg);
    ASSERT_TRUE(target.load_state(one_partition_state(poisoned)));
    const auto stats = run(target);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.wrong_replies, 0u);

    // The same replay over an honest cache counts none.
    LruIndexTarget clean(server, cfg);
    EXPECT_EQ(run(clean).wrong_replies, 0u);
}

TEST(SeriesIndexCache, QueryReplyProtocol) {
    SeriesIndexCache cache(4, 64, 0x11);
    EXPECT_FALSE(cache.query(9).hit());
    cache.reply(9, 0x40, CacheHeader{}, 0);
    const auto hdr = cache.query(9);
    EXPECT_TRUE(hdr.hit());
    EXPECT_EQ(hdr.cached_flag, 1u);
    EXPECT_EQ(hdr.cached_index, 0x40u);
    // Promote path must not crash or duplicate.
    cache.reply(9, 0x40, hdr, 0);
    EXPECT_TRUE(cache.series().duplicate_free(9));
}

TEST(Driver, RejectsBadConfig) {
    DbServer server(100, quick_costs());
    DriverConfig cfg;
    NaiveIndexCache cache;
    cfg.threads = 0;
    EXPECT_THROW(run_driver(cfg, server, cache), std::invalid_argument);
}

DriverConfig small_driver(std::size_t threads, std::size_t queries,
                          std::uint64_t items) {
    DriverConfig cfg;
    cfg.threads = threads;
    cfg.queries = queries;
    cfg.workload.items = items;
    cfg.workload.seed = 5;
    return cfg;
}

TEST(Driver, CompletesAllQueriesCorrectly) {
    DbServer server(10'000, quick_costs());
    SeriesIndexCache cache(4, 256, 0x21);
    const auto r = run_driver(small_driver(4, 5'000, 10'000), server, cache);
    EXPECT_EQ(r.queries, 5'000u);
    EXPECT_EQ(r.wrong_replies, 0u);
    EXPECT_GT(r.throughput_ktps, 0.0);
    EXPECT_GT(r.miss_rate, 0.0);
    EXPECT_LT(r.miss_rate, 1.0);
}

TEST(Driver, CacheBeatsNaiveThroughput) {
    DbServer server(50'000, quick_costs());
    SeriesIndexCache cache(4, 1u << 10, 0x31);
    auto cfg = small_driver(8, 20'000, 50'000);
    const auto cached = run_driver(cfg, server, cache);
    NaiveIndexCache no_cache;
    const auto naive = run_driver(cfg, server, no_cache);
    EXPECT_GT(cached.throughput_ktps, naive.throughput_ktps);
    EXPECT_LT(cached.avg_latency_us, naive.avg_latency_us);
}

TEST(Driver, ThroughputScalesWithThreads) {
    DbServer server(20'000, quick_costs());
    const auto at = [&](std::size_t threads) {
        SeriesIndexCache cache(2, 512, 0x41);
        return run_driver(small_driver(threads, 10'000, 20'000), server, cache)
            .throughput_ktps;
    };
    const double t1 = at(1);
    const double t4 = at(4);
    const double t8 = at(8);
    EXPECT_GT(t4, 2.0 * t1);
    EXPECT_GT(t8, t4);
    EXPECT_LT(t8, 9.0 * t1);  // sublinear due to the index latch
}

TEST(Driver, SkewMakesCachingEffective) {
    DbServer server(100'000, quick_costs());
    SeriesIndexCache cache(4, 1u << 10, 0x51);
    auto cfg = small_driver(4, 20'000, 100'000);
    cfg.workload.zipf_alpha = 0.99;
    const auto skewed = run_driver(cfg, server, cache);
    // Cache entries = 4 * 1024 * 3 = 12288 of 100k items, but the hot keys
    // dominate: miss rate must be far below the uniform expectation.
    EXPECT_LT(skewed.miss_rate, 0.75);
}

TEST(Driver, SeriesCacheStaysDuplicateFreeUnderLoad) {
    DbServer server(5'000, quick_costs());
    SeriesIndexCache cache(3, 128, 0x61);
    run_driver(small_driver(4, 10'000, 5'000), server, cache);
    for (DbKey k = 0; k < 5'000; k += 13) {
        ASSERT_TRUE(cache.series().duplicate_free(k)) << k;
    }
}

TEST(PolicyIndexCache, RunsTheProtocolThroughAnyPolicy) {
    DbServer server(5'000, quick_costs());
    auto cache = std::make_unique<PolicyIndexCache>(
        std::make_unique<cache::IdealLruPolicy<DbKey,
                                               index::RecordAddress>>(2048));
    const auto r = run_driver(small_driver(2, 5'000, 5'000), server, *cache);
    EXPECT_EQ(r.wrong_replies, 0u);
    EXPECT_LT(r.miss_rate, 1.0);
}

}  // namespace
}  // namespace p4lru::systems::lruindex
