// LruIndex has one per-query protocol (QueryStep).  The closed-loop driver
// with one client thread serialises every query's phases, so it must agree
// exactly with a one-partition LruIndexTarget replaying the same queries:
// every counter equal and every series level's planes byte-equal, clean
// and against a flaky server that makes some queries give up.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/driver.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"
#include "p4lru/systems/lruindex/lruindex_target.hpp"

#include "../checkpoint_util.hpp"

namespace p4lru::systems::lruindex {
namespace {

void expect_one_protocol(const fault::FlakyService* flaky) {
    constexpr std::size_t kLevels = 4;
    constexpr std::size_t kUnits = 256;
    constexpr std::uint32_t kSeed = 0x21;
    DbServer server(10'000, ServerCosts{});

    DriverConfig dcfg;
    dcfg.threads = 1;
    dcfg.queries = 20'000;
    dcfg.workload.items = 10'000;
    dcfg.workload.seed = 5;
    dcfg.flaky = flaky;
    dcfg.retry.max_attempts = 3;
    SeriesIndexCache cache(kLevels, kUnits, kSeed);
    const DriverReport d = run_driver(dcfg, server, cache);

    LruIndexTarget::Config tcfg;
    tcfg.partitions = 1;
    tcfg.levels = kLevels;
    tcfg.units_per_level = kUnits;
    tcfg.seed = kSeed;
    tcfg.flaky = flaky;
    tcfg.retry = dcfg.retry;
    LruIndexTarget target(server, tcfg);
    const auto ops = make_index_ops(dcfg.workload, dcfg.queries);
    replay::SpanOpSource<LruIndexOp> source(ops);
    const LruIndexReport t = target.report(
        replay::replay_target_sequential_stream(target, source).value());

    EXPECT_EQ(d.queries, t.queries);
    EXPECT_EQ(d.cache_hits, t.cache_hits);
    EXPECT_EQ(d.misses, t.misses);
    EXPECT_EQ(d.miss_rate, t.miss_rate);
    EXPECT_EQ(d.retries, t.retries);
    EXPECT_EQ(d.failed_queries, t.failed_queries);
    EXPECT_EQ(d.wrong_replies, 0u);
    EXPECT_EQ(t.wrong_replies, 0u);
    if (flaky != nullptr) {
        EXPECT_GT(d.retries, 0u);
        EXPECT_GT(d.failed_queries, 0u);
    }

    const auto& replayed = target.partition(0).series();
    ASSERT_EQ(cache.series().level_count(), replayed.level_count());
    for (std::size_t i = 0; i < replayed.level_count(); ++i) {
        EXPECT_EQ(testutil::plane_bytes(cache.series().level(i).storage()),
                  testutil::plane_bytes(replayed.level(i).storage()))
            << "level " << i;
    }
}

TEST(LruIndexProtocol, OneClientDriverEqualsOnePartitionTarget) {
    expect_one_protocol(nullptr);
    const fault::FlakyService flaky(13, 10, 5);
    expect_one_protocol(&flaky);
}

}  // namespace
}  // namespace p4lru::systems::lruindex
