// Golden digests of the sealed P4LRUTGC file for every replay target.
//
// Each target — the bare P4LRU3 array on the SoA slab (CacheReplayTarget)
// and the three paper systems at G = 4 partitions — replays one fixed
// stream sequentially from a freshly constructed instance.  Its end state
// is then sealed the way the durable path seals a final cut,
// serialize_target_checkpoint(take_target_checkpoint(target, cut)), and
// installed through a DurableStore; the generation file is read back and
// folded into one 64-bit FNV-1a digest.  The digest covers every byte on
// disk: header, statistics records, state image and seal footer.  The
// expected values were captured when the state was still copied into a
// buffer, sealed by a second copy and written with one write(2); sealing
// from the live planes and writing them with writev must land on the same
// bytes.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/core/parallel_array.hpp"
#include "p4lru/replay/durable_store.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "p4lru/systems/lruindex/lruindex_target.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"
#include "p4lru/systems/lrutable/lrutable_target.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/ycsb.hpp"

#include "../test_util.hpp"

namespace p4lru {
namespace {

constexpr std::size_t kPartitions = 4;  // G

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const std::byte b : bytes) {
        h ^= std::to_integer<std::uint64_t>(b);
        h *= 0x100000001B3ull;
    }
    return h;
}

/// Replay `ops` sequentially into `target`, install the final seal into a
/// fresh store, and digest the generation file.
template <typename Target, typename Op>
std::uint64_t sealed_digest(Target& target, const std::vector<Op>& ops) {
    using Stats = typename Target::Stats;
    replay::SpanOpSource source(ops);
    const auto run = replay::replay_target_sequential_stream(target, source);
    EXPECT_TRUE(run.is_ok());
    if (!run.is_ok()) return 0;
    const Stats stats = run.value();
    replay::BasicCheckpointCut<Stats> cut;
    cut.cursor = stats.ops;
    cut.stats = stats;
    cut.shard_stats = std::span<const Stats>(&stats, 1);
    cut.shards = 1;

    testutil::ScopedTempDir tmp{"p4lru_sealed_golden"};
    replay::DurableStore store(tmp.file("store"),
                               {.retain = 1, .sync = false});
    const auto gen = store.install(replay::serialize_target_checkpoint(
        replay::take_target_checkpoint(target, cut)));
    EXPECT_TRUE(gen.is_ok()) << gen.status().to_string();
    if (!gen.is_ok()) return 0;
    const auto bytes = replay::read_file_bytes(gen.value().path);
    EXPECT_TRUE(bytes.is_ok());
    if (!bytes.is_ok()) return 0;
    EXPECT_TRUE(
        replay::verify_checkpoint_image(bytes.value(), "golden").is_ok());
    return fnv1a(bytes.value());
}

const std::vector<PacketRecord>& packets() {
    static const std::vector<PacketRecord> trace = [] {
        trace::TraceConfig cfg;
        cfg.seed = 0x5EA1;
        cfg.total_packets = 20'000;
        cfg.segments = 4;
        return trace::generate_trace(cfg);
    }();
    return trace;
}

TEST(SealedImageGolden, CacheReplayTargetSoaP4lru3) {
    using Cache = core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>,
                                      FlowKey, std::uint32_t>;
    static_assert(Cache::storage_type::layout_id() == core::kSoaLayoutId);
    Cache cache(512, 0x5EA1);
    replay::CacheReplayTarget target(cache);
    const auto ops = replay::ops_from_packets(packets());
    EXPECT_EQ(sealed_digest(target, ops), 0xae4b2694290518cbull);
}

TEST(SealedImageGolden, LruTableTarget) {
    using namespace systems::lrutable;
    LruTableTarget target(
        kPartitions,
        [](std::size_t p) {
            return std::make_unique<
                cache::P4lruArrayPolicy<VirtualAddress, std::uint32_t, 3>>(
                120, static_cast<std::uint32_t>(0xAB + p * 0x5bd1u));
        },
        LruTableConfig{});
    EXPECT_EQ(sealed_digest(target, packets()), 0xf9bb9baff11b1f58ull);
}

TEST(SealedImageGolden, LruMonTarget) {
    using namespace systems::lrumon;
    LruMonConfig cfg;
    cfg.threshold = 400;
    LruMonTarget target(
        kPartitions,
        [](std::size_t p) {
            FilterConfig fc;
            fc.cm_width = 1u << 12;
            fc.cm_depth = 2;
            fc.seed = 0x70EEE + p;
            return make_filter(FilterKind::kCm, fc);
        },
        [](std::size_t p) {
            return std::make_unique<cache::P4lruArrayPolicy<
                std::uint32_t, FlowLen, 3, core::AddMerge>>(
                96, static_cast<std::uint32_t>(0xF11 + p * 0x9E37u));
        },
        cfg);
    EXPECT_EQ(sealed_digest(target, packets()), 0x726e7753bbf6ee6dull);
}

TEST(SealedImageGolden, LruIndexTarget) {
    using namespace systems::lruindex;
    const DbServer server(20'000, ServerCosts{});
    LruIndexTarget::Config cfg;
    cfg.partitions = kPartitions;
    cfg.levels = 3;
    cfg.units_per_level = 24;
    LruIndexTarget target(server, cfg);
    trace::YcsbConfig ycsb;
    ycsb.items = 20'000;
    ycsb.zipf_alpha = 0.9;
    ycsb.seed = 0x5EA1;
    const auto ops = make_index_ops(ycsb, 20'000);
    EXPECT_EQ(sealed_digest(target, ops), 0x1f4cedcd2e55a816ull);
}

}  // namespace
}  // namespace p4lru
