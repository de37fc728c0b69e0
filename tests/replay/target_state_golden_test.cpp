// Golden save_state() digests for every replay target.
//
// Each target — the bare P4LRU3 array on the SoA slab (CacheReplayTarget)
// and the three paper systems at G = 4 partitions — replays one fixed
// stream sequentially from a freshly constructed instance, and its full
// snapshot image folds into one 64-bit FNV-1a digest.  The image covers
// every byte a checkpoint would carry: the slab's initial planes (including
// the padded key lanes no op writes), the per-partition policy framing of
// LruMon/LruTable, sketch rows, analyzer tables and pending fills.  The
// expected values were captured while the slab still had a deferred-init
// constructor and each system target framed its policy records itself; any
// refactor of construction, storage or image framing must land on the same
// bits.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/core/parallel_array.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/replay_target.hpp"
#include "p4lru/systems/lruindex/lruindex_target.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"
#include "p4lru/systems/lrutable/lrutable_target.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/ycsb.hpp"

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

/// Replay `ops` sequentially into `target`, then digest its image.
template <typename Target, typename Op>
std::uint64_t image_digest(Target& target, const std::vector<Op>& ops) {
    replay::SpanOpSource source(ops);
    EXPECT_TRUE(replay::replay_target_sequential_stream(target, source).is_ok());
    std::vector<std::byte> image;
    target.save_state(image);
    EXPECT_FALSE(image.empty());
    return fnv1a(image);
}

const std::vector<PacketRecord>& packets() {
    static const std::vector<PacketRecord> trace = [] {
        trace::TraceConfig cfg;
        cfg.seed = 0x601DE;
        cfg.total_packets = 20'000;
        cfg.segments = 4;
        return trace::generate_trace(cfg);
    }();
    return trace;
}

TEST(TargetStateGolden, CacheReplayTargetSoaP4lru3) {
    using Cache = core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>,
                                      FlowKey, std::uint32_t>;
    static_assert(Cache::storage_type::layout_id() == core::kSoaLayoutId);
    Cache cache(512, 0x601D);
    replay::CacheReplayTarget target(cache);
    const auto ops = replay::ops_from_packets(packets());
    EXPECT_EQ(image_digest(target, ops), 0x218ed12c5693dac0ull);
}

TEST(TargetStateGolden, LruTableTarget) {
    using namespace systems::lrutable;
    LruTableTarget target(
        kPartitions,
        [](std::size_t p) {
            return std::make_unique<
                cache::P4lruArrayPolicy<VirtualAddress, std::uint32_t, 3>>(
                120, static_cast<std::uint32_t>(0xAB + p * 0x5bd1u));
        },
        LruTableConfig{});
    EXPECT_EQ(image_digest(target, packets()), 0x9321bfbe9aca6ba3ull);
}

TEST(TargetStateGolden, LruMonTarget) {
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
    EXPECT_EQ(image_digest(target, packets()), 0x5f2e040c82601781ull);
}

TEST(TargetStateGolden, LruIndexTarget) {
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
    ycsb.seed = 0x601DE;
    const auto ops = make_index_ops(ycsb, 20'000);
    EXPECT_EQ(image_digest(target, ops), 0xb5fb93967303b67aull);
}

}  // namespace
}  // namespace p4lru
