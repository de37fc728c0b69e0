// Lifetimes of a sealed checkpoint image (DESIGN.md §11–§12).
//
// take_target_checkpoint returns a TargetSnapshot whose state borrows the
// target's live planes, and serialize_target_checkpoint seals around the
// state without copying it: from an lvalue the image borrows the
// argument, from an rvalue it takes over what the argument owned.  These
// tests seal a replayed target's end state every way a caller can spell
// it — the one-expression form the durable benchmark uses, an owning
// TargetCheckpoint temporary, a kept TargetCheckpoint and a kept snapshot
// — with every temporary destroyed before the install, and require each
// installed generation to be byte-identical and accepted by
// recover_newest.  Under AddressSanitizer a seal that kept a pointer into
// a dead temporary fails here.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/replay/durable_store.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/supervisor.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "p4lru/systems/lruindex/lruindex_target.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"
#include "p4lru/systems/lrutable/lrutable_target.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/ycsb.hpp"

#include "../checkpoint_util.hpp"
#include "../test_util.hpp"

namespace p4lru::replay {
namespace {

const std::vector<PacketRecord>& packets() {
    static const std::vector<PacketRecord> trace = [] {
        trace::TraceConfig cfg;
        cfg.seed = 0x11FE;
        cfg.total_packets = 8'000;
        cfg.segments = 2;
        return trace::generate_trace(cfg);
    }();
    return trace;
}

/// Replay `ops` into `target`, then install its end state four ways and
/// recover each generation.
template <typename Target, typename Op>
void seal_every_way(Target& target, const std::vector<Op>& ops) {
    using Stats = typename Target::Stats;
    SpanOpSource source(ops);
    const auto run = replay_target_sequential_stream(target, source);
    ASSERT_TRUE(run.is_ok());
    const Stats stats = run.value();
    BasicCheckpointCut<Stats> cut;
    cut.cursor = stats.ops;
    cut.stats = stats;
    cut.shard_stats = std::span<const Stats>(&stats, 1);
    cut.shards = 1;

    testutil::ScopedTempDir tmp{"p4lru_lifetime"};
    DurableStore store(tmp.file("store"), {.retain = 8, .sync = false});
    std::vector<GenerationInfo> gens;
    const auto install = [&](const SerializedCheckpoint& image) {
        const auto gen = store.install(image);
        ASSERT_TRUE(gen.is_ok()) << gen.status().to_string();
        gens.push_back(gen.value());
    };
    {  // The durable benchmark's expression: the snapshot is a temporary.
        const auto image =
            serialize_target_checkpoint(take_target_checkpoint(target, cut));
        install(image);
    }
    {  // An owning temporary: the image takes over its state buffer.
        const auto image = serialize_target_checkpoint(
            TargetCheckpoint<Stats>(take_target_checkpoint(target, cut)));
        install(image);
    }
    {  // A kept owning checkpoint: the image borrows it.
        const TargetCheckpoint<Stats> kept =
            take_target_checkpoint(target, cut);
        const auto image = serialize_target_checkpoint(kept);
        install(image);
    }
    {  // A kept snapshot: the image borrows it and, through it, the target.
        const auto kept = take_target_checkpoint(target, cut);
        const auto image = serialize_target_checkpoint(kept);
        install(image);
    }
    ASSERT_EQ(gens.size(), 4u);

    const auto first = read_file_bytes(gens.front().path);
    ASSERT_TRUE(first.is_ok());
    for (const auto& g : gens) {
        const auto bytes = read_file_bytes(g.path);
        ASSERT_TRUE(bytes.is_ok());
        EXPECT_EQ(bytes.value(), first.value()) << g.path;
    }

    const std::vector<std::byte> state = testutil::state_bytes(target);
    const auto n = static_cast<std::size_t>(stats.ops);
    const auto parse = [&](const std::vector<std::byte>& image,
                           const std::string& origin)
        -> Expected<TargetCheckpoint<Stats>> {
        auto cp = parse_target_checkpoint<Stats>(image, origin);
        if (!cp.is_ok()) return cp;
        if (Status st = validate_target_checkpoint(target, n, cp.value());
            !st.is_ok()) {
            return st;
        }
        return cp;
    };
    for (std::size_t k = gens.size(); k > 0; --k) {
        const auto rec = store.recover_newest(parse);
        ASSERT_TRUE(rec.found);
        EXPECT_EQ(rec.gen.seq, gens[k - 1].seq);
        EXPECT_TRUE(rec.rejected.empty());
        EXPECT_EQ(rec.checkpoint.cursor, stats.ops);
        EXPECT_EQ(rec.checkpoint.stats, stats);
        EXPECT_EQ(rec.checkpoint.state, state);
        std::filesystem::remove(gens[k - 1].path);  // next one down
    }
}

TEST(CheckpointLifetime, CacheReplayTargetEverySealInstalls) {
    using Cache = core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>,
                                      FlowKey, std::uint32_t>;
    Cache cache(256, 0x11FE);
    CacheReplayTarget target(cache);
    seal_every_way(target, ops_from_packets(packets()));
}

TEST(CheckpointLifetime, AosCacheReplayTargetEverySealInstalls) {
    using Cache =
        core::AosParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>,
                               FlowKey, std::uint32_t>;
    Cache cache(256, 0x11FE);
    CacheReplayTarget target(cache);
    seal_every_way(target, ops_from_packets(packets()));
}

TEST(CheckpointLifetime, LruTableTargetEverySealInstalls) {
    using namespace systems::lrutable;
    LruTableTarget target(
        3,
        [](std::size_t p) {
            return std::make_unique<
                cache::P4lruArrayPolicy<VirtualAddress, std::uint32_t, 3>>(
                96, static_cast<std::uint32_t>(0x7A + p));
        },
        LruTableConfig{});
    seal_every_way(target, packets());
}

TEST(CheckpointLifetime, LruMonTargetEverySealInstalls) {
    using namespace systems::lrumon;
    LruMonConfig cfg;
    cfg.threshold = 300;
    LruMonTarget target(
        3,
        [](std::size_t p) {
            FilterConfig fc;
            fc.cm_width = 1u << 10;
            fc.cm_depth = 2;
            fc.seed = 0x70EEE + p;
            return make_filter(FilterKind::kCm, fc);
        },
        [](std::size_t p) {
            return std::make_unique<cache::P4lruArrayPolicy<
                std::uint32_t, FlowLen, 3, core::AddMerge>>(
                96, static_cast<std::uint32_t>(0xF11 + p));
        },
        cfg);
    seal_every_way(target, packets());
}

TEST(CheckpointLifetime, LruIndexTargetEverySealInstalls) {
    using namespace systems::lruindex;
    const DbServer server(5'000, ServerCosts{});
    LruIndexTarget::Config cfg;
    cfg.partitions = 3;
    cfg.levels = 3;
    cfg.units_per_level = 16;
    LruIndexTarget target(server, cfg);
    trace::YcsbConfig ycsb;
    ycsb.items = 5'000;
    ycsb.zipf_alpha = 0.9;
    ycsb.seed = 0x11FE;
    seal_every_way(target, make_index_ops(ycsb, 6'000));
}

/// The supervisor's store sink takes the cut's snapshot itself and seals
/// from the live planes; every sink that keeps checkpoints gets an owning
/// copy whose state outlives the target's further applies.
TEST(CheckpointLifetime, KeptCheckpointsOwnTheirStateAcrossLaterApplies) {
    using Cache = core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>,
                                      FlowKey, std::uint32_t>;
    static_assert(detail::SnapshotSink<detail::CrashingStoreSink<ReplayStats>>);
    const auto ops = ops_from_packets(packets());
    Cache cache(256, 0x11FE);
    CacheReplayTarget target(cache);
    SpanOpSource source(ops);
    std::vector<TargetCheckpoint<ReplayStats>> kept;
    const auto rep = replay_target_checkpointed_stream(
        target, source, testutil::sequential_config(1'000), 2,
        [&](TargetCheckpoint<ReplayStats>&& cp) {
            kept.push_back(std::move(cp));
        });
    ASSERT_TRUE(rep.is_ok());
    ASSERT_GE(kept.size(), 2u);
    // Each kept state is its own cut's, not the target's final planes.
    for (const auto& cp : kept) {
        Cache fresh(256, 0x11FE);
        CacheReplayTarget prefix(fresh);
        SpanOpSource head{std::span<const ReplayOp<FlowKey, std::uint32_t>>(
            ops.data(), cp.cursor)};
        ASSERT_TRUE(replay_target_sequential_stream(prefix, head).is_ok());
        EXPECT_EQ(cp.state, testutil::state_bytes(prefix))
            << "cut at " << cp.cursor;
    }
}

}  // namespace
}  // namespace p4lru::replay
