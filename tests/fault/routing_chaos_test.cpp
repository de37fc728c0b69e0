// Chaos coverage for claim-based routing: in threaded replay any thread may
// route a published block, so a worker that parks or sleeps while later
// blocks are still unrouted must not hold routing up.  The other workers
// and the dispatcher route those blocks, the dispatcher takes over the
// parked shard's runs in block order, and statistics and final state stay
// bit-identical to sequential replay — for the bare P4LRU3 array and all
// three system targets, with and without a checkpoint cut landing in the
// stall.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "p4lru/systems/lruindex/lruindex_target.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"
#include "p4lru/systems/lrutable/lrutable_target.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/ycsb.hpp"

#include "../checkpoint_util.hpp"

namespace p4lru::replay {
namespace {

constexpr std::size_t kBlockOps = 64;

using FlowCache =
    core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                        std::uint32_t>;

/// The bare array: CacheReplayTarget is a view, so the cache lives here.
struct OwnedArray {
    FlowCache cache{1024, 0xC7};
    CacheReplayTarget<FlowCache, FlowKey, std::uint32_t> view{cache};
};

CacheReplayTarget<FlowCache, FlowKey, std::uint32_t>& target_of(
    OwnedArray& a) {
    return a.view;
}
template <typename T>
T& target_of(T& t) {
    return t;
}

std::vector<PacketRecord> packets() {
    trace::TraceConfig cfg;
    cfg.seed = 23;
    cfg.total_packets = 30'000;
    cfg.segments = 4;
    return trace::generate_trace(cfg);
}

auto make_array() { return std::make_unique<OwnedArray>(); }

auto make_lrutable() {
    using namespace systems::lrutable;
    return std::make_unique<LruTableTarget>(
        6,
        [](std::size_t p) {
            return std::make_unique<cache::P4lruArrayPolicy<
                VirtualAddress, std::uint32_t, 3>>(
                120, static_cast<std::uint32_t>(0xAB + p * 0x5bd1u));
        },
        LruTableConfig{});
}

auto make_lrumon() {
    using namespace systems::lrumon;
    LruMonConfig cfg;
    cfg.threshold = 400;
    return std::make_unique<LruMonTarget>(
        8,
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
}

const systems::lruindex::DbServer& db_server() {
    static const systems::lruindex::DbServer server(
        20'000, systems::lruindex::ServerCosts{});
    return server;
}

auto make_lruindex() {
    systems::lruindex::LruIndexTarget::Config cfg;
    cfg.partitions = 5;
    cfg.levels = 3;
    cfg.units_per_level = 24;
    return std::make_unique<systems::lruindex::LruIndexTarget>(db_server(),
                                                               cfg);
}

std::vector<systems::lruindex::LruIndexOp> index_ops() {
    trace::YcsbConfig cfg;
    cfg.items = 20'000;
    cfg.zipf_alpha = 0.9;
    return systems::lruindex::make_index_ops(cfg, 20'000);
}

/// Small blocks and a small ring so the stall quickly leaves published,
/// unrouted blocks behind it, and a fast watchdog.
ShardedConfig chaos_config(obs::Registry& reg) {
    ShardedConfig cfg;
    cfg.shards = 3;
    cfg.batch_ops = kBlockOps;
    cfg.queue_batches = 8;
    cfg.mode = Mode::kThreaded;
    cfg.robust.push_deadline_us = 100;
    cfg.robust.stall_timeout_us = 2'000;
    cfg.metrics = &reg;
    return cfg;
}

/// Every block is routed exactly once: one route-time sample per block.
void expect_every_block_routed(const obs::Registry& reg, std::size_t ops) {
    const auto snap = reg.snapshot();
    const auto* route = snap.histogram("replay_block_route_ns");
    ASSERT_NE(route, nullptr);
    EXPECT_EQ(route->count, (ops + kBlockOps - 1) / kBlockOps);
}

/// Worker 1 parks before block 2 and worker 0 sleeps 20 ms before its run
/// of block 1, so later blocks pile up unrouted while two of the three
/// workers are out.  With `cut`, a checkpoint every 3 blocks lands in the
/// stall; the first cut is resumed on a fresh target.
template <typename Make, typename Op>
void check_stalled_routing(Make make, const std::vector<Op>& ops, bool cut) {
    auto seq_holder = make();
    auto& seq_target = target_of(*seq_holder);
    SpanOpSource seq_source(ops);
    const auto seq =
        replay_target_sequential_stream(seq_target, seq_source).value();
    const auto seq_state = testutil::state_bytes(seq_target);
    using Stats = std::remove_cvref_t<decltype(seq)>;

    fault::FaultPlan plan;
    plan.stall_worker(/*shard=*/1, /*at_batch=*/2);
    plan.delay_batch(/*shard=*/0, /*at_batch=*/1, /*micros=*/20'000);
    const fault::InjectedFaults faults(plan);

    obs::Registry reg;
    const ShardedConfig cfg = chaos_config(reg);
    auto holder = make();
    auto& target = target_of(*holder);
    std::vector<TargetCheckpoint<Stats>> cps;
    SpanOpSource source(ops);
    const auto rep =
        (cut ? replay_target_checkpointed_stream(
                   target, source, cfg, /*every_batches=*/3,
                   [&](TargetCheckpoint<Stats>&& cp) {
                       cps.push_back(std::move(cp));
                   },
                   faults)
             : replay_target_sharded_stream(target, source, cfg, faults))
            .value();

    EXPECT_EQ(rep.stats, seq) << "stalled run must stay bit-identical";
    EXPECT_EQ(testutil::state_bytes(target), seq_state);
    EXPECT_GE(rep.drained_inline, 1u) << "parked shard never taken over";
    expect_every_block_routed(reg, ops.size());
    if (!cut) return;

    ASSERT_FALSE(cps.empty());
    for (const auto& cp : cps) {
        EXPECT_EQ(cp.stats.ops, cp.cursor) << "cut is not an op prefix";
    }
    // The first cut waits on the parked worker, so it carries the takeover.
    const auto& first = cps.front();
    EXPECT_EQ(first.cursor, 3 * kBlockOps);
    EXPECT_GE(first.drained_inline, 1u);

    auto resumed_holder = make();
    auto& resumed = target_of(*resumed_holder);
    obs::Registry resume_reg;
    SpanOpSource resume_source(ops);
    const auto res = resume_target_sharded_stream(
        resumed, resume_source, first, chaos_config(resume_reg));
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    EXPECT_EQ(res.value().stats, seq) << "resume from the mid-stall cut";
    EXPECT_EQ(testutil::state_bytes(resumed), seq_state);
}

TEST(RoutingChaos, ArrayStalledWorkerLeavesBlocksUnrouted) {
    const auto ops = ops_from_packets(packets());
    check_stalled_routing(make_array, ops, false);
}

TEST(RoutingChaos, ArrayStalledWorkerWithCheckpointCut) {
    const auto ops = ops_from_packets(packets());
    check_stalled_routing(make_array, ops, true);
}

TEST(RoutingChaos, LruTableStalledWorkerLeavesBlocksUnrouted) {
    check_stalled_routing(make_lrutable, packets(), false);
}

TEST(RoutingChaos, LruTableStalledWorkerWithCheckpointCut) {
    check_stalled_routing(make_lrutable, packets(), true);
}

TEST(RoutingChaos, LruMonStalledWorkerLeavesBlocksUnrouted) {
    check_stalled_routing(make_lrumon, packets(), false);
}

TEST(RoutingChaos, LruMonStalledWorkerWithCheckpointCut) {
    check_stalled_routing(make_lrumon, packets(), true);
}

TEST(RoutingChaos, LruIndexStalledWorkerLeavesBlocksUnrouted) {
    check_stalled_routing(make_lruindex, index_ops(), false);
}

TEST(RoutingChaos, LruIndexStalledWorkerWithCheckpointCut) {
    check_stalled_routing(make_lruindex, index_ops(), true);
}

// Every worker parks before it routes anything: the dispatcher alone must
// route every block and apply every shard, in block order.
TEST(RoutingChaos, DispatcherRoutesEverythingWhenAllWorkersPark) {
    const auto ops = ops_from_packets(packets());
    OwnedArray seq;
    SpanOpSource seq_source(ops);
    const auto want =
        replay_target_sequential_stream(seq.view, seq_source).value();

    fault::FaultPlan plan;
    for (std::uint32_t s = 0; s < 3; ++s) plan.stall_worker(s, 0);
    const fault::InjectedFaults faults(plan);
    obs::Registry reg;
    OwnedArray run;
    SpanOpSource source(ops);
    const auto rep =
        replay_target_sharded_stream(run.view, source, chaos_config(reg),
                                     faults)
            .value();

    EXPECT_EQ(rep.stats, want);
    EXPECT_EQ(testutil::state_bytes(run.view), testutil::state_bytes(seq.view));
    EXPECT_EQ(rep.drained_inline, 3u);
    expect_every_block_routed(reg, ops.size());
    const auto snap = reg.snapshot();
    const std::uint64_t* by_dispatcher =
        snap.counter("replay_blocks_routed_by_dispatcher");
    ASSERT_NE(by_dispatcher, nullptr);
    EXPECT_EQ(*by_dispatcher, (ops.size() + kBlockOps - 1) / kBlockOps);
}

}  // namespace
}  // namespace p4lru::replay
