// Observability must be free when off and inert when on (ISSUE 9
// acceptance): a sharded replay with a Registry attached must produce a
// ShardedReport bit-identical to the same run without one — instruments
// count, they never steer — and the counts themselves must reconcile with
// the report and the target statistics exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/lruindex_target.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "../checkpoint_util.hpp"

namespace p4lru::replay {
namespace {

using FlowCache =
    core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                        std::uint32_t>;

std::vector<ReplayOp<FlowKey, std::uint32_t>> zipf_ops() {
    trace::TraceConfig cfg;
    cfg.seed = 47;
    cfg.total_packets = 40'000;
    cfg.segments = 4;
    return ops_from_packets(trace::generate_trace(cfg));
}

void check_report_equal(const ShardedReport& a, const ShardedReport& b) {
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.shards, b.shards);
    EXPECT_EQ(a.threaded, b.threaded);
    EXPECT_EQ(a.backpressure_waits, b.backpressure_waits);
    EXPECT_EQ(a.drained_inline, b.drained_inline);
    EXPECT_EQ(a.abandoned_workers, b.abandoned_workers);
}

void check_obs_equivalence(Mode mode) {
    const auto ops = zipf_ops();
    ShardedConfig cfg;
    cfg.shards = 4;
    cfg.batch_ops = 128;
    cfg.mode = mode;

    FlowCache off_cache(1024, 0x91);
    const auto off = testutil::cache_sharded(off_cache, ops, cfg);

    obs::Registry reg;
    cfg.metrics = &reg;
    FlowCache on_cache(1024, 0x91);
    const auto on = testutil::cache_sharded(on_cache, ops, cfg);

    // Obs-on is bit-identical to obs-off: statistics, report shape, and
    // the final plane bytes.
    check_report_equal(on, off);
    EXPECT_EQ(testutil::plane_bytes(off_cache.storage()),
              testutil::plane_bytes(on_cache.storage()));

    // And the instruments reconcile exactly: one batch-apply histogram
    // sample per counted batch, every op accounted for.
    const obs::Snapshot snap = reg.snapshot();
    const std::uint64_t* batches = snap.counter("replay_batches_applied");
    const obs::HistogramSnapshot* lat =
        snap.histogram("replay_batch_apply_ns");
    ASSERT_NE(batches, nullptr);
    ASSERT_NE(lat, nullptr);
    EXPECT_GT(*batches, 0u);
    EXPECT_EQ(lat->count, *batches);
    ASSERT_NE(snap.gauge("replay_shard0_queue_depth"), nullptr)
        << "per-shard depth gauges not registered";

    // Engine stage instruments: every block routed exactly once, by a
    // worker or by the dispatcher while it waited.
    const obs::HistogramSnapshot* route =
        snap.histogram("replay_block_route_ns");
    const std::uint64_t* by_dispatcher =
        snap.counter("replay_blocks_routed_by_dispatcher");
    ASSERT_NE(route, nullptr);
    ASSERT_NE(by_dispatcher, nullptr);
    ASSERT_NE(snap.counter("replay_dispatch_wait_ns"), nullptr);
    if (mode == Mode::kThreaded) {
        const std::uint64_t blocks = (ops.size() + 127) / 128;
        EXPECT_EQ(route->count, blocks);
        EXPECT_LE(*by_dispatcher, blocks);
    }
}

TEST(ObsReplayEquivalence, InlineModeBitIdenticalWithMetricsAttached) {
    check_obs_equivalence(Mode::kInline);
}

TEST(ObsReplayEquivalence, ThreadedModeBitIdenticalWithMetricsAttached) {
    check_obs_equivalence(Mode::kThreaded);
}

// The threaded engine's stage instruments (block routing, dispatcher
// routing, dispatcher waits) count and time; they never steer: obs-on stays
// bit-identical to obs-off on a system target too — statistics and state
// image — and the route samples cover every block exactly once.
TEST(ObsReplayEquivalence, ThreadedStageInstrumentsAreInertOnSystemTarget) {
    using namespace p4lru::systems::lruindex;
    const DbServer server(10'000, ServerCosts{});
    LruIndexTarget::Config tcfg;
    tcfg.partitions = 4;
    tcfg.units_per_level = 32;
    trace::YcsbConfig wl;
    wl.items = 10'000;
    wl.seed = 9;
    const auto ops = make_index_ops(wl, 5'000);
    ShardedConfig cfg;
    cfg.shards = 3;
    cfg.batch_ops = 128;
    cfg.mode = Mode::kThreaded;

    LruIndexTarget off(server, tcfg);
    SpanOpSource off_source(ops);
    const auto r_off =
        replay_target_sharded_stream(off, off_source, cfg).value();
    obs::Registry reg;
    cfg.metrics = &reg;
    LruIndexTarget on(server, tcfg);
    SpanOpSource on_source(ops);
    const auto r_on = replay_target_sharded_stream(on, on_source, cfg).value();
    EXPECT_EQ(r_on.stats, r_off.stats);
    EXPECT_EQ(testutil::state_bytes(on), testutil::state_bytes(off));

    const obs::Snapshot snap = reg.snapshot();
    const obs::HistogramSnapshot* route =
        snap.histogram("replay_block_route_ns");
    ASSERT_NE(route, nullptr);
    EXPECT_EQ(route->count, (ops.size() + 127) / 128);
}

TEST(ObsReplayEquivalence, NullRegistryIsTheDefaultAndHarmless) {
    const auto ops = zipf_ops();
    ShardedConfig cfg;
    cfg.shards = 2;
    cfg.mode = Mode::kInline;
    ASSERT_EQ(cfg.metrics, nullptr) << "obs must be opt-in";
    FlowCache cache(1024, 0x91);
    const auto rep = testutil::cache_sharded(cache, ops, cfg);
    EXPECT_GT(rep.stats.ops, 0u);
}

TEST(ObsReplayEquivalence, LruIndexTargetCountersMatchStatsExactly) {
    using namespace p4lru::systems::lruindex;
    const DbServer server(10'000, ServerCosts{});
    LruIndexTarget::Config tcfg;
    tcfg.partitions = 4;
    tcfg.units_per_level = 32;

    trace::YcsbConfig wl;
    wl.items = 10'000;
    wl.seed = 9;
    const auto ops = make_index_ops(wl, 5'000);

    obs::Registry reg;
    LruIndexTarget target(server, tcfg);
    target.set_metrics(&reg);
    SpanOpSource source(ops);
    const auto stats =
        replay::replay_target_sequential_stream(target, source).value();

    const obs::Snapshot snap = reg.snapshot();
    ASSERT_NE(snap.counter("lruindex_hits"), nullptr);
    ASSERT_NE(snap.counter("lruindex_misses"), nullptr);
    EXPECT_EQ(*snap.counter("lruindex_hits"), stats.hits);
    EXPECT_EQ(*snap.counter("lruindex_misses"), stats.misses);
    EXPECT_EQ(*snap.counter("lruindex_hits") +
                  *snap.counter("lruindex_misses"),
              stats.ops);

    // Detaching stops the flow; the stats themselves are unaffected.
    target.set_metrics(nullptr);
    LruIndexTarget target2(server, tcfg);
    SpanOpSource source2(ops);
    const auto stats2 =
        replay::replay_target_sequential_stream(target2, source2).value();
    EXPECT_EQ(stats2, stats);
    EXPECT_EQ(*reg.snapshot().counter("lruindex_hits"), stats.hits)
        << "detached target kept counting";
}

}  // namespace
}  // namespace p4lru::replay
