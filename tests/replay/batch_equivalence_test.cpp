// Property suite for the batched update path: update_routed_batch (and
// everything layered on it — the one-shard inline engine, the checkpointed
// inline replay, and the sharded engine's routed batches) must emit a
// bit-identical UpdateResult stream to per-op update on the same input.
// Batching hoists only prefetching; per-op application order is untouched,
// so this is checkable result-for-result, on both storage layouts, under
// Zipf and YCSB traffic, with checkpoints cut mid-stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/ycsb.hpp"
#include "../checkpoint_util.hpp"
#include "../test_util.hpp"

namespace p4lru::replay {
namespace {

using FlowCache =
    core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                        std::uint32_t>;
using AosFlowCache =
    core::AosParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                           std::uint32_t>;
using KeyCache =
    core::ParallelCache<core::P4lru<std::uint64_t, std::uint64_t, 3>,
                        std::uint64_t, std::uint64_t>;
using AosKeyCache =
    core::AosParallelCache<core::P4lru<std::uint64_t, std::uint64_t, 3>,
                           std::uint64_t, std::uint64_t>;

std::vector<ReplayOp<FlowKey, std::uint32_t>> zipf_ops() {
    trace::TraceConfig cfg;
    cfg.seed = 77;
    cfg.total_packets = 120'000;
    cfg.segments = 4;
    return ops_from_packets(trace::generate_trace(cfg));
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

/// Field-by-field image of an UpdateResult, comparable across runs.
template <typename Key, typename Value>
struct ResultImage {
    bool hit;
    std::size_t hit_pos;
    bool evicted;
    Key evicted_key;
    Value evicted_value;

    explicit ResultImage(const core::UpdateResult<Key, Value>& r)
        : hit(r.hit),
          hit_pos(r.hit_pos),
          evicted(r.evicted),
          evicted_key(r.evicted_key),
          evicted_value(r.evicted_value) {}

    friend bool operator==(const ResultImage&, const ResultImage&) = default;
};

/// The property itself: per-op update vs update_routed_batch over the same
/// ops, each routed with bucket(), on fresh caches of the same seed —
/// identical result streams, identical final contents.
template <typename Cache, typename Key, typename Value>
void check_batch_stream(std::span<const ReplayOp<Key, Value>> ops,
                        std::size_t units, std::uint32_t seed) {
    using Image = ResultImage<Key, Value>;
    Cache per_op(units, seed);
    std::vector<Image> ref;
    ref.reserve(ops.size());
    for (const auto& op : ops) {
        ref.emplace_back(per_op.update(op.key, op.value));
    }

    Cache batched(units, seed);
    std::vector<detail::RoutedOp<Key, Value>> routed;
    routed.reserve(ops.size());
    for (const auto& op : ops) {
        routed.push_back({static_cast<std::uint32_t>(batched.bucket(op.key)),
                          op.key, op.value});
    }
    std::vector<Image> got;
    got.reserve(ops.size());
    std::size_t expect_i = 0;
    batched.update_routed_batch(
        std::span<const detail::RoutedOp<Key, Value>>(routed),
        [&](std::size_t i, std::size_t b,
            const core::UpdateResult<Key, Value>& r) {
            EXPECT_EQ(i, expect_i++);  // sink fires per op, in op order
            EXPECT_EQ(b, routed[i].bucket);
            got.emplace_back(r);
        });
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_TRUE(got == ref);
    expect_same_contents(per_op, batched);
}

TEST(BatchEquivalence, ZipfResultStreamIsBitIdenticalSoa) {
    const auto ops = zipf_ops();
    check_batch_stream<FlowCache, FlowKey, std::uint32_t>(ops, 4096, 0xE1);
}

TEST(BatchEquivalence, ZipfResultStreamIsBitIdenticalAos) {
    const auto ops = zipf_ops();
    check_batch_stream<AosFlowCache, FlowKey, std::uint32_t>(ops, 4096,
                                                             0xE1);
}

TEST(BatchEquivalence, YcsbResultStreamIsBitIdenticalSoa) {
    const auto ops = ycsb_ops();
    check_batch_stream<KeyCache, std::uint64_t, std::uint64_t>(ops, 2048,
                                                               0xF1);
}

TEST(BatchEquivalence, YcsbResultStreamIsBitIdenticalAos) {
    const auto ops = ycsb_ops();
    check_batch_stream<AosKeyCache, std::uint64_t, std::uint64_t>(ops, 2048,
                                                                  0xF1);
}

/// The one-shard inline engine (route and prefetch a block, then apply it
/// through the routed-batch path) against plain per-op cache.update.
TEST(BatchEquivalence, SequentialBatchedMatchesSequential) {
    const auto ops = zipf_ops();
    FlowCache a(4096, 0xE1);
    ReplayStats per_op;
    for (const auto& op : ops) per_op.tally(a.update(op.key, op.value));

    FlowCache b(4096, 0xE1);
    const auto rep =
        testutil::cache_sharded(b, ops, testutil::sequential_config());
    EXPECT_FALSE(rep.threaded);
    EXPECT_EQ(rep.stats, per_op);
    expect_same_contents(a, b);
}

/// Checkpoints cut mid-batch-stream: the batched checkpointed replay (one
/// inline shard, a checkpoint every `every_batches` blocks of `batch_ops`)
/// must emit snapshots at exactly the per-op cursors, with bit-identical
/// stats and plane images — for cadences of one block and of several.
TEST(BatchEquivalence, CheckpointsMidStreamAreBitIdentical) {
    using Target = CacheReplayTarget<FlowCache>;
    using Checkpoint = TargetCheckpoint<ReplayStats>;
    const auto ops = zipf_ops();
    const std::span<const ReplayOp<FlowKey, std::uint32_t>> span(ops);
    struct Cadence {
        std::size_t batch_ops;
        std::uint64_t every_batches;
    };
    for (const Cadence c : {Cadence{259, 3}, Cadence{2'500, 4},
                            Cadence{256, 1}}) {
        const std::uint64_t every = c.batch_ops * c.every_batches;
        // Per-op reference: manual loop with a checkpoint on cadence.
        FlowCache ref_cache(1024, 0xCC);
        Target ref_target(ref_cache);
        std::vector<Checkpoint> ref;
        ReplayStats ref_stats;
        std::uint64_t cursor = 0;
        for (const auto& op : ops) {
            ref_stats.tally(ref_cache.update(op.key, op.value));
            ++cursor;
            if (cursor % every == 0 && cursor < ops.size()) {
                ref.push_back(testutil::sequential_checkpoint(
                    ref_target, cursor, ref_stats));
            }
        }

        FlowCache cache(1024, 0xCC);
        Target target(cache);
        std::vector<Checkpoint> got;
        SpanOpSource source(ops);
        const auto rep = replay_target_checkpointed_stream(
            target, source, testutil::sequential_config(c.batch_ops),
            c.every_batches,
            [&](Checkpoint&& cp) { got.push_back(std::move(cp)); });
        ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
        EXPECT_EQ(rep.value().stats, ref_stats) << "every=" << every;
        ASSERT_EQ(got.size(), ref.size()) << "every=" << every;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].cursor, ref[i].cursor);
            EXPECT_EQ(got[i].stats, ref[i].stats);
            EXPECT_EQ(got[i].state, ref[i].state) << "checkpoint " << i;
        }
        expect_same_contents(ref_cache, cache);

        // And every emitted checkpoint resumes to the uninterrupted end
        // state (the resume suffix also runs batched).
        if (!got.empty()) {
            FlowCache resumed(1024, 0xCC);
            Target resumed_target(resumed);
            const auto r =
                testutil::resume_sequential(resumed_target, span, got.back());
            ASSERT_TRUE(r.is_ok());
            EXPECT_EQ(r.value(), ref_stats);
            expect_same_contents(ref_cache, resumed);
        }
    }
}

/// Every scan kernel this CPU offers, forced for a whole replay: the inline
/// and threaded engines must land on the dispatched kernel's statistics and
/// unit contents (the kernels are bit-equivalent; only speed may move).
TEST(BatchEquivalence, ForcedKernelReplayMatchesDispatched) {
    const auto ops = zipf_ops();
    ShardedConfig threaded;
    threaded.shards = 4;
    threaded.mode = Mode::kThreaded;
    core::simd::clear_kernel_override();
    for (const ShardedConfig& cfg :
         {testutil::sequential_config(), threaded}) {
        FlowCache dispatched(4096, 0xE1);
        const auto ref = testutil::cache_sharded(dispatched, ops, cfg);
        for (const core::simd::ScanKernel k : testutil::available_kernels()) {
            ASSERT_TRUE(core::simd::set_kernel_override(k));
            FlowCache cache(4096, 0xE1);
            const auto rep = testutil::cache_sharded(cache, ops, cfg);
            core::simd::clear_kernel_override();
            EXPECT_EQ(rep.stats, ref.stats) << core::simd::kernel_name(k);
            expect_same_contents(dispatched, cache);
        }
    }
}

}  // namespace
}  // namespace p4lru::replay
