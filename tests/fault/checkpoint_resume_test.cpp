// Checkpoint/resume: killing a replay at an arbitrary cursor and resuming
// from the snapshot — on a fresh cache object — must reproduce the exact
// final statistics and cache contents of the uninterrupted run
// (kill-and-resume at 3 random cursors, bit-identical stats).  The array
// checkpoints as a CacheReplayTarget, like every other replay target.
#include "p4lru/replay/target_checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "p4lru/common/random.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "../checkpoint_util.hpp"

namespace p4lru::replay {
namespace {

using FlowCache =
    core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                        std::uint32_t>;
using AosFlowCache =
    core::AosParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                           std::uint32_t>;
template <typename Cache>
using FlowTarget = CacheReplayTarget<Cache, FlowKey, std::uint32_t>;
using testutil::cache_sequential;
using testutil::resume_sequential;
using testutil::sequential_checkpoint;

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
    cfg.seed = 55;
    cfg.total_packets = 50'000;
    return ops_from_packets(trace::generate_trace(cfg));
}

using Ops = std::span<const ReplayOp<FlowKey, std::uint32_t>>;

/// Kill-and-resume at `cursor`: replay [0, cursor) on one cache, snapshot,
/// restore the snapshot into a *fresh* cache (simulated process restart),
/// replay the rest there, and compare against the uninterrupted run.
template <typename Cache>
void kill_and_resume_at(const std::vector<ReplayOp<FlowKey, std::uint32_t>>&
                            ops,
                        std::size_t cursor) {
    Cache full(1024, 0x17);
    const auto ref = cache_sequential(full, Ops(ops));

    Cache first(1024, 0x17);
    const auto head = cache_sequential(first, Ops(ops).subspan(0, cursor));
    const auto cp =
        sequential_checkpoint(FlowTarget<Cache>(first), cursor, head);

    Cache resumed(1024, 0x17);  // fresh object: nothing carried over
    FlowTarget<Cache> target(resumed);
    const auto r = resume_sequential(target, Ops(ops), cp);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value(), ref) << "cursor " << cursor;
    expect_same_contents(full, resumed);
}

TEST(CheckpointResume, ThreeRandomCursorsSoaLayout) {
    const auto ops = zipf_ops();
    rng::SplitMix64 rng(0xC4E);
    for (int i = 0; i < 3; ++i) {
        const auto cursor =
            static_cast<std::size_t>(rng.next() % ops.size());
        kill_and_resume_at<FlowCache>(ops, cursor);
    }
}

TEST(CheckpointResume, ThreeRandomCursorsAosLayout) {
    const auto ops = zipf_ops();
    rng::SplitMix64 rng(0xA05);
    for (int i = 0; i < 3; ++i) {
        const auto cursor =
            static_cast<std::size_t>(rng.next() % ops.size());
        kill_and_resume_at<AosFlowCache>(ops, cursor);
    }
}

TEST(CheckpointResume, BoundaryCursors) {
    const auto ops = zipf_ops();
    kill_and_resume_at<FlowCache>(ops, 0);           // nothing replayed yet
    kill_and_resume_at<FlowCache>(ops, ops.size());  // everything replayed
}

TEST(CheckpointResume, CheckpointedRunEmitsSnapshotsAndMatches) {
    const auto ops = zipf_ops();
    FlowCache plain(512, 0x31);
    const auto ref = cache_sequential(plain, Ops(ops));

    // A sequential cadence of 10'000 ops: one inline shard, 2'500-op
    // blocks, a checkpoint every 4 blocks.
    FlowCache cache(512, 0x31);
    FlowTarget<FlowCache> target(cache);
    std::vector<TargetCheckpoint<ReplayStats>> cps;
    SpanOpSource source{Ops(ops)};
    const auto rep = replay_target_checkpointed_stream(
        target, source, testutil::sequential_config(2'500),
        /*every_batches=*/4,
        [&](TargetCheckpoint<ReplayStats>&& cp) {
            cps.push_back(std::move(cp));
        });
    ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
    EXPECT_EQ(rep.value().stats, ref);
    ASSERT_EQ(cps.size(), (ops.size() - 1) / 10'000);
    // Every emitted checkpoint is a valid resume point.
    for (const auto& cp : cps) {
        EXPECT_EQ(cp.cursor % 10'000, 0u);
        FlowCache resumed(512, 0x31);
        FlowTarget<FlowCache> resumed_target(resumed);
        const auto r = resume_sequential(resumed_target, Ops(ops), cp);
        ASSERT_TRUE(r.is_ok());
        EXPECT_EQ(r.value(), ref) << "cursor " << cp.cursor;
        expect_same_contents(plain, resumed);
    }
}

TEST(CheckpointResume, RejectsShapeMismatchWithTypedError) {
    const auto ops = zipf_ops();
    FlowCache small(256, 0x17);
    const auto cp =
        sequential_checkpoint(FlowTarget<FlowCache>(small), 0, ReplayStats{});

    FlowCache big(1024, 0x17);
    FlowTarget<FlowCache> target(big);
    const auto r = resume_sequential(target, Ops(ops), cp);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidState);
}

TEST(CheckpointResume, RejectsCursorBeyondStream) {
    const auto ops = zipf_ops();
    FlowCache cache(256, 0x17);
    FlowTarget<FlowCache> target(cache);
    auto cp = sequential_checkpoint(target, 0, ReplayStats{});
    cp.cursor = ops.size() + 1;
    const auto r = resume_sequential(target, Ops(ops), cp);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidState);
}

TEST(CheckpointResume, RejectsForgedEqualSizeCrossLayoutImage) {
    // The pre-tag guards were unit count + plane byte size only: an AoS
    // checkpoint whose plane image happens (or is forged) to match the SoA
    // plane size sailed through both and was silently reinterpreted.  The
    // state id (the storage layout id) + geometry fingerprint must refuse
    // it before any plane byte is looked at.
    const auto ops = zipf_ops();
    AosFlowCache aos(1024, 0x17);
    auto cp =
        sequential_checkpoint(FlowTarget<AosFlowCache>(aos), 0, ReplayStats{});

    FlowCache soa(1024, 0x17);
    cp.state.resize(
        testutil::plane_bytes(soa.storage()).size());  // defeat the size guard

    FlowTarget<FlowCache> target(soa);
    const auto r = resume_sequential(target, Ops(ops), cp);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidState);
    EXPECT_NE(r.status().message().find("state id"), std::string::npos)
        << "rejection must name the layout (state id) mismatch, got: "
        << r.status().to_string();
}

TEST(CheckpointResume, RejectsCrossLayoutPlaneImage) {
    // An AoS plane image restored into the slab layout must be refused
    // (by the state id guard, with load_planes' size check behind it)
    // rather than reinterpreted.
    const auto ops = zipf_ops();
    AosFlowCache aos(1024, 0x17);
    const auto cp =
        sequential_checkpoint(FlowTarget<AosFlowCache>(aos), 0, ReplayStats{});

    FlowCache soa(1024, 0x17);
    FlowTarget<FlowCache> target(soa);
    const auto r = resume_sequential(target, Ops(ops), cp);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidState);
}

}  // namespace
}  // namespace p4lru::replay
