// Crash-recovery supervisor acceptance (DESIGN.md §12, ISSUE 8): a
// checkpointed replay driven through the DurableStore survives a
// deterministic crash at EVERY fault::CrashPoint — and a multi-crash
// gauntlet — finishing with statistics and a canonical state image
// bit-identical to an uninterrupted run.  Proven for both cache storage
// layouts (SoA and AoS ParallelCache behind CacheReplayTarget) and for a
// real system target (LruMon), plus the cold-start, warm-store and
// attempt-exhaustion edges.
#include "p4lru/replay/supervisor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "../test_util.hpp"
#include "../checkpoint_util.hpp"

namespace p4lru::replay {
namespace {

using SoaCache =
    core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                        std::uint32_t>;
using AosCache =
    core::AosParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                           std::uint32_t>;

std::vector<PacketRecord> small_trace(std::uint64_t seed,
                                      std::size_t packets = 12'000) {
    trace::TraceConfig cfg;
    cfg.seed = seed;
    cfg.total_packets = packets;
    cfg.segments = 3;
    return trace::generate_trace(cfg);
}

systems::lrumon::LruMonTarget make_lrumon() {
    using namespace systems::lrumon;
    LruMonConfig cfg;
    cfg.threshold = 300;
    return LruMonTarget(
        6,
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
                64, static_cast<std::uint32_t>(0xF11 + p * 0x9E37u));
        },
        cfg);
}

ShardedConfig engine_config(Mode mode) {
    ShardedConfig cfg;
    cfg.shards = 3;
    cfg.batch_ops = 64;
    cfg.mode = mode;
    return cfg;
}

/// The generic acceptance check: run `ops` uninterrupted for the reference,
/// then supervised under `plan`; the supervised run must succeed, survive
/// exactly `plan`'s crashes, and land on bit-identical stats + state.
template <typename Make, typename Op>
void check_supervised(Make make, const std::vector<Op>& ops, Mode mode,
                      const fault::FaultPlan& plan,
                      std::size_t expect_crashes) {
    using Target = decltype(make());
    auto ref = make();
    SpanOpSource source(ops);
    const auto seq = replay_target_sequential_stream(ref, source).value();
    const auto ref_state = testutil::state_bytes(ref);
    ASSERT_FALSE(ref_state.empty());

    testutil::ScopedTempDir tmp{"p4lru_sup"};
    DurableStore store(tmp.file("store"), {.retain = 3, .sync = false});
    std::deque<Target> lives;  // keep every attempt's target alive
    auto factory = [&]() -> Target& {
        lives.push_back(make());
        return lives.back();
    };
    SupervisorConfig sup;
    sup.every_batches = 4;
    sup.max_attempts = expect_crashes + 2;
    const auto sv = run_supervised_stream(factory, source,
                                          engine_config(mode), store, sup,
                                          plan);
    ASSERT_TRUE(sv.is_ok()) << sv.status().to_string();
    EXPECT_EQ(sv.value().report.stats, seq) << "supervised stats diverged";
    EXPECT_EQ(sv.value().crashes, expect_crashes);
    EXPECT_EQ(sv.value().attempts, expect_crashes + 1)
        << "every crash costs exactly one extra attempt";
    EXPECT_EQ(testutil::state_bytes(lives.back()), ref_state)
        << "supervised state image diverged";
    if (expect_crashes > 0) {
        EXPECT_GT(sv.value().resumed_from_gen, 0u)
            << "recovery must restore a generation, not cold-start";
        EXPECT_GT(sv.value().backoff_us, 0u);
    }
}

// ---------------------------------------------------------------------------
// Crash-point sweep: each CrashPoint, alone, through all three targets.

class SupervisorCrashPointSweep
    : public ::testing::TestWithParam<fault::CrashPoint> {};

TEST_P(SupervisorCrashPointSweep, SoaCacheRecoversBitIdentical) {
    const auto ops = ops_from_packets(small_trace(41));
    std::deque<SoaCache> caches;
    const auto make = [&caches] {
        caches.emplace_back(256, 0x5C);
        return CacheReplayTarget<SoaCache, FlowKey, std::uint32_t>(
            caches.back());
    };
    fault::FaultPlan plan;
    plan.crash(2, GetParam(), /*section=*/1);
    check_supervised(make, ops, Mode::kThreaded, plan, 1);
}

TEST_P(SupervisorCrashPointSweep, AosCacheRecoversBitIdentical) {
    const auto ops = ops_from_packets(small_trace(42));
    std::deque<AosCache> caches;
    const auto make = [&caches] {
        caches.emplace_back(256, 0x5C);
        return CacheReplayTarget<AosCache, FlowKey, std::uint32_t>(
            caches.back());
    };
    fault::FaultPlan plan;
    plan.crash(2, GetParam(), /*section=*/2);
    check_supervised(make, ops, Mode::kInline, plan, 1);
}

TEST_P(SupervisorCrashPointSweep, LruMonSystemRecoversBitIdentical) {
    const auto ops = small_trace(43);
    fault::FaultPlan plan;
    plan.crash(2, GetParam(), /*section=*/0);
    check_supervised([] { return make_lrumon(); }, ops, Mode::kThreaded,
                     plan, 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, SupervisorCrashPointSweep,
    ::testing::Values(fault::CrashPoint::kBeforeWrite,
                      fault::CrashPoint::kTornTemp,
                      fault::CrashPoint::kTornInstall,
                      fault::CrashPoint::kBeforeRename,
                      fault::CrashPoint::kAfterInstall,
                      fault::CrashPoint::kBetweenEpochs),
    [](const auto& info) {
        return std::string(fault::crash_point_name(info.param));
    });

// ---------------------------------------------------------------------------
// Multi-crash gauntlet: four crashes of different kinds in one run, each
// retry resuming from whatever the previous death left recoverable.

TEST(SupervisorTest, MultiCrashGauntletStillBitIdentical) {
    const auto ops = ops_from_packets(small_trace(44, 16'000));
    std::deque<SoaCache> caches;
    const auto make = [&caches] {
        caches.emplace_back(256, 0x5C);
        return CacheReplayTarget<SoaCache, FlowKey, std::uint32_t>(
            caches.back());
    };
    fault::FaultPlan plan;
    plan.crash(1, fault::CrashPoint::kTornTemp, 1)
        .crash(3, fault::CrashPoint::kTornInstall, 2)
        .crash(6, fault::CrashPoint::kBeforeRename)
        .crash(9, fault::CrashPoint::kAfterInstall);
    check_supervised(make, ops, Mode::kThreaded, plan, 4);
}

// ---------------------------------------------------------------------------
// Edges.

TEST(SupervisorTest, CleanRunIsSingleAttemptColdStart) {
    const auto ops = ops_from_packets(small_trace(45));
    std::deque<SoaCache> caches;
    const auto make = [&caches] {
        caches.emplace_back(256, 0x5C);
        return CacheReplayTarget<SoaCache, FlowKey, std::uint32_t>(
            caches.back());
    };
    testutil::ScopedTempDir tmp{"p4lru_sup"};
    DurableStore store(tmp.file("store"), {.retain = 3, .sync = false});
    SpanOpSource source(ops);
    const auto sv = run_supervised_stream(make, source,
                                          engine_config(Mode::kInline), store);
    ASSERT_TRUE(sv.is_ok()) << sv.status().to_string();
    EXPECT_EQ(sv.value().attempts, 1u);
    EXPECT_EQ(sv.value().crashes, 0u);
    EXPECT_EQ(sv.value().resumed_from_gen, 0u);
    EXPECT_TRUE(sv.value().rejected.empty());
    EXPECT_FALSE(store.list().empty())
        << "a clean run still leaves durable generations behind";
}

TEST(SupervisorTest, WarmStoreResumesInsteadOfColdStarting) {
    const auto ops = ops_from_packets(small_trace(46));
    SpanOpSource source(ops);
    std::deque<SoaCache> caches;
    auto factory = [&]() -> decltype(auto) {
        caches.emplace_back(256, 0x5C);
        return CacheReplayTarget<SoaCache, FlowKey, std::uint32_t>(
            caches.back());
    };
    testutil::ScopedTempDir tmp{"p4lru_sup"};
    DurableStore store(tmp.file("store"), {.retain = 3, .sync = false});
    const auto first = run_supervised_stream(
        factory, source, engine_config(Mode::kInline), store);
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();

    // A second supervised run over the same store picks up the newest
    // generation and replays only the suffix — same final stats.
    const auto second = run_supervised_stream(
        factory, source, engine_config(Mode::kInline), store);
    ASSERT_TRUE(second.is_ok()) << second.status().to_string();
    EXPECT_GT(second.value().resumed_from_gen, 0u);
    EXPECT_EQ(second.value().report.stats, first.value().report.stats);
}

TEST(SupervisorTest, ExhaustedAttemptsFailUnavailableWithLastCause) {
    const auto ops = ops_from_packets(small_trace(47, 8'000));
    std::deque<SoaCache> caches;
    auto factory = [&]() -> decltype(auto) {
        caches.emplace_back(256, 0x5C);
        return CacheReplayTarget<SoaCache, FlowKey, std::uint32_t>(
            caches.back());
    };
    fault::FaultPlan plan;  // a crash at every install: never finishes
    for (std::uint64_t at = 0; at < 64; ++at) {
        plan.crash(at, fault::CrashPoint::kTornInstall, at % 3);
    }
    testutil::ScopedTempDir tmp{"p4lru_sup"};
    DurableStore store(tmp.file("store"), {.retain = 3, .sync = false});
    SupervisorConfig sup;
    sup.every_batches = 4;
    sup.max_attempts = 3;
    SpanOpSource source(ops);
    const auto sv = run_supervised_stream(factory, source,
                                          engine_config(Mode::kInline), store,
                                          sup, plan);
    ASSERT_FALSE(sv.is_ok());
    EXPECT_EQ(sv.status().code(), ErrorCode::kUnavailable);
    EXPECT_NE(sv.status().message().find("3 attempts"), std::string::npos)
        << sv.status().to_string();
}

TEST(SupervisorTest, BackoffSaturatesAtTheCap) {
    SupervisorConfig sup;
    sup.backoff_base_us = 100;
    sup.backoff_cap_us = 1'500;
    EXPECT_EQ(backoff_delay_us(sup, 0), 0u);
    EXPECT_EQ(backoff_delay_us(sup, 1), 100u);
    EXPECT_EQ(backoff_delay_us(sup, 2), 200u);
    EXPECT_EQ(backoff_delay_us(sup, 4), 800u);
    EXPECT_EQ(backoff_delay_us(sup, 5), 1'500u);  // 1600 → cap
    EXPECT_EQ(backoff_delay_us(sup, 40), 1'500u);
    EXPECT_EQ(backoff_delay_us(sup, 200), 1'500u);  // shift saturates
}

}  // namespace
}  // namespace p4lru::replay
