// LruMon at one partition: the paper's telemetry system (one filter, one
// cache, one analyzer, global arrival order).  Per-packet cases step the
// target the way the engine does (route, then a one-element apply_batch)
// and read the merged statistics.  The suite name is the paper system's.
#include "p4lru/systems/lrumon/lrumon_target.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "../test_util.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/trace/trace_gen.hpp"

namespace p4lru::systems::lrumon {
namespace {

using testutil::make_flow;
using MonPolicy = cache::ReplacementPolicy<std::uint32_t, FlowLen>;

std::unique_ptr<MonPolicy> p4lru3(std::size_t entries) {
    return std::make_unique<cache::P4lruArrayPolicy<std::uint32_t, FlowLen, 3,
                                                    core::AddMerge>>(entries,
                                                                     0xB);
}

std::unique_ptr<FlowFilter> tower(TimeNs reset = 10 * kMillisecond) {
    FilterConfig cfg;
    cfg.reset_period = reset;
    cfg.tower_width1 = 1u << 14;
    cfg.tower_width2 = 1u << 13;
    return make_filter(FilterKind::kTower, cfg);
}

/// One-partition monitor: a Tower filter with `reset` and a P4LRU3 cache.
LruMonTarget monitor(TimeNs reset, std::size_t entries, LruMonConfig cfg) {
    return LruMonTarget(
        1, [reset](std::size_t) { return tower(reset); },
        [entries](std::size_t) { return p4lru3(entries); }, cfg);
}

/// Route one packet and apply it as a one-element batch.
void step(LruMonTarget& mon, LruMonStats& s, const PacketRecord& pkt) {
    const LruMonRouted r = mon.route(pkt);
    mon.apply_batch(std::span<const LruMonRouted>(&r, 1), s);
}

LruMonReport replay_all(LruMonTarget& mon,
                        const std::vector<PacketRecord>& trace) {
    replay::SpanOpSource source(trace);
    return mon.report(
        replay::replay_target_sequential_stream(mon, source).value());
}

PacketRecord packet(std::uint32_t flow_id, TimeNs ts, std::uint32_t len) {
    PacketRecord p;
    p.flow = make_flow(flow_id);
    p.ts = ts;
    p.len = len;
    return p;
}

TEST(LruMonSystem, RejectsNullComponents) {
    const LruMonConfig cfg;
    EXPECT_THROW(LruMonTarget(
                     1, [](std::size_t) { return nullptr; },
                     [](std::size_t) { return p4lru3(30); }, cfg),
                 std::invalid_argument);
    EXPECT_THROW(LruMonTarget(
                     1, [](std::size_t) { return tower(); },
                     [](std::size_t) { return nullptr; }, cfg),
                 std::invalid_argument);
}

TEST(LruMonSystem, MousePacketsAreFiltered) {
    LruMonConfig cfg;
    cfg.threshold = 1'000'000;  // nothing passes
    auto mon = monitor(10 * kMillisecond, 300, cfg);
    LruMonStats s;
    for (int i = 0; i < 100; ++i) {
        step(mon, s, packet(i, static_cast<TimeNs>(i), 100));
    }
    const auto r = mon.report(s);
    EXPECT_EQ(r.filtered_packets, 100u);
    EXPECT_EQ(r.elephant_packets, 0u);
    EXPECT_EQ(r.uploads, 0u);
    // All bytes are unmeasured: total error = 1.
    EXPECT_DOUBLE_EQ(r.total_error_rate, 1.0);
}

TEST(LruMonSystem, ElephantIsMeasuredExactly) {
    LruMonConfig cfg;
    cfg.threshold = 1500;
    auto mon = monitor(kSecond, 300, cfg);
    LruMonStats s;
    // One flow, 100 packets x 1000B: crosses the threshold at packet 2.
    for (int i = 0; i < 100; ++i) {
        step(mon, s, packet(1, static_cast<TimeNs>(i * 1000), 1000));
    }
    const auto r = mon.report(s);
    EXPECT_EQ(r.total_bytes, 100'000u);
    // Only the first packet (filter estimate 1000 < 1500) escapes.
    EXPECT_EQ(r.max_flow_error, 1000u);
    EXPECT_EQ(r.measured_bytes, 99'000u);
    EXPECT_EQ(r.overestimated_flows, 0u);
}

TEST(LruMonSystem, NeverOverestimatesAnyFlow) {
    trace::TraceConfig tc;
    tc.total_packets = 80'000;
    tc.segments = 4;
    const auto tr = trace::generate_trace(tc);
    LruMonConfig cfg;
    cfg.threshold = 1500;
    auto mon = monitor(10 * kMillisecond, 3'000, cfg);
    const auto r = replay_all(mon, tr);
    EXPECT_EQ(r.overestimated_flows, 0u);
    EXPECT_GT(r.measured_bytes, 0u);
    EXPECT_LE(r.measured_bytes, r.total_bytes);
}

TEST(LruMonSystem, MaxFlowErrorBoundedByThresholdPerWindow) {
    trace::TraceConfig tc;
    tc.total_packets = 60'000;
    const auto tr = trace::generate_trace(tc);  // 1 second
    LruMonConfig cfg;
    cfg.threshold = 2'000;
    const TimeNs reset = 100 * kMillisecond;  // 10 windows
    auto mon = monitor(reset, 3'000, cfg);
    const auto r = replay_all(mon, tr);
    // Per window a flow can lose at most threshold + one MTU; across the
    // whole trace that is bounded by windows * (threshold + MTU).
    EXPECT_LE(r.max_flow_error, 11u * (cfg.threshold + 1500));
}

TEST(LruMonSystem, UploadsOnlyOnCacheMisses) {
    LruMonConfig cfg;
    cfg.threshold = 100;  // everything is an elephant
    auto mon = monitor(kSecond, 3, cfg);  // one cache unit
    LruMonStats s;
    step(mon, s, packet(1, 0, 1000));  // miss -> upload
    step(mon, s, packet(1, 1, 1000));  // hit
    step(mon, s, packet(2, 2, 1000));  // miss -> upload
    const auto r = mon.report(s);
    EXPECT_EQ(r.uploads, 2u);
    EXPECT_EQ(r.cache_hits, 1u);
}

TEST(LruMonSystem, EvictedBytesAreCreditedViaAnalyzer) {
    LruMonConfig cfg;
    cfg.threshold = 100;
    auto mon = monitor(kSecond, 3, cfg);  // one unit, 3 entries
    LruMonStats s;
    // Fill the unit with flows 1..3, then insert 4: flow 1 evicted; its
    // bytes must land in the analyzer table for flow 1.
    for (std::uint32_t f = 1; f <= 3; ++f) step(mon, s, packet(f, f, 500));
    step(mon, s, packet(1, 10, 700));  // flow 1 now 1200 bytes cached
    for (std::uint32_t f = 2; f <= 3; ++f) {
        step(mon, s, packet(f, f + 20, 1));
    }
    step(mon, s, packet(4, 30, 999));  // evicts flow 1
    const auto r = mon.report(s);
    EXPECT_EQ(r.overestimated_flows, 0u);
    EXPECT_EQ(mon.analyzer(0).measured_bytes(make_flow(1)), 1200u);
    EXPECT_EQ(r.total_error_rate, 0.0);  // threshold 100 < every packet
}

TEST(LruMonSystem, ReportFinalizesOnDemand) {
    LruMonConfig cfg;
    cfg.threshold = 100;
    auto mon = monitor(kSecond, 300, cfg);
    LruMonStats s;
    step(mon, s, packet(1, 0, 5'000));
    // The 5000 bytes are still cached in the data plane, yet report()
    // credits them immediately, and asking again changes nothing.
    const auto before = mon.report(s);
    EXPECT_EQ(before.measured_bytes, 5'000u);
    EXPECT_EQ(before.total_error_rate, 0.0);
    const auto after = mon.report(s);
    EXPECT_EQ(after.measured_bytes, 5'000u);
    EXPECT_EQ(after.total_error_rate, 0.0);
}

TEST(LruMonSystem, BetterCacheMeansFewerUploads) {
    trace::TraceConfig tc;
    tc.total_packets = 100'000;
    tc.segments = 8;
    const auto tr = trace::generate_trace(tc);
    const auto uploads = [&](const LruMonTarget::PolicyFactory& policy) {
        LruMonConfig cfg;
        cfg.threshold = 1500;
        cfg.track_ground_truth = false;
        LruMonTarget mon(
            1, [](std::size_t) { return tower(); }, policy, cfg);
        return replay_all(mon, tr).uploads;
    };
    const auto u3 = uploads([](std::size_t) { return p4lru3(3'000); });
    const auto u1 = uploads([](std::size_t) {
        return std::make_unique<cache::P4lruArrayPolicy<
            std::uint32_t, FlowLen, 1, core::AddMerge>>(3'000, 0xB);
    });
    EXPECT_LT(u3, u1);
}

TEST(LruMonSystem, HigherThresholdFewerUploads) {
    trace::TraceConfig tc;
    tc.total_packets = 80'000;
    const auto tr = trace::generate_trace(tc);
    const auto uploads = [&](std::uint32_t threshold) {
        LruMonConfig cfg;
        cfg.threshold = threshold;
        cfg.track_ground_truth = false;
        auto mon = monitor(10 * kMillisecond, 3'000, cfg);
        return replay_all(mon, tr).uploads;
    };
    EXPECT_GT(uploads(500), uploads(4'000));
}

TEST(LruMonSystem, WindowResetForgetsOldTraffic) {
    LruMonConfig cfg;
    cfg.threshold = 1500;
    auto mon = monitor(10 * kMillisecond, 300, cfg);
    LruMonStats s;
    // 1000B in window 0: below threshold, filtered.
    step(mon, s, packet(1, 0, 1000));
    // 1000B in window 5: the counter was reset, still below threshold.
    step(mon, s, packet(1, 50 * kMillisecond, 1000));
    EXPECT_EQ(mon.report(s).elephant_packets, 0u);
}

TEST(LruMonSystem, ReportIsIdempotentAcrossFinishAndMoreTraffic) {
    LruMonConfig cfg;
    cfg.threshold = 100;
    auto mon = monitor(kSecond, 300, cfg);
    LruMonStats s;
    step(mon, s, packet(1, 0, 5'000));
    (void)mon.report(s);
    // Reporting mid-stream flushes nothing: traffic continues and the
    // report stays exact.
    step(mon, s, packet(2, 1, 7'000));
    const auto r1 = mon.report(s);
    const auto r2 = mon.report(s);
    EXPECT_EQ(r1.measured_bytes, 12'000u);
    EXPECT_EQ(r1.measured_bytes, r2.measured_bytes);
    EXPECT_EQ(r1.uploads, r2.uploads);
    EXPECT_EQ(r1.total_error_rate, 0.0);
}

// Golden: the report the former standalone LruMon implementation produced
// on one fixed trace (generate_trace seed 7, 40k packets, 4 segments;
// Tower filter with 10 ms windows, P4LRU3 with 3000 entries, threshold
// 1500 B).  The one-partition target must reproduce it exactly.
TEST(LruMonTarget, OnePartitionMatchesGoldenReport) {
    trace::TraceConfig tc;
    tc.total_packets = 40'000;
    tc.segments = 4;
    tc.seed = 7;
    const auto tr = trace::generate_trace(tc);
    LruMonConfig cfg;
    cfg.threshold = 1500;
    auto mon = monitor(10 * kMillisecond, 3'000, cfg);
    const auto r = replay_all(mon, tr);
    EXPECT_EQ(r.packets, 40'004u);
    EXPECT_EQ(r.filtered_packets, 5'741u);
    EXPECT_EQ(r.elephant_packets, 34'263u);
    EXPECT_EQ(r.cache_hits, 32'169u);
    EXPECT_EQ(r.uploads, 2'094u);
    EXPECT_DOUBLE_EQ(r.upload_kpps, 2.0952137636189061);
    EXPECT_DOUBLE_EQ(r.cache_miss_rate, 0.061115489011470098);
    EXPECT_EQ(r.total_bytes, 29'036'860u);
    EXPECT_EQ(r.measured_bytes, 25'940'307u);
    EXPECT_DOUBLE_EQ(r.total_error_rate, 0.1066421438130707);
    EXPECT_EQ(r.max_flow_error, 18'749u);
    EXPECT_EQ(r.overestimated_flows, 0u);
}

}  // namespace
}  // namespace p4lru::systems::lrumon
